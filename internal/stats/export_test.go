package stats

// Get returns the count for key.
func (d *Distribution) Get(key string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.m[key]
}

// Total returns the sum over all keys.
func (d *Distribution) Total() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	var t uint64
	for _, v := range d.m {
		t += v
	}
	return t
}
