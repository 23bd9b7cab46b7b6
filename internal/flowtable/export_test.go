package flowtable

// Len returns the number of groups.
func (gt *GroupTable) Len() int {
	gt.mu.RLock()
	defer gt.mu.RUnlock()
	return len(gt.groups)
}

// Dropped returns the number of packets dropped by the meter.
func (m *Meter) Dropped() uint64 { return m.dropped.Load() }

// Passed returns the number of packets passed by the meter.
func (m *Meter) Passed() uint64 { return m.passed.Load() }

// Get looks up a meter.
func (mt *MeterTable) Get(id uint32) (*Meter, bool) {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	m, ok := mt.meters[id]
	return m, ok
}
