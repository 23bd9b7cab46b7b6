package dataplane

// Cap returns the ring capacity in frames.
func (r *Ring) Cap() int { return r.r.Cap() }
