package softswitch

import "github.com/harmless-sdn/harmless/internal/flowtable"

// Meters exposes the meter table.
func (s *Switch) Meters() *flowtable.MeterTable { return s.meters }

// Len returns the number of buffered frames.
func (b *bufferPool) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for i := range b.slots {
		if b.slots[i].frame != nil {
			n++
		}
	}
	return n
}
