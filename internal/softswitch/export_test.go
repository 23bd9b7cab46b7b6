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

// The random program generator of the cache oracle (cachewalk_test.go),
// for the S4 oracle in the external test package, which can import the
// translator.
var (
	WalkAdd      = walkAdd
	WalkMatch    = walkMatch
	WalkRewrites = walkRewrites
	WalkInstrs   = walkInstrs
	WalkGroupMod = walkGroupMod
	WalkIP       = walkIP
	WalkMACs     = walkMACs
	WalkDports   = walkDports
)

const (
	MaxPatchHops = maxPatchHops

	WalkTables = walkTables
	WalkMeter  = walkMeter
	WalkGroup  = walkGroup
)
