package flowtable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Group is one installed group entry. A Group is IMMUTABLE once
// published: the datapath reads Type and Buckets lock-free after
// GroupTable.Get, so a group-mod never mutates a live Group in place —
// GroupModify installs a replacement that shares the counter block
// (see groupCounters), keeping statistics exact across the swap.
type Group struct {
	ID      uint32
	Type    uint8
	Buckets []openflow.Bucket

	counters atomic.Pointer[groupCounters]
}

// groupCounters is the statistics block shared between a group and its
// modify-replacements, so concurrent hits racing a group-mod are never
// lost.
type groupCounters struct {
	packets atomic.Uint64
	bytes   atomic.Uint64
}

// stats returns the counter block, creating it on first use (groups
// installed via Apply get theirs eagerly; zero-value Groups built by
// hand initialize here, with a CAS so racing initializers converge on
// one block and no count is lost).
func (g *Group) stats() *groupCounters {
	if c := g.counters.Load(); c != nil {
		return c
	}
	g.counters.CompareAndSwap(nil, &groupCounters{})
	return g.counters.Load()
}

// Packets returns the group's packet counter.
func (g *Group) Packets() uint64 { return g.stats().packets.Load() }

// Hit accounts one packet through the group.
func (g *Group) Hit(n int) {
	c := g.stats()
	c.packets.Add(1)
	c.bytes.Add(uint64(n))
}

// SelectBucket picks the bucket for a packet in a SELECT group from its
// flow's hash (the datapath passes pkt.FlatKey.FlowSum), weighted, so
// that one flow always hits the same backend (flow affinity, as real
// switches implement it). Returns nil for empty groups.
func (g *Group) SelectBucket(hash uint64) *openflow.Bucket {
	if len(g.Buckets) == 0 {
		return nil
	}
	if g.Type != openflow.GroupTypeSelect {
		return &g.Buckets[0]
	}
	var total uint64
	for i := range g.Buckets {
		w := uint64(g.Buckets[i].Weight)
		if w == 0 {
			w = 1
		}
		total += w
	}
	// Map the hash onto the cumulative weight line.
	point := hash % total
	var acc uint64
	for i := range g.Buckets {
		w := uint64(g.Buckets[i].Weight)
		if w == 0 {
			w = 1
		}
		acc += w
		if point < acc {
			return &g.Buckets[i]
		}
	}
	return &g.Buckets[len(g.Buckets)-1]
}

// GroupTable holds the switch's groups.
type GroupTable struct {
	mu     sync.RWMutex
	groups map[uint32]*Group
}

// NewGroupTable returns an empty group table.
func NewGroupTable() *GroupTable {
	return &GroupTable{groups: make(map[uint32]*Group)}
}

// Apply executes a GroupMod.
func (gt *GroupTable) Apply(gm *openflow.GroupMod) error {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	switch gm.Command {
	case openflow.GroupAdd:
		if _, ok := gt.groups[gm.GroupID]; ok {
			return fmt.Errorf("flowtable: group %d exists", gm.GroupID)
		}
		ng := &Group{ID: gm.GroupID, Type: gm.GroupType, Buckets: gm.Buckets}
		ng.counters.Store(&groupCounters{})
		gt.groups[gm.GroupID] = ng
	case openflow.GroupModify:
		g, ok := gt.groups[gm.GroupID]
		if !ok {
			return fmt.Errorf("flowtable: group %d unknown", gm.GroupID)
		}
		// Publish a replacement instead of mutating the live group: a
		// datapath reader holding the old *Group keeps a consistent
		// Type/Buckets snapshot, and the shared counter block keeps
		// racing hits accounted.
		ng := &Group{ID: gm.GroupID, Type: gm.GroupType, Buckets: gm.Buckets}
		ng.counters.Store(g.stats())
		gt.groups[gm.GroupID] = ng
	case openflow.GroupDelete:
		if gm.GroupID == openflow.GroupAny {
			gt.groups = make(map[uint32]*Group)
			return nil
		}
		delete(gt.groups, gm.GroupID)
	default:
		return fmt.Errorf("flowtable: unknown group command %d", gm.Command)
	}
	return nil
}

// Get looks up a group.
func (gt *GroupTable) Get(id uint32) (*Group, bool) {
	gt.mu.RLock()
	defer gt.mu.RUnlock()
	g, ok := gt.groups[id]
	return g, ok
}

// Meter implements a token-bucket rate limiter for one OpenFlow meter.
type Meter struct {
	ID    uint32
	Rate  uint64 // tokens/second (packets or kbits per flags)
	Burst uint64 // bucket depth
	PktPS bool   // true: packets/s; false: kbits/s

	mu     sync.Mutex
	tokens float64
	last   time.Time

	dropped atomic.Uint64
	passed  atomic.Uint64
}

// Allow consumes tokens for one packet of size bytes, reporting
// whether it passes the meter.
func (m *Meter) Allow(now time.Time, size int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.last.IsZero() {
		m.last = now
		m.tokens = float64(m.Burst)
	}
	elapsed := now.Sub(m.last).Seconds()
	if elapsed > 0 {
		m.tokens += elapsed * float64(m.Rate)
		if m.tokens > float64(m.Burst) {
			m.tokens = float64(m.Burst)
		}
		m.last = now
	}
	need := 1.0
	if !m.PktPS {
		need = float64(size*8) / 1000.0 // kbits
	}
	if m.tokens >= need {
		m.tokens -= need
		m.passed.Add(1)
		return true
	}
	m.dropped.Add(1)
	return false
}

// MeterTable holds the switch's meters.
type MeterTable struct {
	clock  netem.Clock
	mu     sync.RWMutex
	meters map[uint32]*Meter
}

// NewMeterTable returns an empty meter table.
func NewMeterTable(clock netem.Clock) *MeterTable {
	if clock == nil {
		clock = netem.RealClock{}
	}
	return &MeterTable{clock: clock, meters: make(map[uint32]*Meter)}
}

// Apply executes a MeterMod. Only single drop bands are supported,
// which is what rate-limiting use cases need.
func (mt *MeterTable) Apply(mm *openflow.MeterMod) error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	switch mm.Command {
	case openflow.MeterAdd, openflow.MeterModify:
		if mm.Command == openflow.MeterAdd {
			if _, ok := mt.meters[mm.MeterID]; ok {
				return fmt.Errorf("flowtable: meter %d exists", mm.MeterID)
			}
		}
		if len(mm.Bands) != 1 || mm.Bands[0].Type != openflow.MeterBandDrop {
			return fmt.Errorf("flowtable: meter %d: exactly one drop band supported", mm.MeterID)
		}
		m := &Meter{
			ID:    mm.MeterID,
			Rate:  uint64(mm.Bands[0].Rate),
			Burst: uint64(mm.Bands[0].BurstSize),
			PktPS: mm.Flags&openflow.MeterFlagPktps != 0,
		}
		if m.Burst == 0 {
			m.Burst = m.Rate // sensible default: 1s worth
		}
		mt.meters[mm.MeterID] = m
	case openflow.MeterDelete:
		delete(mt.meters, mm.MeterID)
	default:
		return fmt.Errorf("flowtable: unknown meter command %d", mm.Command)
	}
	return nil
}

// Pass runs a packet through meter id; unknown meters pass everything
// (per spec, using an absent meter is an error at flow-mod time; the
// datapath fails open).
func (mt *MeterTable) Pass(id uint32, size int) bool {
	mt.mu.RLock()
	m := mt.meters[id]
	mt.mu.RUnlock()
	if m == nil {
		return true
	}
	return m.Allow(mt.clock.Now(), size)
}
