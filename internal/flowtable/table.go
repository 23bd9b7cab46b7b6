package flowtable

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Entry is one installed flow. The Instructions field holds the
// program the entry was installed with; after a flow-modify the live
// program is the one Instrs returns, which readers on the datapath
// must use (Modify publishes the replacement atomically so lookups
// racing a flow-mod never observe a torn instruction list).
type Entry struct {
	Priority     uint16
	Match        *Match
	Instructions []openflow.Instruction
	Cookie       uint64
	IdleTimeout  uint16 // seconds; 0 = none
	HardTimeout  uint16
	Flags        uint16

	instrs  atomic.Pointer[[]openflow.Instruction] // set by Modify; nil = Instructions
	cm      compiled                               // Match as the classifier holds it; set by Add
	seq     uint64                                 // install order within the table; a replacement inherits it
	created time.Time
	// lastUsed is the clock reading (unix nanos) of the latest dispatch
	// that matched the entry — read once per dispatch, not per packet,
	// so it trails the packet's own arrival by at most one dispatch.
	lastUsed atomic.Int64
	packets  atomic.Uint64
	bytes    atomic.Uint64
}

// Instrs returns the entry's current instruction program. Unlike
// reading the Instructions field it is safe to call concurrently with
// Table.Modify.
func (e *Entry) Instrs() []openflow.Instruction {
	if p := e.instrs.Load(); p != nil {
		return *p
	}
	return e.Instructions
}

// Packets returns the packet hit counter.
func (e *Entry) Packets() uint64 { return e.packets.Load() }

// Bytes returns the byte hit counter.
func (e *Entry) Bytes() uint64 { return e.bytes.Load() }

// Created returns the installation time.
func (e *Entry) Created() time.Time { return e.created }

// expired reports whether the entry has timed out, and the reason.
func (e *Entry) expired(now time.Time) (bool, uint8) {
	if e.HardTimeout > 0 && now.Sub(e.created) >= time.Duration(e.HardTimeout)*time.Second {
		return true, openflow.FlowRemovedHardTimeout
	}
	if e.IdleTimeout > 0 {
		last := time.Unix(0, e.lastUsed.Load())
		if now.Sub(last) >= time.Duration(e.IdleTimeout)*time.Second {
			return true, openflow.FlowRemovedIdleTimeout
		}
	}
	return false, 0
}

// outputsTo reports whether any instruction outputs to the given port
// (used by flow-mod out_port filtering).
func (e *Entry) outputsTo(port uint32) bool {
	if port == openflow.PortAny {
		return true
	}
	for _, in := range e.Instrs() {
		var acts []openflow.Action
		switch t := in.(type) {
		case *openflow.InstrApplyActions:
			acts = t.Actions
		case *openflow.InstrWriteActions:
			acts = t.Actions
		}
		for _, a := range acts {
			if out, ok := a.(*openflow.ActionOutput); ok && out.Port == port {
				return true
			}
		}
	}
	return false
}

// String renders the entry for diagnostics.
func (e *Entry) String() string {
	return fmt.Sprintf("priority=%d %s (pkts=%d)", e.Priority, e.Match, e.Packets())
}

// Removed describes an entry that was deleted or expired, for
// flow-removed notifications.
type Removed struct {
	Entry    *Entry
	Reason   uint8
	TableID  uint8
	Duration time.Duration
}

// ErrTableFull is returned when the entry limit is reached.
var ErrTableFull = fmt.Errorf("flowtable: table full")

// Table is one priority-ordered flow table.
type Table struct {
	id       uint8
	clock    netem.Clock
	maxFlows int // 0 = unlimited

	mu      sync.RWMutex
	entries []*Entry // scan order: priority descending, then install order
	lastSeq uint64

	// The classifier over entries (index.go): one tuple per distinct
	// mask, maxPrio descending, kept under mu.
	tuples  []tuple
	consult atomic.Pointer[pkt.FlatKey]

	version atomic.Uint64 // bumped on every modification (cache invalidation)
	lookups atomic.Uint64
	matched atomic.Uint64
}

// NewTable creates an empty table.
func NewTable(id uint8, clock netem.Clock) *Table {
	if clock == nil {
		clock = netem.RealClock{}
	}
	t := &Table{id: id, clock: clock}
	t.consult.Store(&shapeBits)
	return t
}

// ID returns the table id.
func (t *Table) ID() uint8 { return t.id }

// Version returns the table's revision counter. It is bumped on every
// flow-mod (add, modify, delete) and on entry expiry, and is what the
// softswitch flow cache validates against so a cached forwarding
// decision never outlives the rules it was derived from.
func (t *Table) Version() uint64 { return t.version.Load() }

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// Stats returns (lookups, matched) counters.
func (t *Table) Stats() (lookups, matched uint64) {
	return t.lookups.Load(), t.matched.Load()
}

// ConsultMask returns the bits of a packed key a lookup against this
// table can read: the OR of the tuple masks, and the presence bits
// always — the IP shape check reads two of them outside any tuple's
// mask, and with all six in, keys of one projection agree on packet
// shape whatever the rules are. Two keys whose projections onto it are
// equal (FlatKey.And) select the same entry here, since every probe
// find makes reads a subset of these bits: the per-table step of the
// megaflow soundness argument. The mask is immutable and one atomic load
// away. A flow-mod publishes the new mask before it bumps the version,
// so a caller that reads Version first never pairs a new revision with
// an old mask.
func (t *Table) ConsultMask() *pkt.FlatKey { return t.consult.Load() }

// Lookup returns the highest-priority matching entry — of several at
// that priority, the first installed — and accounts counters (nil on
// table miss). size is the frame length for byte counters. It stamps
// the hit with the table's own clock; the datapath, which takes one
// reading per dispatch and credits once per burst, calls Find and
// CreditHits.
func (t *Table) Lookup(k *pkt.Key, size int) *Entry {
	f := flatOf(k)
	hit := t.Find(&f)
	if hit != nil {
		t.CreditHits(hit, 1, uint64(size), t.clock.Now().UnixNano())
	}
	return hit
}

// Find is Lookup for a key the caller has packed (pkt.ExtractFlat; the
// datapath parses once per frame, for the flow cache and every table of
// the walk), with the hit's accounting left to the caller, who owes the
// table one CreditHits packet for it. A miss has no entry to credit and
// counts its lookup here.
func (t *Table) Find(f *pkt.FlatKey) *Entry {
	t.mu.RLock()
	hit := t.find(f)
	t.mu.RUnlock()
	if hit == nil {
		t.lookups.Add(1)
	}
	return hit
}

// CreditHits accounts forwarding decisions against the table and entry
// counters — lookups' own hits, or cache hits exactly as the lookups
// that produced the cached decision would have: per packet one lookup,
// one match, one entry hit, and the idle-timeout clock refreshed. now is
// the caller's clock reading in unix nanos — the datapath takes one
// per dispatch and credits every hit of the dispatch with it.
func (t *Table) CreditHits(e *Entry, packets, bytes uint64, now int64) {
	t.lookups.Add(packets)
	t.matched.Add(packets)
	e.packets.Add(packets)
	e.bytes.Add(bytes)
	e.lastUsed.Store(now)
}

// Add installs a flow per OFPFC_ADD semantics: an entry with identical
// match and priority is replaced (counters reset). Equal matches compile
// alike, and every entry is filed in its mask's tuple or shadowed there
// by one of the same value: a tuple that holds nothing at the new
// entry's value says the entry is new without a look at any other. The
// entries are scanned for the one to replace only when something is
// filed there — and for a never-matching entry, which is filed nowhere.
func (t *Table) Add(e *Entry) error {
	now := t.clock.Now()
	e.created = now
	e.lastUsed.Store(now.UnixNano())
	if e.Match == nil {
		e.Match = &Match{}
	}
	e.cm = compile(e.Match)
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.version.Add(1)
	if e.cm.never || t.filed(&e.cm) {
		for i, old := range t.entries {
			if old.Priority == e.Priority && old.Match.Equal(e.Match) {
				e.seq = old.seq
				t.entries[i] = e
				t.index(e, old, nil)
				return nil
			}
		}
	}
	if t.maxFlows > 0 && len(t.entries) >= t.maxFlows {
		return ErrTableFull
	}
	t.lastSeq++
	e.seq = t.lastSeq
	// Priority-descending order; the new entry goes after existing
	// entries of the same priority.
	t.entries = insertInOrder(t.entries, e)
	t.index(e, nil, nil)
	return nil
}

// Modify updates instructions of matching flows (non-strict: all flows
// covered by the request match; strict: exact match + priority).
// Counters and timeouts of modified flows are preserved.
func (t *Table) Modify(match *Match, priority uint16, strict bool, instrs []openflow.Instruction) int {
	req := compile(match)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.entries {
		if strict {
			if e.Priority != priority || !e.Match.Equal(match) {
				continue
			}
		} else if !e.cm.coveredBy(&req) {
			continue
		}
		e.instrs.Store(&instrs)
		n++
	}
	if n > 0 {
		t.version.Add(1)
	}
	return n
}

// Delete removes matching flows and returns them. Non-strict deletes
// remove every flow covered by the request match; strict requires
// exact equality. outPort filters to flows that output to that port
// (PortAny = no filter).
func (t *Table) Delete(match *Match, priority uint16, strict bool, outPort uint32) []Removed {
	now := t.clock.Now()
	req := compile(match)
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []Removed
	kept := t.entries[:0]
	for _, e := range t.entries {
		del := false
		if strict {
			del = e.Priority == priority && e.Match.Equal(match)
		} else {
			del = e.cm.coveredBy(&req)
		}
		if del && !e.outputsTo(outPort) {
			del = false
		}
		if del {
			removed = append(removed, Removed{
				Entry: e, Reason: openflow.FlowRemovedDelete,
				TableID: t.id, Duration: now.Sub(e.created),
			})
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if len(removed) > 0 {
		t.reindex()
		t.version.Add(1)
	}
	return removed
}

// ExpireEntries removes all timed-out entries and returns them.
func (t *Table) ExpireEntries() []Removed {
	now := t.clock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var removed []Removed
	kept := t.entries[:0]
	for _, e := range t.entries {
		if exp, reason := e.expired(now); exp {
			removed = append(removed, Removed{
				Entry: e, Reason: reason, TableID: t.id, Duration: now.Sub(e.created),
			})
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if len(removed) > 0 {
		t.reindex()
		t.version.Add(1)
	}
	return removed
}

// Entries returns a snapshot of the table contents in priority order.
func (t *Table) Entries() []*Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Entry, len(t.entries))
	copy(out, t.entries)
	return out
}
