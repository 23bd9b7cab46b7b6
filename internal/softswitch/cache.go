package softswitch

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The flow cache's entries and classes (DESIGN.md, "The flow cache"): a
// walk records the operations it performed, the revision of every table
// it consulted (read before the lookup, so a racing flow-mod leaves the
// recording stale, never wrongly valid) and the union of their consult
// masks; the entry is stored in that mask's class under the packed key
// projected through it, revalidated on every hit and replayed run by run. A walk that
// outputs to a patch port follows it into the peer (follow), so one
// entry of the switch the frame entered replays the whole crossing.
// Meters, groups, TTLs and packet-ins stay operations, re-run per frame.
// The class list and the adaptive bypass are in flowcache.go.

// tableDep is one table the recorded walk consulted, with the
// revision it had when the decision was made (validated on every hit).
type tableDep struct {
	table *flowtable.Table
	rev   uint64
}

// opKind discriminates the replayable datapath operations.
type opKind uint8

const (
	opCredit opKind = iota // account the table/entry match
	opMeter                // run the meter
	opApply                // execute an action list
	opCross                // cross a patch port into the peer switch
)

// microOp is one replayable datapath operation. Credits are recorded
// in-stream at the position the walk matched the entry, so a replay
// that stops early (meter drop, TTL expiry) credits exactly the
// tables the equivalent walk would have consulted, with the frame
// size the walk would have seen at that point.
type microOp struct {
	kind     opKind
	meterID  uint32           // opMeter
	table    *flowtable.Table // opCredit
	acts     []openflow.Action
	tableID  uint8
	untagged bool             // opCross: guarded, for frames with no tag left (follow)
	entry    *flowtable.Entry // opCredit: entry to credit; opApply: packet-in context (nil for the action set)
	port     *swPort          // opCross: the patch port crossed
}

// CacheEntry is one cached flow program: the dependency set to
// revalidate and the operation sequence to replay. The pipeline walk
// fills one in inside the recorder of its txContext, and
// flowCache.install publishes a copy. A published entry is immutable, so
// nothing has to keep a class from unmapping one that a dispatch is
// still replaying.
type CacheEntry struct {
	deps []tableDep
	ops  []microOp

	// outPort is the first concrete port the program outputs to or
	// crosses in the switch the frame entered (0 = none/reserved-only) —
	// the telemetry plane's egressInterface, resolved once at record time.
	outPort uint32

	// perFrame marks a program a run must replay one frame at a time:
	// it makes a per-packet decision (replaysPerFrame). Set when
	// flowCache.install publishes the entry.
	perFrame bool

	// uncacheable marks recorder state that must not be installed: the
	// walk ended in a table miss (a later flow-add must see the key
	// again) or in a per-packet drop mid-walk (the rest of the program
	// was never observed).
	uncacheable bool
}

// recorder is what a cache-feeding walk fills in: the entry to publish,
// and the union of the ConsultMask of every table the walk traversed —
// the bits that could have influenced the decision. The entry is stored
// under the packet key projected through that mask, in the mask's class,
// which keeps the mask: a published entry carries none.
type recorder struct {
	CacheEntry
	mask pkt.FlatKey
	seg  int // index in ops where the current switch's part starts
}

// follow is called where the current switch's part of a recording walk
// ends by outputting the frame to patch port p, hops crossings into the
// dispatch. Either the walk goes on into the peer — the crossing replaces
// the output, key gets the peer's packed key (parsed on this miss path
// only) and both ports count the frame — or it hands the frame to p, as
// an unrecorded walk would: after another output, into a peer on another
// clock or with telemetry, or at maxPatchHops. The entry's mask is the
// union of the consult masks (DESIGN.md, "Following a patch port"): a tag
// a pop uncovers is the one bit that misses, so a crossing after a pop is
// guarded (op.untagged), and a frame still tagged there is not cached.
func (rec *recorder) follow(sw *Switch, p *swPort, frame []byte, key *pkt.FlatKey, hops int) bool {
	if hops >= maxPatchHops || p.peer.clock != sw.clock || p.peer.telemetry.Load() != nil {
		return false
	}
	last := &rec.ops[len(rec.ops)-1] // the action list that outputs to p
	popped := false
	for i := rec.seg; i < len(rec.ops); i++ {
		acts := rec.ops[i].acts
		if &rec.ops[i] == last {
			acts = acts[:len(acts)-1]
		}
		for _, a := range acts {
			switch a.(type) {
			case *openflow.ActionOutput:
				return false
			case *openflow.ActionPopVLAN:
				popped = true
			case *openflow.ActionPushVLAN:
				popped = false
			}
		}
	}
	if popped && pkt.HasVLAN(frame) {
		rec.uncacheable = true
		return false
	}
	if pkt.ExtractFlat(frame, p.peerPort, key) != nil {
		return false
	}
	if last.acts = last.acts[:len(last.acts)-1]; len(last.acts) == 0 {
		rec.ops = rec.ops[:len(rec.ops)-1]
	}
	rec.ops = append(rec.ops, microOp{kind: opCross, port: p, untagged: popped})
	rec.seg = len(rec.ops)
	p.crossed(1, uint64(len(frame)))
	return true
}

// reset returns the recorder to a reusable zero state, dropping every
// reference it holds — dispatch state is pooled and must not pin tables
// or flow entries — but keeping the deps/ops slice capacity, so
// steady-state recording allocates nothing.
func (rec *recorder) reset() {
	clear(rec.deps)
	clear(rec.ops)
	*rec = recorder{CacheEntry: CacheEntry{deps: rec.deps[:0], ops: rec.ops[:0]}}
}

// valid reports whether every recorded revision still matches the live
// tables, i.e. replaying cannot disagree with a walk. Groups need none:
// replay looks each one up live (applyGroup).
func (mf *CacheEntry) valid() bool {
	for i := range mf.deps {
		if mf.deps[i].table.Version() != mf.deps[i].rev {
			return false
		}
	}
	return true
}

// resolveOutPort sets outPort: the first concrete port the program outputs
// to or crosses (reserved ports stay 0, "no single egress").
func (mf *CacheEntry) resolveOutPort() {
	for i := range mf.ops {
		if mf.ops[i].kind == opCross {
			mf.outPort = mf.ops[i].port.no
			return
		}
		for _, a := range mf.ops[i].acts {
			if out, ok := a.(*openflow.ActionOutput); ok && out.Port < openflow.PortMax {
				mf.outPort = out.Port
				return
			}
		}
	}
}

// replaysPerFrame reports whether the program decides per packet: a
// meter, a group (SELECT hashing), an output to a reserved port, or an
// output that is not the program's last action (one of several). Credits,
// rewrites and one final output do the same to every frame of a run.
func (mf *CacheEntry) replaysPerFrame() bool {
	for i := range mf.ops {
		if mf.ops[i].kind == opMeter {
			return true
		}
		acts := mf.ops[i].acts
		for j, a := range acts {
			switch a := a.(type) {
			case *openflow.ActionGroup:
				return true
			case *openflow.ActionOutput:
				if a.Port >= openflow.PortMax || i < len(mf.ops)-1 || j < len(acts)-1 {
					return true
				}
			}
		}
	}
	return false
}

// asksOnMiss reports whether the program sends the frame to the
// controller from a table-miss entry (priority 0). Such a program is not
// cached, like the table miss it stands for: the FLOW_MOD the controller
// answers with makes it stale before it pays for its install.
func (mf *CacheEntry) asksOnMiss() bool {
	for i := range mf.ops {
		if op := &mf.ops[i]; op.kind == opApply && op.entry != nil && op.entry.Priority == 0 {
			for _, a := range op.acts {
				if out, ok := a.(*openflow.ActionOutput); ok && out.Port == openflow.PortController {
					return true
				}
			}
		}
	}
	return false
}

// maskClass is one mask-equivalence class: a map from packed keys
// projected through words to their programs, under one lock (tuple-space
// style, the cache's analogue of the flow tables' tuples). It is the only
// owner of an entry: those it unpublishes (replaced, evicted, stale,
// swept) are the garbage collector's.
type maskClass struct {
	words pkt.FlatKey // the class's mask and its identity: projecting a packed key is six ANDs
	mu    sync.RWMutex
	flows map[pkt.FlatKey]*CacheEntry
}

// get returns class g's still-valid entry for the projected key k,
// counting the hit, or nil. A stale entry is removed and counted as an
// invalidation on the way out. Misses are the caller's to count: a
// packet misses once, not once per class.
func (c *flowCache) get(g *maskClass, k *pkt.FlatKey) *CacheEntry {
	g.mu.RLock()
	mf := g.flows[*k]
	g.mu.RUnlock()
	if mf == nil {
		return nil
	}
	if mf.valid() {
		c.stats.Hits.Inc()
		return mf
	}
	g.mu.Lock()
	// Only remove the exact entry we saw: a racing walk may have
	// installed a fresher replacement already.
	if g.flows[*k] == mf {
		delete(g.flows, *k)
	}
	g.mu.Unlock()
	c.stats.Invalidations.Inc()
	return nil
}

// put publishes a recorded entry in class g, evicting an arbitrary entry
// of the class when it holds c.size (map iteration order gives a cheap
// pseudo-random victim, which is how the OVS exact-match cache handles
// thrash: constant-time displacement, no LRU tracking).
func (c *flowCache) put(g *maskClass, k *pkt.FlatKey, mf *CacheEntry) {
	evicted := false
	g.mu.Lock()
	if g.flows[*k] == nil && len(g.flows) >= c.size {
		for vk := range g.flows {
			delete(g.flows, vk)
			evicted = true
			break
		}
	}
	g.flows[*k] = mf
	g.mu.Unlock()
	if evicted {
		c.stats.Evictions.Inc()
	}
	c.stats.Inserts.Inc()
}

// prune unpublishes class g's entries whose recorded revisions went
// stale, so a quiet cache does not hold dead table references. It returns
// the number removed, counted as invalidations.
func (c *flowCache) prune(g *maskClass) int {
	n := 0
	g.mu.Lock()
	for k, mf := range g.flows {
		if !mf.valid() {
			delete(g.flows, k)
			n++
		}
	}
	g.mu.Unlock()
	if n > 0 {
		c.stats.Invalidations.Add(uint64(n))
	}
	return n
}

// len returns the number of published entries (diagnostics only).
func (g *maskClass) len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.flows)
}
