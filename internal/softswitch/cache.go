package softswitch

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// The flow cache: an OVS-megaflow-style fast path in front of the full
// pipeline walk. The first packet of a flow traverses the tables
// normally while a recorder captures the resulting program — the flat
// sequence of datapath operations the walk performed (meter checks,
// apply-actions lists, the final ordered action set), the table
// entries to credit for counters and idle timeouts, and the union of
// every consulted table's ConsultMask. The program is installed under
// the packet's packed key (pkt.FlatKey) PROJECTED through that mask, so
// one entry serves every flow that agrees on the bits consulted — the
// very masks the tables' classifier files its rules under, bit for bit.
//
// Subsequent packets replay the program directly, skipping
// re-classification against every table. This file holds the cached
// program and the sharded store each mask class is; the class list
// and admission (adaptive bypass) are in flowcache.go.
//
// Correctness rests on revision validation, not on synchronous
// invalidation: each entry records the revision (Table.Version) of
// every table it consulted — read *before* the lookup, so a racing
// flow-mod can only make the recording stale, never silently valid —
// and the group-table revision when the program executes a group.
// A hit first revalidates all recorded revisions; any mismatch
// discards the entry and takes the slow path, so a flow-mod, expiry,
// or group-mod is visible to the very next packet.
//
// Per-packet state (meters, group bucket selection, TTL checks,
// packet-in delivery) is deliberately kept out of the cached decision:
// the program stores the *operations*, which are re-executed per
// packet, so meters still shed load, SELECT groups still hash, and a
// cached TTL-decrement still drops expiring packets. A burst's run of
// frames on one entry is replayed as one vector (Switch.replay): credits
// once, rewrites frame by frame, one append to the output port — unless
// the program makes a per-packet decision (perFrame), which the run then
// takes one frame at a time.

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
)

// microOp is one replayable datapath operation. Credits are recorded
// in-stream at the position the walk matched the entry, so a replay
// that stops early (meter drop, TTL expiry) credits exactly the
// tables the equivalent walk would have consulted, with the frame
// size the walk would have seen at that point.
type microOp struct {
	kind    opKind
	meterID uint32           // opMeter
	table   *flowtable.Table // opCredit
	acts    []openflow.Action
	tableID uint8
	entry   *flowtable.Entry // opCredit: entry to credit; opApply: packet-in context (nil for the action set)
}

// CacheEntry is one cached flow program: the dependency set to
// revalidate and the operation sequence to replay. The pipeline walk
// fills one in inside the recorder of its txContext, and
// flowCache.install publishes a copy. A published entry is immutable, so
// nothing has to keep a store from unmapping one that a dispatch is
// still replaying.
type CacheEntry struct {
	deps     []tableDep
	ops      []microOp
	groups   *flowtable.GroupTable // non-nil when the program executes a group
	groupRev uint64

	// outPort is the first concrete egress port the recorded program
	// outputs to (0 = none/reserved-only) — the telemetry plane's
	// egressInterface, resolved once at record time so cache hits
	// never re-scan the program.
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
// tables (and group table), i.e. replaying cannot disagree with a walk.
func (mf *CacheEntry) valid() bool {
	for i := range mf.deps {
		if mf.deps[i].table.Version() != mf.deps[i].rev {
			return false
		}
	}
	if mf.groups != nil && mf.groups.Version() != mf.groupRev {
		return false
	}
	return true
}

// resolveOutPort scans the recorded program for the first OUTPUT to a
// concrete datapath port and remembers it as the flow's egress
// interface for telemetry. Reserved ports (controller, flood, ...)
// stay 0: the telemetry record then reports "no single egress".
func (mf *CacheEntry) resolveOutPort() {
	for i := range mf.ops {
		for _, a := range mf.ops[i].acts {
			if out, ok := a.(*openflow.ActionOutput); ok && out.Port < openflow.PortMax {
				mf.outPort = out.Port
				return
			}
		}
	}
}

// replaysPerFrame reports whether the program makes a per-packet
// decision: a meter, a group (SELECT hashing), an output to a reserved
// port (CONTROLLER, FLOOD/ALL, IN_PORT, TABLE), or more than one output
// — any output but the program's last action is one of several, or
// copies the frame and goes on. Anything else — credits, frame-local
// rewrites, one final output to a datapath port — does the same to
// every frame of a run.
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

// usesGroups reports whether any recorded action executes a group.
// Group contents are resolved live at replay time (applyGroup looks
// the group up per packet), so the revision dependency this feeds is
// defense-in-depth rather than load-bearing: it additionally forces a
// fresh walk after any group-mod, at the cost of re-recording the
// affected entries.
func (mf *CacheEntry) usesGroups() bool {
	for i := range mf.ops {
		for _, a := range mf.ops[i].acts {
			if _, ok := a.(*openflow.ActionGroup); ok {
				return true
			}
		}
	}
	return false
}

// flowStore is the sharded key -> program map, and the only owner of
// one: each mask class (flowcache.go) is a flowStore keyed by the
// projected packed key. Entries it unpublishes — replaced, evicted, stale,
// swept — are the garbage collector's.
type flowStore struct {
	shards [cacheShards]struct {
		mu    sync.RWMutex
		flows map[pkt.FlatKey]*CacheEntry
	}
	cap   int                  // per-shard entry cap
	stats *stats.CacheCounters // the cache's counters
}

// init sizes the store for totalCap entries.
func (st *flowStore) init(totalCap int, counters *stats.CacheCounters) {
	st.cap = max(totalCap/cacheShards, 1)
	st.stats = counters
	for i := range st.shards {
		st.shards[i].flows = make(map[pkt.FlatKey]*CacheEntry)
	}
}

// lookup returns the still-valid entry for the key (hash is k.Sum()),
// counting the hit, or nil. A stale entry is removed and counted as an
// invalidation on the way out. Misses are the caller's to count: a
// packet misses once, not once per class.
func (st *flowStore) lookup(k *pkt.FlatKey, hash uint64) *CacheEntry {
	sh := &st.shards[shardOf(hash)]
	sh.mu.RLock()
	mf := sh.flows[*k]
	sh.mu.RUnlock()
	if mf == nil {
		return nil
	}
	if mf.valid() {
		st.stats.Hits.Inc()
		return mf
	}
	sh.mu.Lock()
	// Only remove the exact entry we saw: a racing walk may have
	// installed a fresher replacement already.
	if sh.flows[*k] == mf {
		delete(sh.flows, *k)
	}
	sh.mu.Unlock()
	st.stats.Invalidations.Inc()
	return nil
}

// probeBatch fills out[i] with the valid entry of each frame on sc's
// per-shard chains (and touches no other frame: an earlier class's hit
// stays as it is), taking each shard's read lock ONCE and probing all of
// its keys under it — the per-batch amortization of the per-frame lock
// in lookup. Hits are the caller's to count; stale entries are left nil
// (no removal) for the per-frame path.
func (st *flowStore) probeBatch(keys []pkt.FlatKey, out []*CacheEntry, sc *probeScratch) {
	for si := range st.shards {
		head := sc.heads[si]
		if head < 0 {
			continue
		}
		sh := &st.shards[si]
		sh.mu.RLock()
		for i := head; i >= 0; i = sc.next[i] {
			out[i] = sh.flows[keys[i]]
		}
		sh.mu.RUnlock()
		for i := head; i >= 0; i = sc.next[i] {
			if out[i] != nil && !out[i].valid() {
				out[i] = nil
			}
		}
	}
}

// put publishes a recorded entry, evicting an arbitrary entry of the
// same shard when the shard is at capacity (map iteration order gives a
// cheap pseudo-random victim, which is how the OVS exact-match cache
// handles thrash: constant-time displacement, no LRU tracking).
func (st *flowStore) put(k *pkt.FlatKey, hash uint64, mf *CacheEntry) {
	sh := &st.shards[shardOf(hash)]
	evicted := false
	sh.mu.Lock()
	if sh.flows[*k] == nil && len(sh.flows) >= st.cap {
		for vk := range sh.flows {
			delete(sh.flows, vk)
			evicted = true
			break
		}
	}
	sh.flows[*k] = mf
	sh.mu.Unlock()
	if evicted {
		st.stats.Evictions.Inc()
	}
	st.stats.Inserts.Inc()
}

// prune unpublishes the entries whose recorded revisions went stale, so
// a quiet cache does not hold dead table references. It returns the
// number removed, counted as invalidations.
func (st *flowStore) prune() int {
	n := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for k, mf := range sh.flows {
			if !mf.valid() {
				delete(sh.flows, k)
				n++
			}
		}
		sh.mu.Unlock()
	}
	if n > 0 {
		st.stats.Invalidations.Add(uint64(n))
	}
	return n
}

// len returns the number of published entries (diagnostics only).
func (st *flowStore) len() int {
	n := 0
	for i := range st.shards {
		st.shards[i].mu.RLock()
		n += len(st.shards[i].flows)
		st.shards[i].mu.RUnlock()
	}
	return n
}
