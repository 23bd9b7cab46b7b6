package softswitch

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// The datapath flow cache: one flowStore per mask class, keyed by the
// packed key projected through the class's mask, and what the classes
// share — admission (adaptive bypass) and the counters. An entry serves
// every flow that agrees on the consulted bits: no table the walk
// traversed could tell two such flows apart (Table.ConsultMask per
// table, induction over the goto chain for the walk).

const (
	// cacheShards is the number of independently locked shards a
	// flowStore divides its map into — also the granularity of the
	// adaptive-bypass hit-rate tracking. A power of two (shard
	// selection is a mask) that fits a uint8 with room for shardSkip (the
	// batch probe keeps each frame's bypass shard in one).
	cacheShards = 32

	// DefaultFlowCacheSize is the default capacity of each mask class,
	// in cache entries.
	DefaultFlowCacheSize = 1 << 15

	// maxMaskClasses bounds the class list: each class adds a
	// projection+hash+probe to the miss path, so a ruleset that keeps
	// more masks than this in use falls back to declining installs rather
	// than degrading every lookup. Classes a flow-mod left with nothing
	// but stale entries do not count (flowCache.compact).
	maxMaskClasses = 16
)

// shardOf maps a key hash to its shard (store shard and bypass shard
// alike).
func shardOf(hash uint64) uint32 { return uint32(hash) & (cacheShards - 1) }

// maskClass is one mask-equivalence class: an exact-match store over
// keys projected through words (tuple-space style, the cache's analogue
// of the flow tables' tuples).
type maskClass struct {
	words pkt.FlatKey // the class's mask and its identity: projecting a packed key is six ANDs
	store flowStore
}

// probeScratch is the state of one batch probe, one slot per frame
// (pooled with the dispatch state, so batch probes allocate nothing).
type probeScratch struct {
	// flat[i] is frame i's key packed, written once per frame per switch
	// by the dispatch: the cache and every table's classifier read it.
	flat []pkt.FlatKey
	// shard[i] is shardOf(flat[i].Sum()) — the frame's bypass shard —
	// with shardSkip set on a frame the probe leaves alone (unparsable,
	// or of a shard in bypass).
	shard []uint8
	// proj[i] is flat[i] projected through the current class's mask,
	// valid for the frames the class probes.
	proj []pkt.FlatKey
	// heads/next chain frame indices per store shard of the projected
	// key: heads[s] is the first frame of shard s (-1 = none), next[i]
	// the following one. A frame that projects like the last frame
	// chained is not chained: its next[i] names that frame (sameAs),
	// whose probe answers for both. Rebuilt for every class.
	heads [cacheShards]int32
	next  []int32

	wins shardWins
}

// shardSkip marks a frame the batch probe does not look up.
const shardSkip = 0x80

// sameAs encodes in a next slot that the frame shares frame j's probe:
// chain links are >= -1, anything below is one of these. Its own inverse.
func sameAs(j int32) int32 { return -2 - j }

// shardWins accumulates one batch's lookups and hits per bypass shard,
// so each touched shard's window is fed with one atomic add. The counts
// are kept apart: a batch is as long as its caller makes it, and neither
// may carry into the other.
type shardWins [cacheShards]struct{ lookups, hits uint32 }

func (w *shardWins) add(shard uint8, hit bool) {
	w[shard].lookups++
	if hit {
		w[shard].hits++
	}
}

// take returns and clears the counts of one shard.
func (w *shardWins) take(shard int) (lookups, hits uint32) {
	lookups, hits = w[shard].lookups, w[shard].hits
	w[shard].lookups, w[shard].hits = 0, 0
	return lookups, hits
}

// Adaptive bypass (DESIGN.md): a shard whose hit rate collapses stops
// consulting and feeding the cache, and re-admits a probation window of
// packets now and then. Probation is rare on purpose: what its windows
// install outlives them, and on a thrashing workload that trickle keeps
// a few shards active at a hit rate that is a net tax (the repo
// benchmark's ACL-miss workload: 3.7 Mframes/s with every shard
// bypassed, 2.7 with a quarter of them active at 75% hits). The shard
// is picked by the hash of the full key: flows, not entries, say whether
// probing pays. The counters are racy by design; a lost sample only
// defers a window roll.
const (
	bypassWindow    = 256   // lookups per ACTIVE evaluation window
	bypassProbeSpan = 64    // lookups per PROBE window
	bypassLowStreak = 2     // low windows in a row before bypassing
	bypassRetry     = 65536 // skipped packets between probation windows
	bypassEnterDen  = 16    // enter when hits < lookups/16 (6.25%)
	bypassExitDen   = 8     // exit when hits >= lookups/8 (12.5%)
)

// bypassShard mode values.
const (
	modeActive uint32 = iota
	modeBypass
	modeProbe
)

// bypassShard is the admission state of one cache shard.
type bypassShard struct {
	win     atomic.Uint64 // hits<<32 | lookups of the current window
	mode    atomic.Uint32
	low     atomic.Uint32 // consecutive low ACTIVE windows
	skipped atomic.Uint32 // packets skipped since the last probe
}

// admit reports whether the cache should be consulted (and fed) for a
// packet of this shard.
func (b *bypassShard) admit() bool {
	if b.mode.Load() != modeBypass {
		return true
	}
	if b.skipped.Add(1) >= bypassRetry {
		b.skipped.Store(0)
		b.win.Store(0)
		b.mode.Store(modeProbe)
		return true
	}
	return false
}

// note feeds lookups/hits into the current window and rolls it when
// full.
func (b *bypassShard) note(lookups, hits uint32) {
	w := b.win.Add(uint64(hits)<<32 | uint64(lookups))
	span := uint32(bypassWindow)
	if b.mode.Load() == modeProbe {
		span = bypassProbeSpan
	}
	if uint32(w) >= span {
		b.roll(uint32(w>>32), uint32(w))
	}
}

// roll evaluates one full window and advances the state machine.
func (b *bypassShard) roll(hits, lookups uint32) {
	b.win.Store(0)
	switch b.mode.Load() {
	case modeActive:
		if hits*bypassEnterDen < lookups {
			if b.low.Add(1) >= bypassLowStreak {
				b.low.Store(0)
				b.skipped.Store(0)
				b.mode.Store(modeBypass)
			}
		} else {
			b.low.Store(0)
		}
	case modeProbe:
		if hits*bypassExitDen >= lookups {
			b.low.Store(0)
			b.mode.Store(modeActive)
		} else {
			b.skipped.Store(0)
			b.mode.Store(modeBypass)
		}
	}
}

// flowCache is the flow cache described at the top of this file: the
// mask classes and what they share.
type flowCache struct {
	classes atomic.Pointer[[]*maskClass] // RCU: replaced, never written in place, under classMu
	classMu sync.Mutex                   // serializes class creation and compaction
	size    int                          // capacity of each class

	// tablesChanged is set by every flow-table change here or in a switch
	// the entries may follow a patch port into (Switch.tablesChanged). A
	// table whose consult mask widens strands the classes recorded under
	// the old one, all stale; only such a change can, so a full class list
	// is compacted at most once per change.
	tablesChanged atomic.Bool

	bypassOn bool // always true outside tests
	bypass   [cacheShards]bypassShard

	// stats is shared by every class store (hits, inserts,
	// invalidations, evictions); misses and bypassed packets are counted
	// here, once per packet however many classes were probed.
	stats stats.CacheCounters
}

func newFlowCache(totalCap int) *flowCache {
	c := &flowCache{size: totalCap, bypassOn: true}
	c.classes.Store(new([]*maskClass))
	return c
}

// lookup probes the mask classes for one frame, in insertion order, and
// takes the first valid hit — when two classes hold valid entries for
// the same packet, both were recorded against identical table
// revisions, so their programs are interchangeable. Stale entries met on
// the way are removed. f is the frame's packed key and shard its bypass
// shard, shardOf(f.Sum()). record is false when the shard is bypassed —
// the caller must walk uncached and must not install.
func (c *flowCache) lookup(f *pkt.FlatKey, shard uint32) (e *CacheEntry, record bool) {
	b := &c.bypass[shard]
	if c.bypassOn && !b.admit() {
		c.stats.Bypassed.Inc()
		return nil, false
	}
	var hits uint32
	for _, g := range *c.classes.Load() {
		p := f.And(&g.words)
		if e = g.store.lookup(&p, p.Sum()); e != nil {
			hits = 1
			break
		}
	}
	if e == nil {
		c.stats.Misses.Inc()
	}
	if c.bypassOn {
		b.note(1, hits)
	}
	return e, true
}

// probeBatch probes a whole batch, class by class. It takes every
// frame's bypass shard from the hash of its packed key (sc.flat, which
// the dispatch filled); then, per class, the keys still unresolved are
// projected through the class's mask and chained by the projected key's
// store shard, so each shard read-lock is taken once per class per
// batch (flowStore.probeBatch). A frame that projects like the last frame
// chained — the next frame of a run, of one flow or of several the class
// cannot tell apart — is not chained: it takes that frame's entry and
// counts as a hit, for a six-word XOR in place of a hash, a lock and a
// map probe. The entry was validated by this very probe and nothing of
// the run is kept after it, so there is nothing to invalidate. Such a
// frame is resolved where the next pass over the batch meets it — the
// next class's chaining, or the closing pass that counts the hits and
// feeds the bypass windows — rather than in a pass of its own.
//
// out[i] is filled for every frame with skip[i] false and a bypass shard
// not in bypass. Only hits are accounted and only valid entries
// returned: misses and stale entries stay nil for classifyAndRun, which
// does the exact accounting (and can legitimately hit an entry an
// earlier frame of the same batch installed). Frames of bypassed shards
// are likewise left nil without accounting: classifyAndRun's per-frame
// admit does the bypass/probation bookkeeping exactly once.
func (c *flowCache) probeBatch(skip []bool, out []*CacheEntry, sc *probeScratch) {
	for i := range out {
		out[i] = nil
		if skip[i] {
			sc.shard[i] = shardSkip
			continue
		}
		sh := uint8(shardOf(sc.flat[i].Sum()))
		if c.bypassOn && c.bypass[sh].mode.Load() == modeBypass {
			sh |= shardSkip
		}
		sc.shard[i] = sh
	}
	// shared is whether the last class probed left sameAs marks to resolve.
	shared := false
	for _, g := range *c.classes.Load() {
		for i := range sc.heads {
			sc.heads[i] = -1
		}
		last, marked := int32(-1), false
		for i := int32(len(out)) - 1; i >= 0; i-- {
			if sc.shard[i]&shardSkip != 0 || out[i] != nil {
				continue
			}
			if shared && sc.next[i] < -1 {
				if out[i] = out[sameAs(sc.next[i])]; out[i] != nil {
					continue
				}
			}
			p := &sc.proj[i]
			p.SetAnd(&sc.flat[i], &g.words)
			if last >= 0 && p.Equal(&sc.proj[last]) {
				sc.next[i], marked = sameAs(last), true
				continue
			}
			sh := shardOf(p.Sum())
			sc.next[i] = sc.heads[sh]
			sc.heads[sh] = i
			last = i
		}
		g.store.probeBatch(sc.proj, out, sc)
		shared = marked
	}
	// Resolve the last class's marks, count the hits, and feed the
	// per-shard windows with one atomic add per touched shard. Frames the
	// batch probe missed are probed again per frame on the slow path and
	// counted there too; that skews bypassed-rate tracking toward the miss
	// side, which only makes bypass engage marginally sooner under thrash —
	// acceptable for a heuristic.
	var hits uint64
	for i := range out {
		sh := sc.shard[i]
		if sh&shardSkip != 0 {
			continue
		}
		if out[i] == nil && shared && sc.next[i] < -1 {
			out[i] = out[sameAs(sc.next[i])]
		}
		hit := out[i] != nil
		if hit {
			hits++
		}
		if c.bypassOn {
			sc.wins.add(sh, hit)
		}
	}
	c.stats.Hits.Add(hits)
	for sh := range sc.wins {
		if lookups, hits := sc.wins.take(sh); lookups != 0 {
			c.bypass[sh].note(lookups, hits)
		}
	}
}

// class returns the store of a mask class, creating it on first use
// (nil when the class list is full of classes that still hold valid
// entries).
func (c *flowCache) class(mask *pkt.FlatKey) *maskClass {
	for _, g := range *c.classes.Load() {
		if g.words == *mask {
			return g
		}
	}
	c.classMu.Lock()
	defer c.classMu.Unlock()
	cur := *c.classes.Load()
	for _, g := range cur {
		if g.words == *mask {
			return g
		}
	}
	if len(cur) >= maxMaskClasses && c.tablesChanged.Swap(false) {
		c.compact()
		cur = *c.classes.Load()
	}
	if len(cur) >= maxMaskClasses {
		return nil
	}
	g := &maskClass{words: *mask}
	g.store.init(c.size, &c.stats)
	next := append(slices.Clip(cur), g) // clipped: append copies, readers keep cur
	c.classes.Store(&next)
	return g
}

// install publishes a right-sized copy of the recording rec under the
// frame's packed key, projected, in its mask class; rec stays the
// dispatch's to reuse. Whether a run replays the entry frame by frame
// (CacheEntry.perFrame) is decided here, once. The copy and its two
// arrays are all the cache allocates per flow; the garbage collector
// owns them once a store unmaps the entry. A full class list declines
// the recording: nothing is allocated and no insert is counted.
func (c *flowCache) install(f *pkt.FlatKey, rec *recorder) {
	g := c.class(&rec.mask)
	if g == nil {
		return
	}
	e := new(CacheEntry)
	*e = rec.CacheEntry
	e.deps, e.ops = slices.Clone(rec.deps), slices.Clone(rec.ops)
	e.perFrame = e.replaysPerFrame()
	p := f.And(&g.words)
	g.store.put(&p, p.Sum(), e)
}

// sweep unpublishes the revision-stale entries of every class and drops
// the classes that leaves empty.
func (c *flowCache) sweep() int {
	c.classMu.Lock()
	defer c.classMu.Unlock()
	return c.compact()
}

// compact is sweep with classMu held. A dispatch that is still probing
// the old list probes an empty store; an install that found its class
// just before it was dropped publishes where nobody looks, and the next
// walk of that flow records again.
func (c *flowCache) compact() int {
	cur := *c.classes.Load()
	live := make([]*maskClass, 0, len(cur))
	n := 0
	for _, g := range cur {
		n += g.store.prune()
		if g.store.len() > 0 {
			live = append(live, g)
		}
	}
	if len(live) < len(cur) {
		c.classes.Store(&live)
	}
	return n
}

// len returns the published entries of all classes (diagnostics).
func (c *flowCache) len() int {
	n := 0
	for _, g := range *c.classes.Load() {
		n += g.store.len()
	}
	return n
}
