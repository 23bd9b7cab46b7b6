package softswitch

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// The datapath flow cache: one map per mask class (cache.go), keyed by
// the packed key projected through the class's mask, and what the
// classes share — admission (adaptive bypass) and the counters. An entry
// serves every flow that agrees on the consulted bits: no table the walk
// traversed could tell two such flows apart (Table.ConsultMask per
// table, induction over the goto chain for the walk).
//
// Admission is one state for the whole cache (bypassState), as the Open
// vSwitch EMC keeps one insertion policy per cache: a cache that stops
// paying is bypassed as a whole. States per hash shard of the key cost
// every probed frame a Sum() and every batch a drain of the shard
// windows, and bought nothing on the workload the bypass exists for: the
// repo benchmark's acl_miss_64B read fwd 4.45 → 4.69 Mframes/s, p50 442
// → 424 ns and p99 761 → 726 ns going from 32 states to one (medians of
// ten alternating pairs, seed 7, 2-core Xeon VM).

const (
	// DefaultFlowCacheSize is the default capacity of each mask class,
	// in cache entries.
	DefaultFlowCacheSize = 1 << 15

	// maxMaskClasses bounds the class list: each class adds a
	// projection+probe to the miss path, so a ruleset that keeps more
	// masks than this in use falls back to declining installs rather
	// than degrading every lookup. Classes a flow-mod left with nothing
	// but stale entries do not count (flowCache.compact).
	maxMaskClasses = 16
)

// Adaptive bypass (DESIGN.md): when the hit rate collapses the cache
// stops being consulted and fed, and re-admits a probation window of
// lookups now and then. Probation is rare on purpose: what its windows
// install outlives them, and on a thrashing workload that trickle keeps
// the cache active at a hit rate that is a net tax (the repo benchmark's
// acl_miss_64B). The cache trips after 2 windows of 8192 lookups and
// then gets 2048 probation lookups every 2^21 skipped packets: the
// thresholds 32 per-shard states of 256, 64 and 65536 reached together,
// so the probation share acl_miss_64B's slow-path share and p99 were
// tuned around (64 in 65536) holds. A cold start and an invalidation
// storm need the wide window too: frame by frame each misses once per
// flow, and a 256-lookup window for the whole cache trips it after the
// first 512 misses. The counters are racy by design; a lost sample only
// defers a window roll.
const (
	bypassWindow    = 8192    // lookups per ACTIVE evaluation window
	bypassProbeSpan = 2048    // lookups per PROBE window
	bypassLowStreak = 2       // low windows in a row before bypassing
	bypassRetry     = 1 << 21 // skipped packets between probation windows
	bypassEnterDen  = 16      // enter when hits < lookups/16 (6.25%)
	bypassExitDen   = 8       // exit when hits >= lookups/8 (12.5%)
)

// bypassState mode values.
const (
	modeActive uint32 = iota
	modeBypass
	modeProbe
)

// bypassState is the cache's admission state.
type bypassState struct {
	win     atomic.Uint64 // hits<<32 | lookups of the current window
	mode    atomic.Uint32
	low     atomic.Uint32 // consecutive low ACTIVE windows
	skipped atomic.Uint32 // packets skipped since the last probe
}

// admit reports whether the cache should be consulted (and fed) for a
// packet.
func (b *bypassState) admit() bool {
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
func (b *bypassState) note(lookups, hits uint32) {
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
func (b *bypassState) roll(hits, lookups uint32) {
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
	bypass   bypassState

	// stats counts for every class (hits, inserts, invalidations,
	// evictions); misses and bypassed packets are counted once per packet
	// however many classes were probed.
	stats stats.CacheCounters
}

func newFlowCache(size int) *flowCache {
	c := &flowCache{size: size, bypassOn: true}
	c.classes.Store(new([]*maskClass))
	return c
}

// lookup probes the mask classes for one frame, in insertion order, and
// takes the first valid hit — when two classes hold valid entries for
// the same packet, both were recorded against identical table
// revisions, so their programs are interchangeable. Stale entries met on
// the way are removed. f is the frame's packed key. record is false when
// the cache is bypassed — the caller must walk uncached and must not
// install.
func (c *flowCache) lookup(f *pkt.FlatKey) (e *CacheEntry, record bool) {
	if c.bypassOn && !c.bypass.admit() {
		c.stats.Bypassed.Inc()
		return nil, false
	}
	var hits uint32
	for _, g := range *c.classes.Load() {
		p := f.And(&g.words)
		if e = c.get(g, &p); e != nil {
			hits = 1
			break
		}
	}
	if e == nil {
		c.stats.Misses.Inc()
	}
	if c.bypassOn {
		c.bypass.note(1, hits)
	}
	return e, true
}

// probeBatch probes a whole batch, class by class, unless the cache is
// bypassed: the mode is read once per batch and the window fed once.
// (A shard picked per frame and 32 shard windows drained per batch put
// probeBatch at 17.0% of BenchmarkE2_ChainBurst/chain's CPU samples;
// without them it is 11.8%, one profile of 6M frames each, 2-core Xeon
// VM.) Per class, it takes the class's read lock once and probes the
// frames still unresolved, in order, with their packed keys (flat, which
// the dispatch filled) projected through the class's mask. A frame that projects like the
// previous frame probed — the next frame of a run, of one flow or of
// several the class cannot tell apart — takes that frame's answer, for a
// six-word compare in place of a map probe. The entries found are
// validated once the lock is released, a run's once.
//
// out[i] is filled for every frame with skip[i] false. Only hits are
// accounted and only valid entries returned: misses and stale entries
// stay nil for classifyAndRun, which does the exact accounting (and can
// legitimately hit an entry an earlier frame of the same batch
// installed). In bypass every frame is left nil without accounting:
// classifyAndRun's per-frame admit does the bypass/probation bookkeeping
// exactly once.
func (c *flowCache) probeBatch(skip []bool, out []*CacheEntry, flat []pkt.FlatKey) {
	clear(out)
	if c.bypassOn && c.bypass.mode.Load() == modeBypass {
		return
	}
	lookups := 0
	for _, s := range skip {
		if !s {
			lookups++
		}
	}
	left := lookups // frames still unresolved
	for _, g := range *c.classes.Load() {
		if left == 0 {
			break
		}
		var p, prev pkt.FlatKey
		last := -1
		left = 0
		g.mu.RLock()
		for i := range out {
			if skip[i] || out[i] != nil {
				continue
			}
			if p.SetAnd(&flat[i], &g.words); last >= 0 && p.Equal(&prev) {
				out[i] = out[last]
			} else {
				out[i], prev, last = g.flows[p], p, i
			}
			if out[i] == nil {
				left++
			}
		}
		g.mu.RUnlock()
		var ok *CacheEntry // the last entry found valid
		for i, e := range out {
			if e != nil && e != ok {
				if e.valid() {
					ok = e
				} else {
					out[i] = nil
					left++
				}
			}
		}
	}
	// Count the hits and feed the window with one atomic add. Frames the
	// batch probe missed are probed again per frame on the slow path and
	// counted there too, so a burst's misses count twice: under thrash
	// bypass engages after half as many frames, and a probation window
	// lasts half as many.
	hits := lookups - left
	c.stats.Hits.Add(uint64(hits))
	if c.bypassOn {
		c.bypass.note(uint32(lookups), uint32(hits))
	}
}

// class returns a mask class, creating it on first use (nil when the
// class list is full of classes that still hold valid entries).
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
	g := &maskClass{words: *mask, flows: make(map[pkt.FlatKey]*CacheEntry)}
	next := append(slices.Clip(cur), g) // clipped: append copies, readers keep cur
	c.classes.Store(&next)
	return g
}

// install publishes a right-sized copy of the recording rec under the
// frame's packed key, projected, in its mask class; rec stays the
// dispatch's to reuse. Whether a run replays the entry frame by frame
// (CacheEntry.perFrame) is decided here, once. The copy and its two
// arrays are all the cache allocates per flow; the garbage collector
// owns them once a class unmaps the entry. A full class list declines
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
	c.put(g, &p, e)
}

// sweep unpublishes the revision-stale entries of every class and drops
// the classes that leaves empty.
func (c *flowCache) sweep() int {
	c.classMu.Lock()
	defer c.classMu.Unlock()
	return c.compact()
}

// compact is sweep with classMu held. A dispatch that is still probing
// the old list probes an empty class; an install that found its class
// just before it was dropped publishes where nobody looks, and the next
// walk of that flow records again.
func (c *flowCache) compact() int {
	cur := *c.classes.Load()
	live := make([]*maskClass, 0, len(cur))
	n := 0
	for _, g := range cur {
		n += c.prune(g)
		if g.len() > 0 {
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
		n += g.len()
	}
	return n
}
