package softswitch

import (
	"encoding/binary"
	"testing"

	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// TestMegaflowSharesMaskClass: with a ruleset that only consults
// in_port, the walk of the first flow must produce one wildcard entry
// that a second, entirely different 5-tuple and a repeat of the first
// flow both hit.
func TestMegaflowSharesMaskClass(t *testing.T) {
	r := newRig(t, 2)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))

	fA := udpFrame(t, macA, macB, ipA, ipB, 1111, 80, "a")
	fB := udpFrame(t, macB, macA, ipB, ipA, 2222, 53, "b")
	r.inject(t, 1, fA) // miss: walk, installs the class's one entry
	r.inject(t, 1, fB) // different flow, same mask class: hit
	r.inject(t, 1, fA) // the walking flow again: hit, same entry
	if r.hosts[2].count() != 3 {
		t.Fatalf("forwarded %d of 3", r.hosts[2].count())
	}
	cs := r.sw.CacheStats()
	if cs.Hits.Load() != 2 || cs.Misses.Load() != 1 || cs.Inserts.Load() != 1 {
		t.Errorf("cache stats: %s", cs)
	}
	if r.sw.CacheLen() != 1 {
		t.Errorf("cache len = %d, want 1 entry for the one program", r.sw.CacheLen())
	}
}

// TestMegaflowInvalidationOnRevisionChange: a megaflow entry must die
// the moment any table it was derived from changes revision. The
// ruleset consults only in_port, so the first walk records a
// match-anything program; adding a higher-priority UDP-dst entry would
// be masked by that program if revision validation failed.
func TestMegaflowInvalidationOnRevisionChange(t *testing.T) {
	r := newRig(t, 3)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))

	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1111, 80, "a"))
	r.inject(t, 1, udpFrame(t, macB, macA, ipB, ipA, 2222, 80, "b")) // megaflow hit
	if r.hosts[2].count() != 2 {
		t.Fatalf("forwarded %d of 2", r.hosts[2].count())
	}

	// Table 0 changes: dst-80 traffic now goes to port 3.
	m80 := openflow.Match{}
	m80.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(80)
	addFlow(t, r.sw, 0, 20, m80, apply(out(3)))

	// A third distinct flow projects onto the stale megaflow entry; it
	// must take the new pipeline state, not the cached program.
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 3333, 80, "c"))
	if r.hosts[2].count() != 2 || r.hosts[3].count() != 1 {
		t.Fatalf("after flow-add: port2=%d port3=%d, want 2/1",
			r.hosts[2].count(), r.hosts[3].count())
	}
	if cs := r.sw.CacheStats(); cs.Invalidations.Load() == 0 {
		t.Errorf("revision change produced no invalidation: %s", cs)
	}
}

// thrashRig builds a switch + frame set where every packet misses a
// 256-entry cache: 4096 single-packet flows distinguished by a field
// the consult mask includes (the never-matched src-port entry widens
// it to l4_src).
func thrashRig(t *testing.T) (*Switch, [][]byte) {
	t.Helper()
	sw := New("thrash", 0x7a, WithFlowCacheSize(256))
	sw.AttachPort(2, "out", &discardBackend{})
	distract := openflow.Match{}
	distract.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPSrc(60001)
	addFlow(t, sw, 0, 5, distract, apply(out(2)))
	addFlow(t, sw, 0, 1, openflow.Match{}, apply(out(2)))
	frames := make([][]byte, 4096)
	for i := range frames {
		frames[i] = udpFrame(t, macA, macB, ipA, ipB, uint16(1000+i), 80, "z")
	}
	return sw, frames
}

// TestInstallAllocatesOnlyWhatItPublishes: a walk records into the
// dispatch's own recorder, so with bypass off sustained thrash (every
// packet walks, records, installs and evicts) allocates exactly what the
// cache keeps — the entry and its two arrays — and a walk that ends in a
// table miss, recording on, allocates nothing.
func TestInstallAllocatesOnlyWhatItPublishes(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	sw, frames := thrashRig(t)
	sw.cache.bypassOn = false
	for _, f := range frames {
		sw.Receive(1, f)
	}
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		sw.Receive(1, frames[i%len(frames)])
		i++
	})
	if allocs != 3 {
		t.Errorf("install path allocates %.1f per packet, want 3 (entry, deps, ops)", allocs)
	}

	miss := New("miss", 0x7b, WithFlowCacheSize(256))
	miss.cache.bypassOn = false
	allocs = testing.AllocsPerRun(4096, func() {
		miss.Receive(1, frames[i%len(frames)])
		i++
	})
	if allocs != 0 || miss.CacheStats().Misses.Load() == 0 || miss.CacheLen() != 0 {
		t.Errorf("table-miss walk allocates %.1f per packet, want 0: %s", allocs, miss.CacheStats())
	}
}

// TestShardWinsKeepCountsApart: a batch is as long as its caller makes
// it, and 65,536 frames of one bypass shard used to carry the lookup
// count into the hit count packed above it. The accumulator hands back
// exactly what went in.
func TestShardWinsKeepCountsApart(t *testing.T) {
	var w shardWins
	const shard, n = 5, 70000
	for i := 0; i < n; i++ {
		w.add(shard, true)
		w.add(shard+1, false)
	}
	var lookups, hits uint64
	for l, h := w.take(shard); l != 0; l, h = w.take(shard) {
		lookups, hits = lookups+uint64(l), hits+uint64(h)
	}
	if lookups != n || hits != n {
		t.Errorf("drained %d lookups, %d hits of %d added", lookups, hits, n)
	}
	if l, h := w.take(shard + 1); l != n || h != 0 {
		t.Errorf("neighbouring shard: %d lookups, %d hits, want %d, 0", l, h, n)
	}
	if w != (shardWins{}) {
		t.Errorf("take left counts behind: %v", w)
	}
}

// TestAdaptiveBypassEngagesAndRecovers drives the shard state machine
// around its full cycle: thrash until shards give up on the cache,
// then a single cacheable flow until probation readmits its shard.
func TestAdaptiveBypassEngagesAndRecovers(t *testing.T) {
	sw, frames := thrashRig(t)
	// ~6 windows per shard of near-zero hit rate: every shard should
	// trip into bypass (2 consecutive low windows suffice).
	for cycle := 0; cycle < 12; cycle++ {
		for _, f := range frames {
			sw.Receive(1, f)
		}
	}
	cs := sw.CacheStats()
	if cs.Bypassed.Load() == 0 {
		t.Fatalf("thrash never engaged bypass: %s", cs)
	}

	// One flow, repeated: its shard must eventually probe, see a
	// perfect hit rate, and return to active — visible as hit growth.
	f := frames[0]
	base := sw.CacheStats().Hits.Load()
	recovered := false
	for i := 0; i < 3*bypassRetry && !recovered; i++ {
		sw.Receive(1, f)
		recovered = sw.CacheStats().Hits.Load() > base+2*bypassProbeSpan
	}
	if !recovered {
		t.Errorf("shard never recovered from bypass: %s", sw.CacheStats())
	}
}

// TestMaskClassCapDeclinesInstalls is the failure policy of the one
// bounded resource a recording can be refused by: with more distinct
// consult masks than maxMaskClasses, the walks of the surplus masks are
// not cached — nothing is published, no insert is counted — while every
// frame keeps forwarding exactly as on a switch with no cache at all.
func TestMaskClassCapDeclinesInstalls(t *testing.T) {
	const masks = maxMaskClasses + 3
	// Table 0 sends in-port p to table p, whose never-matching entry
	// consults the p-th subset of five fields: the walk from port p
	// records in_port plus that subset, a mask no other port shares.
	fields := []func(*openflow.Match){
		func(m *openflow.Match) { m.WithEthDst(macA) },
		func(m *openflow.Match) { m.WithEthSrc(macB) },
		func(m *openflow.Match) { m.WithIPv4Src(ipB) },
		func(m *openflow.Match) { m.WithIPv4Dst(ipA) },
		func(m *openflow.Match) { m.WithIPProto(pkt.IPProtoTCP) },
	}
	build := func(opts ...Option) (*Switch, *discardBackend) {
		sw := New("cap", 0xca, append(opts, WithNumTables(masks+1))...)
		sink := &discardBackend{}
		sw.AttachPort(100, "out", sink)
		for p := 1; p <= masks; p++ {
			in := openflow.Match{}
			in.WithInPort(uint32(p))
			addFlow(t, sw, 0, 10, in, &openflow.InstrGotoTable{TableID: uint8(p)})
			never := openflow.Match{}
			never.WithEthType(pkt.EtherTypeIPv4)
			for bit, set := range fields {
				if p&(1<<bit) != 0 {
					set(&never)
				}
			}
			addFlow(t, sw, uint8(p), 10, never, apply(out(99)))
			addFlow(t, sw, uint8(p), 1, openflow.Match{}, apply(out(100)))
		}
		return sw, sink
	}
	cached, cachedSink := build(WithFlowCacheSize(256))
	cached.cache.bypassOn = false // every refused walk must reach install, every round
	plain, plainSink := build(WithFlowCacheSize(0))
	frame := udpFrame(t, macA, macB, ipA, ipB, 1000, 80, "cap")

	round := func() {
		for p := uint32(1); p <= masks; p++ {
			cached.Receive(p, frame)
			plain.Receive(p, frame)
		}
		// The last port's mask came too late for a class: its frames are
		// refused on the batch path's per-frame fall-through too.
		cached.ReceiveBatch(masks, [][]byte{frame, frame, frame})
		plain.ReceiveBatch(masks, [][]byte{frame, frame, frame})
	}
	round()
	cs := cached.CacheStats()
	if got := cs.Inserts.Load(); got != maxMaskClasses {
		t.Fatalf("inserts after one round = %d, want %d: %s", got, maxMaskClasses, cs)
	}
	for i := 0; i < 3; i++ {
		round()
	}
	if got := cs.Inserts.Load(); got != maxMaskClasses {
		t.Errorf("inserts kept growing past the class cap: %s", cs)
	}
	if got := cached.CacheLen(); got != maxMaskClasses {
		t.Errorf("cache len = %d, want %d (one entry per class)", got, maxMaskClasses)
	}
	if got := len(*cached.cache.classes.Load()); got != maxMaskClasses {
		t.Errorf("%d mask classes, cap is %d", got, maxMaskClasses)
	}
	if want := uint64(3 * maxMaskClasses); cs.Hits.Load() != want {
		t.Errorf("hits = %d, want %d (the cached masks, three repeat rounds): %s", cs.Hits.Load(), want, cs)
	}
	if cachedSink.frames != plainSink.frames || cachedSink.frames != 4*(masks+3) {
		t.Errorf("forwarded %d cached vs %d uncached, want %d", cachedSink.frames, plainSink.frames, 4*(masks+3))
	}
	for id := 0; id <= masks; id++ {
		cl, cm := cached.Table(uint8(id)).Stats()
		pl, pm := plain.Table(uint8(id)).Stats()
		if cl != pl || cm != pm {
			t.Errorf("table %d lookups/matched: cached %d/%d, uncached %d/%d", id, cl, cm, pl, pm)
		}
	}
	if cached.Drops() != 0 || plain.Drops() != 0 {
		t.Errorf("drops: cached %d, uncached %d", cached.Drops(), plain.Drops())
	}

	if raceEnabled {
		return // alloc counts are meaningless under the race detector
	}
	if allocs := testing.AllocsPerRun(1000, func() { cached.Receive(masks, frame) }); allocs != 0 {
		t.Errorf("a refused install allocates %.1f per packet, want 0 (nothing was published)", allocs)
	}
}

// TestStrandedClassesAreReclaimed: masks are bit-precise, so every new
// prefix length on a table is a new consult mask and the class recorded
// under the old one can never be hit again. A controller that installs
// /8 to /32 in ascending order goes through 25 masks on one table; the
// classes it strands must not fill the list, or the switch would decline
// every install for the rest of its life.
func TestStrandedClassesAreReclaimed(t *testing.T) {
	build := func(opts ...Option) (*Switch, *discardBackend) {
		sw := New("widen", 0xcb, opts...)
		sink := &discardBackend{}
		sw.AttachPort(2, "out", sink)
		addFlow(t, sw, 0, 1, openflow.Match{}, apply(out(2)))
		return sw, sink
	}
	cached, cachedSink := build(WithFlowCacheSize(256))
	cached.cache.bypassOn = false
	plain, plainSink := build(WithFlowCacheSize(0))
	frames := [][]byte{
		udpFrame(t, macA, macB, ipA, ipB, 1000, 80, "a"),
		udpFrame(t, macB, macA, ipB, ipA, 1001, 80, "b"),
	}
	cs := cached.CacheStats()
	for bits := 8; bits <= 32; bits++ {
		var mask pkt.IPv4
		binary.BigEndian.PutUint32(mask[:], ^uint32(0)<<(32-bits))
		m := openflow.Match{}
		m.WithEthType(pkt.EtherTypeIPv4).WithIPv4DstMasked(pkt.IPv4{172, 16, 0, 0}, mask)
		for _, sw := range []*Switch{cached, plain} {
			addFlow(t, sw, 0, uint16(100+bits), m, apply(out(99)))
		}
		inserts, hits := cs.Inserts.Load(), cs.Hits.Load()
		for round := 0; round < 2; round++ {
			for _, f := range frames {
				cached.Receive(1, f)
				plain.Receive(1, f)
			}
		}
		// Two flows, one or two entries (a short prefix cannot tell the
		// destinations apart); the second round hits what the first put in.
		if cs.Inserts.Load() == inserts || cs.Hits.Load()-hits < uint64(len(frames)) {
			t.Fatalf("/%d: the cache stopped taking installs: %s", bits, cs)
		}
	}
	if got := len(*cached.cache.classes.Load()); got > maxMaskClasses {
		t.Errorf("%d mask classes, cap is %d", got, maxMaskClasses)
	}
	if got := cached.CacheLen(); got != len(frames) {
		t.Errorf("cache len = %d, want %d (the /32 mask's entries and no stale ones)", got, len(frames))
	}
	if cachedSink.frames != plainSink.frames || cachedSink.frames != 25*2*len(frames) {
		t.Errorf("forwarded %d cached vs %d uncached, want %d", cachedSink.frames, plainSink.frames, 25*2*len(frames))
	}
	cl, cm := cached.Table(0).Stats()
	pl, pm := plain.Table(0).Stats()
	if cl != pl || cm != pm {
		t.Errorf("table 0 lookups/matched: cached %d/%d, uncached %d/%d", cl, cm, pl, pm)
	}
}
