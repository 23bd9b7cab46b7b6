package softswitch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func flowMod(cmd uint8, table uint8, priority uint16, m openflow.Match, instrs ...openflow.Instruction) *openflow.FlowMod {
	return &openflow.FlowMod{
		TableID: table, Command: cmd, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: instrs,
	}
}

func TestFlowCacheHitCounters(t *testing.T) {
	r := newRig(t, 2)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))

	f := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x")
	for i := 0; i < 5; i++ {
		r.inject(t, 1, f)
	}
	if r.hosts[2].count() != 5 {
		t.Fatalf("forwarded %d", r.hosts[2].count())
	}
	cs := r.sw.CacheStats()
	if cs == nil {
		t.Fatal("cache disabled by default")
	}
	if cs.Misses.Load() != 1 || cs.Hits.Load() != 4 || cs.Inserts.Load() != 1 {
		t.Errorf("cache stats: %s", cs)
	}
	// One program, one entry in its mask class.
	if r.sw.CacheLen() != 1 {
		t.Errorf("cache len = %d", r.sw.CacheLen())
	}
	// Flow counters must account every packet, cached or not.
	fs := r.sw.FlowStats(openflow.TableAll)
	if len(fs) != 1 || fs[0].PacketCount != 5 {
		t.Errorf("flow stats: %+v", fs)
	}
	lookups, matched := r.sw.Table(0).Stats()
	if lookups != 5 || matched != 5 {
		t.Errorf("table stats: %d/%d", lookups, matched)
	}
}

// TestCacheInvalidationFlowMod is the acceptance scenario: install a
// flow, forward (populating the cache), then modify/replace/delete the
// flow and assert the very next packet follows the new pipeline state.
func TestCacheInvalidationFlowMod(t *testing.T) {
	r := newRig(t, 4)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))

	f := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x")
	r.inject(t, 1, f) // miss: walk + cache fill
	r.inject(t, 1, f) // hit
	if r.hosts[2].count() != 2 {
		t.Fatalf("port2 = %d", r.hosts[2].count())
	}

	// FlowAdd with identical match+priority replaces the entry.
	if _, err := r.sw.ApplyFlowMod(flowMod(openflow.FlowAdd, 0, 10, m, apply(out(3)))); err != nil {
		t.Fatal(err)
	}
	r.inject(t, 1, f)
	if r.hosts[2].count() != 2 || r.hosts[3].count() != 1 {
		t.Fatalf("after replace: port2=%d port3=%d", r.hosts[2].count(), r.hosts[3].count())
	}

	// FlowModify rewrites the instructions in place.
	if _, err := r.sw.ApplyFlowMod(flowMod(openflow.FlowModify, 0, 10, m, apply(out(4)))); err != nil {
		t.Fatal(err)
	}
	r.inject(t, 1, f)
	if r.hosts[3].count() != 1 || r.hosts[4].count() != 1 {
		t.Fatalf("after modify: port3=%d port4=%d", r.hosts[3].count(), r.hosts[4].count())
	}

	// FlowDelete: the very next packet must miss and drop.
	drops := r.sw.Drops()
	if _, err := r.sw.ApplyFlowMod(flowMod(openflow.FlowDelete, 0, 0, openflow.Match{})); err != nil {
		t.Fatal(err)
	}
	r.inject(t, 1, f)
	if r.hosts[4].count() != 1 {
		t.Errorf("forwarded after delete: port4=%d", r.hosts[4].count())
	}
	if r.sw.Drops() != drops+1 {
		t.Errorf("drops = %d, want %d", r.sw.Drops(), drops+1)
	}
	if inv := r.sw.CacheStats().Invalidations.Load(); inv < 3 {
		t.Errorf("invalidations = %d, want >= 3", inv)
	}
}

func TestCacheInvalidationOnExpiry(t *testing.T) {
	clk := netem.NewManualClock()
	r := newRig(t, 2, WithClock(clk))
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := r.sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10, IdleTimeout: 5,
		Flags:    openflow.FlowFlagSendFlowRem,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{apply(out(2))},
	}); err != nil {
		t.Fatal(err)
	}
	f := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x")
	r.inject(t, 1, f)
	r.inject(t, 1, f)
	if r.hosts[2].count() != 2 {
		t.Fatalf("port2 = %d", r.hosts[2].count())
	}
	clk.Advance(6 * time.Second)
	if removed := r.sw.SweepExpired(); len(removed) != 1 {
		t.Fatalf("expired %d", len(removed))
	}
	r.inject(t, 1, f)
	if r.hosts[2].count() != 2 {
		t.Error("cached megaflow survived entry expiry")
	}
}

// TestCacheInvalidationOnGroupMod: a cached program that traverses a
// group must observe a group-mod on the very next packet.
func TestCacheInvalidationOnGroupMod(t *testing.T) {
	r := newRig(t, 3)
	if err := r.sw.Groups().Apply(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeIndirect, GroupID: 1,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{out(2)}}},
	}); err != nil {
		t.Fatal(err)
	}
	addFlow(t, r.sw, 0, 10, openflow.Match{}, apply(&openflow.ActionGroup{GroupID: 1}))

	f := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "g")
	r.inject(t, 1, f)
	r.inject(t, 1, f)
	if r.hosts[2].count() != 2 {
		t.Fatalf("port2 = %d", r.hosts[2].count())
	}
	if err := r.sw.Groups().Apply(&openflow.GroupMod{
		Command: openflow.GroupModify, GroupType: openflow.GroupTypeIndirect, GroupID: 1,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{out(3)}}},
	}); err != nil {
		t.Fatal(err)
	}
	r.inject(t, 1, f)
	if r.hosts[2].count() != 2 || r.hosts[3].count() != 1 {
		t.Errorf("after group-mod: port2=%d port3=%d", r.hosts[2].count(), r.hosts[3].count())
	}
}

// TestCachedMatchesUncached replays the multi-table action-set program
// of the pipeline tests with the cache on and off; the outputs must be
// identical packet for packet.
func TestCachedMatchesUncached(t *testing.T) {
	run := func(opts ...Option) [2]int {
		r := newRig(t, 3, opts...)
		m := openflow.Match{}
		m.WithInPort(1)
		addFlow(t, r.sw, 0, 10, m,
			&openflow.InstrWriteActions{Actions: []openflow.Action{out(2)}},
			&openflow.InstrGotoTable{TableID: 1},
		)
		m80 := openflow.Match{}
		m80.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(80)
		addFlow(t, r.sw, 1, 20, m80,
			&openflow.InstrWriteActions{Actions: []openflow.Action{out(3)}},
		)
		addFlow(t, r.sw, 1, 1, openflow.Match{})
		for i := 0; i < 3; i++ {
			r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1000, 80, "web"))
			r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1000, 53, "dns"))
		}
		return [2]int{r.hosts[2].count(), r.hosts[3].count()}
	}
	cached, uncached := run(), run(WithFlowCacheSize(0))
	if cached != uncached || cached != [2]int{3, 3} {
		t.Errorf("cached=%v uncached=%v", cached, uncached)
	}
}

func TestCacheEvictionUnderThrash(t *testing.T) {
	// Capacity of 32 entries in the one mask class: distinct flows fight
	// for slots, forwarding must stay correct throughout. Bypass is off so
	// the cache keeps installing however bad the hit rate gets. The
	// never-matched src-port entry widens table 0's consult mask to
	// include l4_src, so the 200 flows project to 200 distinct keys
	// rather than collapsing into one match-anything entry.
	const capacity = 32
	r := newRig(t, 2, WithFlowCacheSize(capacity))
	r.sw.cache.bypassOn = false
	distract := openflow.Match{}
	distract.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPSrc(9999)
	addFlow(t, r.sw, 0, 5, distract, apply(out(2)))
	addFlow(t, r.sw, 0, 1, openflow.Match{}, apply(out(2)))
	n := 0
	for i := 0; i < 4; i++ {
		for p := uint16(1); p <= 200; p++ {
			r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, p, 80, "t"))
			n++
		}
	}
	if r.hosts[2].count() != n {
		t.Errorf("forwarded %d of %d under thrash", r.hosts[2].count(), n)
	}
	cs := r.sw.CacheStats()
	if cs.Evictions.Load() == 0 {
		t.Errorf("no evictions under thrash: %s", cs)
	}
	if r.sw.CacheLen() > capacity {
		t.Errorf("cache grew past capacity: %d", r.sw.CacheLen())
	}
}

// TestFlowCacheCapacityIsExact: WithFlowCacheSize(n) holds n entries in
// a mask class, however their keys hash. 2n distinct flows of one class
// leave n entries behind and evict the other n.
func TestFlowCacheCapacityIsExact(t *testing.T) {
	for _, n := range []int{4, 100} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := newRig(t, 2, WithFlowCacheSize(n))
			r.sw.cache.bypassOn = false
			distract := openflow.Match{} // widens the consult mask to l4_src: one class, 2n keys
			distract.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPSrc(9999)
			addFlow(t, r.sw, 0, 5, distract, apply(out(2)))
			addFlow(t, r.sw, 0, 1, openflow.Match{}, apply(out(2)))
			for p := 1; p <= 2*n; p++ {
				r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, uint16(p), 80, "t"))
			}
			cs := r.sw.CacheStats()
			if got := len(*r.sw.cache.classes.Load()); got != 1 {
				t.Fatalf("%d mask classes, want 1", got)
			}
			if r.sw.CacheLen() != n || cs.Evictions.Load() != uint64(n) {
				t.Errorf("%d entries and %d evictions after %d flows, want %d and %d: %s",
					r.sw.CacheLen(), cs.Evictions.Load(), 2*n, n, n, cs)
			}
		})
	}
}

// TestCacheMeterDropCreditsLikeWalk: a cached program whose table-0
// meter drops a replayed packet must credit only table 0 — the walk
// returns at the meter without ever consulting table 1, and cached
// counters and idle timeouts must not diverge from that.
func TestCacheMeterDropCreditsLikeWalk(t *testing.T) {
	clk := netem.NewManualClock()
	r := newRig(t, 2, WithClock(clk))
	if err := r.sw.Meters().Apply(&openflow.MeterMod{
		Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: 1,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 2, BurstSize: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m,
		&openflow.InstrMeter{MeterID: 1},
		&openflow.InstrGotoTable{TableID: 1},
	)
	addFlow(t, r.sw, 1, 1, openflow.Match{}, apply(out(2)))

	f := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "m")
	for i := 0; i < 10; i++ {
		r.inject(t, 1, f) // 2 pass the burst, 8 drop at the meter
	}
	if got := r.hosts[2].count(); got != 2 {
		t.Fatalf("passed %d, want 2 (burst)", got)
	}
	l0, _ := r.sw.Table(0).Stats()
	l1, _ := r.sw.Table(1).Stats()
	if l0 != 10 || l1 != 2 {
		t.Errorf("table lookups: t0=%d t1=%d, want 10/2", l0, l1)
	}
	// The table-1 entry saw only the 2 passed packets; after its idle
	// timeout it must expire even while meter-dropped replays continue.
	fs := r.sw.FlowStats(1)
	if len(fs) != 1 || fs[0].PacketCount != 2 {
		t.Errorf("table1 flow stats: %+v", fs)
	}
}

// TestPerFrameReplayZeroAlloc: a cached program that decides per packet
// (a meter, a SELECT group) replays a run one frame at a time, and that
// costs no allocation either: each frame goes through as a sub-slice of
// the run, never as a vector of its own.
func TestPerFrameReplayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	programs := map[string]func(t *testing.T, sw *Switch){
		"meter": func(t *testing.T, sw *Switch) {
			if err := sw.Meters().Apply(&openflow.MeterMod{
				Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: 1,
				Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 1 << 30, BurstSize: 1 << 30}},
			}); err != nil {
				t.Fatal(err)
			}
			addFlow(t, sw, 0, 10, openflow.Match{}, &openflow.InstrMeter{MeterID: 1}, apply(out(2)))
		},
		"select": func(t *testing.T, sw *Switch) {
			if err := sw.Groups().Apply(&openflow.GroupMod{
				Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1,
				Buckets: []openflow.Bucket{
					{Weight: 1, Actions: []openflow.Action{out(2)}},
					{Weight: 1, Actions: []openflow.Action{out(3)}},
				},
			}); err != nil {
				t.Fatal(err)
			}
			addFlow(t, sw, 0, 10, openflow.Match{}, apply(&openflow.ActionGroup{GroupID: 1}))
		},
	}
	for name, program := range programs {
		t.Run(name, func(t *testing.T) {
			sw := New("replay", 0x7e3)
			sink := &discardBackend{}
			sw.AttachPort(2, "out2", sink)
			sw.AttachPort(3, "out3", sink)
			program(t, sw)

			// One frame, 32 times, in slots of one preallocated arena:
			// one run on one cache entry. Neither program rewrites a
			// frame, so the burst can be sent again as it is.
			const burst, stride = 32, 128
			frame := udpFrame(t, macA, macB, ipA, ipB, 5000, 80, "run")
			arena := make([]byte, burst*stride)
			vec := make([][]byte, burst)
			for i := range vec {
				vec[i] = arena[i*stride : i*stride+len(frame) : (i+1)*stride]
				copy(vec[i], frame)
			}
			send := func() { sw.ReceiveBatch(1, vec) }
			send() // walk and install
			send() // settle pools
			const runs = 100
			if n := testing.AllocsPerRun(runs, send); n != 0 {
				t.Errorf("a %d-frame run through a per-frame program: %v allocs, want 0", burst, n)
			}
			// AllocsPerRun calls its function once more, to warm up.
			if want := (runs + 3) * burst; sink.frames != want || sw.Drops() != 0 {
				t.Errorf("forwarded %d (%d dropped), want %d", sink.frames, sw.Drops(), want)
			}
			if sw.CacheStats().Hits.Load() == 0 {
				t.Error("test did not exercise the cache-hit replay")
			}
		})
	}
}

// TestConcurrentReceiveFlowMod hammers the datapath from several
// goroutines while flow-mods (add, modify, delete) and expiry sweeps
// run concurrently. It passes when run under -race and every packet is
// either forwarded or dropped (conservation). Under -short the
// iteration counts shrink 10x so the CI race matrix stays fast.
func TestConcurrentReceiveFlowMod(t *testing.T) {
	sw := New("race", 0x42)
	l := netem.NewLink(netem.LinkConfig{})
	defer l.Close()
	sw.AttachNetPort(2, "out", l.A())
	l.B().SetReceiver(func([]byte) {})

	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, sw, 0, 10, m, apply(out(2)))

	const writers = 4
	packets, mods := 2000, 300
	if testing.Short() {
		packets, mods = 200, 30
	}
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = udpFrame(t, macA, macB, ipA, ipB, uint16(1000+i), 80, "race")
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < packets; i++ {
				sw.Receive(1, frames[(w+i)%len(frames)])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mods; i++ {
			port := uint32(2)
			_, _ = sw.ApplyFlowMod(flowMod(openflow.FlowModify, 0, 10, m, apply(out(port))))
			_, _ = sw.ApplyFlowMod(flowMod(openflow.FlowAdd, 0, 10, m, apply(out(port))))
			if i%10 == 0 {
				_, _ = sw.ApplyFlowMod(flowMod(openflow.FlowDelete, 0, 0, openflow.Match{}))
				_, _ = sw.ApplyFlowMod(flowMod(openflow.FlowAdd, 0, 10, m, apply(out(port))))
			}
			sw.SweepExpired()
		}
	}()
	wg.Wait()

	rx := sw.PortCounters(2).TxPackets.Load() // frames that left port 2
	if rx+sw.Drops() != uint64(writers*packets) {
		t.Errorf("conservation: tx=%d drops=%d, want sum %d", rx, sw.Drops(), writers*packets)
	}
}

// TestConcurrentBurstsCountEveryFrame: four goroutines burst the same two
// flows into one switch — the same cache entries, run memos and table
// entries from every side — and the entry, table and port counters all
// come to exactly the frames sent. (The differential oracle's missing
// workers axis: per-burst credits are private to a dispatch until they
// are published, so concurrent dispatches lose nothing to each other.)
func TestConcurrentBurstsCountEveryFrame(t *testing.T) {
	sw := New("bursts", 0x43)
	l := netem.NewLink(netem.LinkConfig{})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	sw.AttachPort(1, "in", netBackend{port: l.A()}) // egress unused: ingress is the ReceiveBatch calls
	sw.AttachPort(2, "out", netBackend{port: l.A()})
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, sw, 0, 10, m, &openflow.InstrGotoTable{TableID: 1})
	addFlow(t, sw, 1, 10, openflow.Match{}, apply(out(2)))

	const workers, burst = 4, 32
	bursts := 400
	if testing.Short() {
		bursts = 40
	}
	flows := [2][]byte{
		udpFrame(t, macA, macB, ipA, ipB, 1000, 80, "one"),
		udpFrame(t, macB, macA, ipB, ipA, 2000, 443, "other"),
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vec := make([][]byte, burst)
			for b := 0; b < bursts; b++ {
				for i := range vec {
					// Runs of four frames of one flow, then of the other.
					vec[i] = append([]byte(nil), flows[(w+b+i/4)%2]...)
				}
				sw.ReceiveBatch(1, vec)
			}
		}(w)
	}
	wg.Wait()

	frames := uint64(workers * bursts * burst)
	octets := frames / 2 * uint64(len(flows[0])+len(flows[1]))
	for _, ts := range sw.TableStats()[:2] {
		if ts.LookupCount != frames || ts.MatchedCount != frames {
			t.Errorf("table %d: %d lookups, %d matched, want %d each", ts.TableID, ts.LookupCount, ts.MatchedCount, frames)
		}
	}
	for _, fs := range sw.FlowStats(openflow.TableAll) {
		if fs.PacketCount != frames || fs.ByteCount != octets {
			t.Errorf("table %d entry: %d packets, %d bytes, want %d, %d", fs.TableID, fs.PacketCount, fs.ByteCount, frames, octets)
		}
	}
	rx, tx := sw.PortCounters(1), sw.PortCounters(2)
	if rx.RxPackets.Load() != frames || rx.RxBytes.Load() != octets || tx.TxPackets.Load() != frames || tx.TxBytes.Load() != octets {
		t.Errorf("ports: %d packets, %d bytes in, %d, %d out, want %d, %d", rx.RxPackets.Load(), rx.RxBytes.Load(),
			tx.TxPackets.Load(), tx.TxBytes.Load(), frames, octets)
	}
	if cs := sw.CacheStats(); cs.Hits.Load()+cs.Misses.Load()+cs.Bypassed.Load() != frames || sw.Drops() != 0 {
		t.Errorf("cache classified %s for %d frames, %d drops", cs, frames, sw.Drops())
	}
}

// TestFlowStoreWaysOut drives one mask class through every way an
// entry leaves it — replaced under the same key, evicted at capacity,
// removed stale on lookup, swept one by one or all at once — and checks
// what stays and what each way out counts. An entry that left is the
// garbage collector's; TestEntryOutlivesItsStore is the concurrent half.
func TestFlowStoreWaysOut(t *testing.T) {
	k1, k2 := pkt.FlatKey{1}, pkt.FlatKey{2}

	type fixture struct {
		c      *flowCache
		g      *maskClass
		tables [2]*flowtable.Table
	}
	// entry records a program depending on f.tables[dep]; bump makes
	// every such entry stale.
	entry := func(f *fixture, dep int) *CacheEntry {
		return &CacheEntry{deps: []tableDep{{table: f.tables[dep], rev: f.tables[dep].Version()}}}
	}
	bump := func(t *testing.T, f *fixture, dep int) {
		t.Helper()
		if err := f.tables[dep].Add(&flowtable.Entry{Priority: uint16(f.tables[dep].Version())}); err != nil {
			t.Fatal(err)
		}
	}

	ways := []struct {
		name string
		// run starts from a class of capacity size holding entry a
		// (valid, on table 0) under k1.
		size                 int
		run                  func(t *testing.T, f *fixture, a *CacheEntry)
		wantLen              int
		wantEvict, wantInval uint64
	}{
		{name: "replace-same-key", size: 1, wantLen: 1,
			run: func(t *testing.T, f *fixture, a *CacheEntry) {
				b := entry(f, 0)
				f.c.put(f.g, &k1, b)
				if got := f.c.get(f.g, &k1); got != b {
					t.Errorf("lookup after replace = %p, want the new entry %p", got, b)
				}
			}},
		{name: "capacity-eviction", size: 1, wantLen: 1, wantEvict: 1,
			run: func(t *testing.T, f *fixture, a *CacheEntry) {
				b := entry(f, 0)
				f.c.put(f.g, &k2, b) // the class's cap is 1: a must go
				if f.c.get(f.g, &k1) != nil || f.c.get(f.g, &k2) != b {
					t.Error("full class kept the old entry or lost the new one")
				}
			}},
		{name: "stale-on-lookup", size: 1, wantLen: 0, wantInval: 1,
			run: func(t *testing.T, f *fixture, a *CacheEntry) {
				bump(t, f, 0)
				if f.c.get(f.g, &k1) != nil {
					t.Error("stale entry served")
				}
			}},
		{name: "sweep", size: 2, wantLen: 1, wantInval: 1,
			run: func(t *testing.T, f *fixture, a *CacheEntry) {
				f.c.put(f.g, &k2, entry(f, 1))
				bump(t, f, 1)
				if n := f.c.prune(f.g); n != 1 {
					t.Errorf("sweep removed %d, want 1", n)
				}
				if f.c.get(f.g, &k1) != a {
					t.Error("sweep removed a valid entry")
				}
			}},
		{name: "flush", size: 2, wantLen: 0, wantInval: 2,
			run: func(t *testing.T, f *fixture, a *CacheEntry) {
				f.c.put(f.g, &k2, entry(f, 1))
				bump(t, f, 0)
				bump(t, f, 1)
				if n := f.c.prune(f.g); n != 2 {
					t.Errorf("flush removed %d, want 2", n)
				}
			}},
	}
	for _, way := range ways {
		t.Run("maskClass/"+way.name, func(t *testing.T) {
			c := newFlowCache(way.size)
			f := &fixture{c: c, g: c.class(&pkt.FlatKey{1})} // any mask: get/put take projected keys
			for i := range f.tables {
				f.tables[i] = flowtable.NewTable(uint8(i), netem.RealClock{})
			}
			a := entry(f, 0)
			c.put(f.g, &k1, a)

			way.run(t, f, a)
			if got := f.g.len(); got != way.wantLen {
				t.Errorf("len = %d, want %d", got, way.wantLen)
			}
			if got := c.stats.Evictions.Load(); got != way.wantEvict {
				t.Errorf("evictions = %d, want %d", got, way.wantEvict)
			}
			if got := c.stats.Invalidations.Load(); got != way.wantInval {
				t.Errorf("invalidations = %d, want %d", got, way.wantInval)
			}
		})
	}
}

// TestEntryOutlivesItsStore: a dispatch replays entries it holds with no
// lock and no pin, so a class must be free to unmap one at any moment
// without anything being reused under the replay. One goroutine bursts
// flow A while a second thrashes A's one-entry mask class with flows of
// another port and a third keeps every recorded revision going stale with
// flow-mods that leave the forwarding as it is. Every frame of A leaves
// on A's port, and the race detector sees every access.
func TestEntryOutlivesItsStore(t *testing.T) {
	sw := New("outlive", 0x44, WithFlowCacheSize(1)) // one entry per mask class
	sw.cache.bypassOn = false                        // a thrashed class must keep installing
	sinkA, sinkB := &discardBackend{}, &discardBackend{}
	sw.AttachPort(2, "a", sinkA)
	sw.AttachPort(3, "b", sinkB)
	udpSrc := func(port uint16) openflow.Match {
		m := openflow.Match{}
		m.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPSrc(port)
		return m
	}
	const portA = 1000
	addFlow(t, sw, 0, 10, udpSrc(portA), apply(out(2)))
	addFlow(t, sw, 0, 1, openflow.Match{}, apply(out(3)))

	// The first walk creates the one mask class (the table consults
	// l4_src); any other flow of the class takes A's one slot.
	frameA := udpFrame(t, macA, macB, ipA, ipB, portA, 80, "a")
	sw.Receive(1, append([]byte(nil), frameA...))
	var thrash [][]byte
	for port := uint16(2000); len(thrash) < 4; port++ {
		thrash = append(thrash, udpFrame(t, macA, macB, ipA, ipB, port, 80, "b"))
	}

	const burst = 8
	bursts := 4000
	if testing.Short() {
		bursts = 400
	}
	stop := make(chan struct{})
	var others sync.WaitGroup
	var thrashed int
	others.Add(2)
	go func() {
		defer others.Done()
		for ; ; thrashed++ {
			select {
			case <-stop:
				return
			default:
				sw.Receive(1, append([]byte(nil), thrash[thrashed%len(thrash)]...))
			}
		}
	}()
	go func() {
		defer others.Done()
		aside := udpSrc(60001) // same fields as A's entry: the consult mask stays
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = sw.ApplyFlowMod(flowMod(openflow.FlowAdd, 0, 5, aside, apply(out(3))))
				_, _ = sw.ApplyFlowMod(flowMod(openflow.FlowDeleteStrict, 0, 5, aside))
			}
		}
	}()
	// On a busy two-core box the other two may not be scheduled inside
	// the few milliseconds the bursts take: keep going, within reason,
	// until both have left their mark.
	reached := func() bool {
		cs := sw.CacheStats()
		return cs.Evictions.Load() != 0 && cs.Invalidations.Load() != 0
	}
	vec := make([][]byte, burst)
	sent := 0
	for ; sent < bursts || !reached() && sent < 250*bursts; sent++ {
		for i := range vec {
			vec[i] = append([]byte(nil), frameA...)
		}
		sw.ReceiveBatch(1, vec)
	}
	close(stop)
	others.Wait()

	if want := 1 + sent*burst; sinkA.frames != want {
		t.Errorf("flow A: %d frames left on its port, want %d", sinkA.frames, want)
	}
	if sinkB.frames != thrashed || sw.Drops() != 0 {
		t.Errorf("thrashing flows: %d frames out of %d sent, %d drops", sinkB.frames, thrashed, sw.Drops())
	}
	cs := sw.CacheStats()
	if cs.Hits.Load() == 0 || cs.Evictions.Load() == 0 || cs.Invalidations.Load() == 0 {
		t.Errorf("the stress did not reach every way out of the store: %s", cs)
	}
}
