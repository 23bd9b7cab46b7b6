package softswitch

import (
	"testing"

	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// tierStats finds one tier's snapshot by name.
func tierStats(t *testing.T, sw *Switch, name string) CacheTierStats {
	t.Helper()
	for _, ts := range sw.CacheTierStats() {
		if ts.Name == name {
			return ts
		}
	}
	t.Fatalf("no tier named %q in %+v", name, sw.CacheTierStats())
	return CacheTierStats{}
}

// TestMegaflowSharesMaskClass: with a ruleset that only consults
// in_port, the walk of the first flow must produce a wildcard entry
// that a second, entirely different 5-tuple hits — while a repeat of
// the first flow still hits the exact tier.
func TestMegaflowSharesMaskClass(t *testing.T) {
	r := newRig(t, 2)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))

	fA := udpFrame(t, macA, macB, ipA, ipB, 1111, 80, "a")
	fB := udpFrame(t, macB, macA, ipB, ipA, 2222, 53, "b")
	r.inject(t, 1, fA) // miss: walk, installs exact + megaflow entries
	r.inject(t, 1, fB) // different flow, same mask class: megaflow hit
	r.inject(t, 1, fA) // exact-tier hit
	if r.hosts[2].count() != 3 {
		t.Fatalf("forwarded %d of 3", r.hosts[2].count())
	}
	if mega := tierStats(t, r.sw, "megaflow"); mega.Hits != 1 {
		t.Errorf("megaflow hits = %d, want 1 (%+v)", mega.Hits, mega)
	}
	if micro := tierStats(t, r.sw, "microflow"); micro.Hits != 1 {
		t.Errorf("microflow hits = %d, want 1 (%+v)", micro.Hits, micro)
	}
	cs := r.sw.CacheStats()
	if cs.Hits.Load() != 2 || cs.Misses.Load() != 1 {
		t.Errorf("cache stats: %s", cs)
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
	if mega := tierStats(t, r.sw, "megaflow"); mega.Invalidations == 0 {
		t.Errorf("revision change produced no megaflow invalidation: %+v", mega)
	}
}

// thrashRig builds a switch + frame set where every packet misses a
// 256-entry cache: 4096 single-packet flows distinguished by a field
// the consult mask includes (the never-matched src-port entry widens
// it to l4_src).
func thrashRig(t *testing.T, opts ...Option) (*Switch, [][]byte) {
	t.Helper()
	sw := New("thrash", 0x7a, append([]Option{WithMicroflowCacheSize(256)}, opts...)...)
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

// TestInstallPathZeroAlloc is the pooling guard: with bypass off,
// sustained thrash (every packet walks, records, installs and evicts)
// must run allocation-free once the pool and scratch state are warm.
func TestInstallPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	sw, frames := thrashRig(t, WithAdaptiveBypass(false))
	for cycle := 0; cycle < 3; cycle++ {
		for _, f := range frames {
			sw.Receive(1, f)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		sw.Receive(1, frames[i%len(frames)])
		i++
	})
	if allocs != 0 {
		t.Errorf("install path allocates %.1f per packet, want 0", allocs)
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
