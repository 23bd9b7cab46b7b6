package harmless_test

// The datapath segment of the HARMLESS chain allocates nothing: a frame
// with room for a tag behind it crosses host link -> legacy switch ->
// trunk -> SS_1 -> SS_2 -> SS_1 -> trunk -> legacy switch -> sink being
// re-tagged in place four times, one frame at a time or as a burst. And
// in steady state the S4 node takes it in one pass: SS_1's flow cache
// holds the whole way through SS_2 and back.

import (
	"bytes"
	"testing"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func TestChainDatapathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	d := harmlessPath(t) // warmed: the legacy FDB and the learned flows are in place
	defer d.Close()
	// Links[i] serves access port i+1; its B end is the host's. A
	// counting sink replaces host 2, whose stack decodes (and allocates).
	in := d.Links[0].B()
	delivered, tagged := 0, 0
	d.Links[1].B().SetReceiver(func(f []byte) {
		delivered++
		if pkt.HasVLAN(f) {
			tagged++
		}
	})

	const burst, size = 32, 64
	frame := benchFrame(t, size)
	arena := fabric.NewArena(2*burst, size)
	vec := make([][]byte, burst)
	sendOne := func() { _ = in.Send(arena.Copy(frame)) }
	sendBurst := func() {
		for i := range vec {
			vec[i] = arena.Copy(frame)
		}
		_ = in.SendBatch(vec)
	}
	// Settle pools, scratch vectors and both cache tiers on either path.
	for i := 0; i < 8; i++ {
		sendOne()
		sendBurst()
	}
	delivered = 0

	const runs = 200
	if n := testing.AllocsPerRun(runs, sendOne); n != 0 {
		t.Errorf("one frame through the chain: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, sendBurst); n != 0 {
		t.Errorf("a %d-frame burst through the chain: %v allocs, want 0", burst, n)
	}
	// AllocsPerRun calls its function once more, to warm up.
	if want := (runs + 1) * (1 + burst); delivered != want || tagged != 0 {
		t.Errorf("sink counted %d frames (%d still tagged), want %d untagged", delivered, tagged, want)
	}
}

// TestChainFusesInSteadyState checks that once the pings have gone
// through (their ARPs first, while SS_2 held only its table-miss entry),
// a burst host 1 -> host 2 is classified once, in SS_1's cache, and
// still counts on both switches as three passes would: SS_2's learned
// flow and the patch ports on either side see every frame. A FLOW_MOD on
// SS_2 redirects the very next burst.
func TestChainFusesInSteadyState(t *testing.T) {
	d := harmlessPath(t)
	defer d.Close()
	ss1, ss2 := d.S4.SS1, d.S4.SS2
	// Links[i] serves access port i+1; its B end is the host's.
	got := make([]int, 4)
	for _, h := range []int{2, 3} {
		d.Links[h-1].B().SetReceiver(func([]byte) { got[h]++ })
	}
	const burst = 32
	frame := benchFrame(t, 64)
	arena := fabric.NewArena(2*burst, 64)
	send := func() {
		vec := make([][]byte, burst)
		for i := range vec {
			vec[i] = arena.Copy(frame)
		}
		_ = d.Links[0].B().SendBatch(vec)
	}
	learned := func() uint64 { // SS_2's flow for host 2's address
		for _, fs := range ss2.FlowStats(openflow.TableAll) {
			for _, o := range fs.Match.OXMs {
				if mac := fabric.HostMAC(2); o.Field == openflow.OXMEthDst && bytes.Equal(o.Value, mac[:]) {
					return fs.PacketCount
				}
			}
		}
		t.Fatal("SS_2 learned no flow for host 2")
		return 0
	}
	patch := func() [4]uint64 { // both ends of both patch pairs on host 1 -> host 2's way
		return [4]uint64{
			ss1.PortCounters(harmless.SS1PatchBase + 1).TxPackets.Load(),
			ss2.PortCounters(1).RxPackets.Load(),
			ss2.PortCounters(2).TxPackets.Load(),
			ss1.PortCounters(harmless.SS1PatchBase + 2).RxPackets.Load(),
		}
	}
	lookups2 := func() uint64 {
		cs := ss2.CacheStats()
		return cs.Hits.Load() + cs.Misses.Load() + cs.Bypassed.Load()
	}
	send() // the first UDP frame records the entry
	for i := 0; i < 3; i++ {
		hits1, look2, flow2, patch0 := ss1.CacheStats().Hits.Load(), lookups2(), learned(), patch()
		got[2] = 0
		send()
		if n := ss1.CacheStats().Hits.Load() - hits1; n != burst {
			t.Errorf("burst %d: %d SS_1 cache hits, want %d", i, n, burst)
		}
		if n := lookups2() - look2; n != 0 {
			t.Errorf("burst %d: SS_2 classified %d frames itself, want none", i, n)
		}
		if n := learned() - flow2; n != burst {
			t.Errorf("burst %d: SS_2's learned flow counted %d, want %d", i, n, burst)
		}
		for j, n := range patch() {
			if n-patch0[j] != burst {
				t.Errorf("burst %d: patch counter %d moved by %d, want %d", i, j, n-patch0[j], burst)
			}
		}
		if got[2] != burst {
			t.Errorf("burst %d: host 2 got %d of %d", i, got[2], burst)
		}
	}

	// SS_2 now sends host 2's traffic to port 3.
	m := openflow.Match{}
	m.WithEthDst(fabric.HostMAC(2))
	if _, err := ss2.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 20,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 3, MaxLen: 0xffff}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	got[2], got[3] = 0, 0
	look2 := lookups2()
	send()
	if got[2] != 0 || got[3] != burst {
		t.Errorf("after the FLOW_MOD: host 2 got %d, host 3 %d, want 0 and %d", got[2], got[3], burst)
	}
	if n := lookups2() - look2; n != 0 {
		t.Errorf("after the FLOW_MOD: SS_2 classified %d frames itself, want none", n)
	}
}
