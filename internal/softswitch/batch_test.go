package softswitch_test

// Tests for the batch-oriented dataplane API: ReceiveBatch vs Receive
// equivalence (every observable counter must be bit-identical for the
// same frames sent either way), the iterative patch-port dispatch
// (constant stack depth across arbitrarily long SS chains), and the
// ring egress backend.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// exactnessSwitch builds a two-port switch with a two-table ruleset
// exercising goto-table, distractor entries, and a final output — the
// same shape as the cache benches — plus a sink on port 2.
func exactnessSwitch(t *testing.T, opts ...softswitch.Option) *softswitch.Switch {
	t.Helper()
	sw := softswitch.New("exact", 0xe, opts...)
	for _, port := range []uint32{1, 2} {
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		sw.AttachNetPort(port, "p", l.A())
		l.B().SetReceiver(func([]byte) {})
	}
	add := func(table uint8, priority uint16, m openflow.Match, instrs ...openflow.Instruction) {
		t.Helper()
		if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
			TableID: table, Command: openflow.FlowAdd, Priority: priority,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: instrs,
		}); err != nil {
			t.Fatal(err)
		}
	}
	output2 := &openflow.InstrApplyActions{Actions: []openflow.Action{
		&openflow.ActionOutput{Port: 2, MaxLen: 0xffff},
	}}
	for i := 0; i < 16; i++ {
		m := openflow.Match{}
		m.WithInPort(1).WithEthType(pkt.EtherTypeIPv4).
			WithIPv4Dst(pkt.IPv4{10, 9, 0, byte(i)})
		add(0, uint16(1000-i), m, output2)
	}
	mIn := openflow.Match{}
	mIn.WithInPort(1)
	add(0, 10, mIn, &openflow.InstrGotoTable{TableID: 1})
	add(1, 1, openflow.Match{}, output2)
	return sw
}

// counterSnapshot flattens every observable counter of the switch.
func counterSnapshot(sw *softswitch.Switch) map[string]uint64 {
	snap := map[string]uint64{
		"drops":    sw.Drops(),
		"pktins":   sw.PacketIns(),
		"cachelen": uint64(sw.CacheLen()),
	}
	for _, no := range sw.PortNumbers() {
		c := sw.PortCounters(no)
		snap[fmt.Sprintf("port%d.rxp", no)] = c.RxPackets.Load()
		snap[fmt.Sprintf("port%d.rxb", no)] = c.RxBytes.Load()
		snap[fmt.Sprintf("port%d.txp", no)] = c.TxPackets.Load()
		snap[fmt.Sprintf("port%d.txb", no)] = c.TxBytes.Load()
	}
	for _, ts := range sw.TableStats() {
		snap[fmt.Sprintf("table%d.lookups", ts.TableID)] = ts.LookupCount
		snap[fmt.Sprintf("table%d.matched", ts.TableID)] = ts.MatchedCount
	}
	for ti, fs := range sw.FlowStats(openflow.TableAll) {
		snap[fmt.Sprintf("flow%d.pkts", ti)] = fs.PacketCount
		snap[fmt.Sprintf("flow%d.bytes", ti)] = fs.ByteCount
	}
	if cs := sw.CacheStats(); cs != nil {
		snap["cache.hits"] = cs.Hits.Load()
		snap["cache.misses"] = cs.Misses.Load()
		snap["cache.inserts"] = cs.Inserts.Load()
		snap["cache.inval"] = cs.Invalidations.Load()
		snap["cache.evict"] = cs.Evictions.Load()
	}
	return snap
}

// TestBatchCounterExactness drives the same deterministic traffic —
// including duplicate flows inside one batch and a mid-run flow-mod
// that invalidates cached megaflows — through one switch frame by
// frame and through a twin in batches, and requires every observable
// counter to be identical. Batching must change no semantics.
func TestBatchCounterExactness(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []softswitch.Option
		// Under capacity-eviction pressure the batch probe — taken at
		// batch start — may legitimately hit an entry that a same-batch
		// insert later displaces, where a per-frame run would miss.
		// Forwarding counters stay identical either way; only the cache
		// hit/miss split may shift, with the total conserved.
		evictions bool
	}{
		{"cached", nil, false},
		{"uncached", []softswitch.Option{softswitch.WithFlowCacheSize(0)}, false},
		{"tiny-cache", []softswitch.Option{softswitch.WithFlowCacheSize(4)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			single := exactnessSwitch(t, tc.opts...)
			batched := exactnessSwitch(t, tc.opts...)

			// 24 flows over a 16-frame batch size: duplicates within a
			// batch, misses, and (for tiny-cache) evictions.
			genA := fabric.NewUDPGenerator(96, 24, 11)
			genB := fabric.NewUDPGenerator(96, 24, 11)
			const total, batchSize = 240, 16

			modOnce := func(sw *softswitch.Switch) {
				// A flow-mod between rounds bumps table revisions so
				// both switches see identical invalidation work.
				m := openflow.Match{}
				m.WithInPort(1).WithEthType(pkt.EtherTypeIPv4).
					WithIPv4Dst(pkt.IPv4{10, 9, 0, 99})
				if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
					TableID: 0, Command: openflow.FlowAdd, Priority: 2000,
					BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
					Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
						Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
					}},
				}); err != nil {
					t.Fatal(err)
				}
			}

			batch := make([][]byte, 0, batchSize)
			for sent := 0; sent < total; sent += batchSize {
				if sent == total/2 {
					modOnce(single)
					modOnce(batched)
				}
				batch = batch[:0]
				for i := 0; i < batchSize; i++ {
					fA := genA.CopyNext()
					single.Receive(1, fA)
					batch = append(batch, genB.CopyNext())
				}
				batched.ReceiveBatch(1, batch)
			}

			got, want := counterSnapshot(batched), counterSnapshot(single)
			for k, w := range want {
				if tc.evictions && (strings.HasPrefix(k, "cache.") || k == "cachelen") {
					continue
				}
				if got[k] != w {
					t.Errorf("%s: batched=%d single=%d", k, got[k], w)
				}
			}
			if len(got) != len(want) {
				t.Errorf("snapshot key mismatch: %d vs %d", len(got), len(want))
			}
			if tc.evictions {
				// The hit/miss split may shift under eviction pressure but
				// every frame is still classified exactly once.
				if gt, wt := got["cache.hits"]+got["cache.misses"], want["cache.hits"]+want["cache.misses"]; gt != wt {
					t.Errorf("hit+miss total: batched=%d single=%d", gt, wt)
				}
			}
			// Sanity: the run exercised the cache when enabled.
			if cs := single.CacheStats(); cs != nil && cs.Hits.Load() == 0 {
				t.Error("traffic never hit the cache — test is vacuous")
			}
		})
	}
}

// TestReceiveBatchLeavesTheVectorAlone: the vector a burst arrives in is
// borrowed and never written. The burst is one run on one cache entry
// whose program pops a tag, which re-slices each frame, and decrements
// the TTL, which drops the frame in its middle that arrives with TTL 1:
// the run is rewritten and compacted in the dispatch's scratch, and every
// element of the caller's vector still holds the slice it held before.
func TestReceiveBatchLeavesTheVectorAlone(t *testing.T) {
	sw := softswitch.New("borrow", 0xb0)
	sink := &depthBackend{}
	sw.AttachPort(2, "sink", sink)
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionPopVLAN{}, &openflow.ActionDecNwTTL{}, &openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	gen := fabric.NewUDPGenerator(64, 8, 3)
	tagged := func() []byte {
		f, err := pkt.PushVLAN(gen.Next(), pkt.EtherTypeDot1Q, 10)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	sw.Receive(1, tagged()) // walks the tables and installs the entry
	vec := make([][]byte, 8)
	for i := range vec {
		vec[i] = tagged()
	}
	vec[3][pkt.EthernetHeaderLen+pkt.Dot1QHeaderLen+8] = 1 // IPv4 TTL, in no key
	before := make([][]byte, len(vec))
	copy(before, vec)
	sw.ReceiveBatch(1, vec)

	for i := range vec {
		if len(vec[i]) != len(before[i]) || cap(vec[i]) != cap(before[i]) || &vec[i][0] != &before[i][0] {
			t.Errorf("element %d of the caller's vector was rewritten", i)
		}
	}
	if hits := sw.CacheStats().Hits.Load(); hits != 8 {
		t.Errorf("%d cache hits, want the burst's 8", hits)
	}
	if len(sink.frames) != 1+7 || sw.Drops() != 1 {
		t.Errorf("%d frames out and %d dropped, want 8 and 1", len(sink.frames), sw.Drops())
	}
	for i, f := range sink.frames {
		if pkt.HasVLAN(f) {
			t.Errorf("frame %d left tagged", i)
		}
	}
}

// depthBackend records the goroutine stack depth observed at egress.
type depthBackend struct {
	frames [][]byte
	depths []int
}

func (d *depthBackend) TransmitBatch(frames [][]byte) {
	var pcs [256]uintptr
	depth := runtime.Callers(0, pcs[:])
	for _, f := range frames {
		d.frames = append(d.frames, f)
		d.depths = append(d.depths, depth)
	}
}

// buildPatchChain wires hops switches in a line via patch ports
// (port 2 of sw[i] patches into port 1 of sw[i+1]), each forwarding
// in-port 1 to port 2, with a depth-recording sink on the last hop.
func buildPatchChain(t *testing.T, hops int, opts ...softswitch.Option) (*softswitch.Switch, *depthBackend) {
	t.Helper()
	sws := make([]*softswitch.Switch, hops)
	for i := range sws {
		sws[i] = softswitch.New(fmt.Sprintf("hop%d", i), uint64(0x100+i), opts...)
	}
	for i := 0; i+1 < hops; i++ {
		softswitch.ConnectPatch(sws[i], 2, sws[i+1], 1)
	}
	sink := &depthBackend{}
	sws[hops-1].AttachPort(2, "sink", sink)
	for _, sw := range sws {
		m := openflow.Match{}
		m.WithInPort(1)
		if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowAdd, Priority: 10,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sws[0], sink
}

// TestPatchChainIterative is the regression test for patch-port
// recursion: delivery across an S4-style chain must run at CONSTANT
// stack depth regardless of chain length, whether the cache entries
// follow the patch ports or, with no cache, the dispatch loop forwards
// grouped batches off a worklist instead of calling the peer switch per
// frame.
func TestPatchChainIterative(t *testing.T) {
	for name, opts := range map[string][]softswitch.Option{
		"followed": nil, "worklist": {softswitch.WithFlowCacheSize(0)},
	} {
		t.Run(name, func(t *testing.T) { testPatchChainIterative(t, opts) })
	}
}

func testPatchChainIterative(t *testing.T, opts []softswitch.Option) {
	gen := fabric.NewUDPGenerator(64, 4, 3)
	depthAt := func(hops, batchSize int) int {
		first, sink := buildPatchChain(t, hops, opts...)
		batch := make([][]byte, batchSize)
		for i := range batch {
			batch[i] = gen.CopyNext()
		}
		if batchSize == 1 {
			first.Receive(1, batch[0])
		} else {
			first.ReceiveBatch(1, batch)
		}
		if len(sink.frames) != batchSize {
			t.Fatalf("hops=%d: %d of %d frames crossed the chain", hops, len(sink.frames), batchSize)
		}
		for _, d := range sink.depths[1:] {
			if d != sink.depths[0] {
				t.Fatalf("hops=%d: egress depth varies across frames: %v", hops, sink.depths)
			}
		}
		return sink.depths[0]
	}

	if d2, d32 := depthAt(2, 8), depthAt(32, 8); d2 != d32 {
		t.Errorf("batched dispatch recurses: egress stack depth %d at 2 hops vs %d at 32 hops", d2, d32)
	}
	if d2, d32 := depthAt(2, 1), depthAt(32, 1); d2 != d32 {
		t.Errorf("per-frame dispatch recurses: egress stack depth %d at 2 hops vs %d at 32 hops", d2, d32)
	}
}

// TestPatchLoopEnds: two switches patched so that each sends the frame
// back out IN_PORT hand one batch back and forth until it has crossed
// the hop bound, and then drop it, counted: neither entry point spins.
// Sent back out port 1 by number instead, the frame is followed across
// by the recording walk and its cache entry, which stop at the same
// bound: every frame crosses the patch link maxPatchHops+1 times.
func TestPatchLoopEnds(t *testing.T) {
	for name, port := range map[string]uint32{"in_port": openflow.PortInPort, "port1": 1} {
		t.Run(name, func(t *testing.T) { testPatchLoopEnds(t, port) })
	}
}

func testPatchLoopEnds(t *testing.T, port uint32) {
	a, b := softswitch.New("a", 0x401), softswitch.New("b", 0x402)
	softswitch.ConnectPatch(a, 1, b, 1)
	for _, sw := range []*softswitch.Switch{a, b} {
		m := openflow.Match{}
		m.WithInPort(1)
		if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowAdd, Priority: 10,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: port, MaxLen: 0xffff}},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	gen := fabric.NewUDPGenerator(64, 4, 11)
	sent := 0
	for _, n := range []int{1, 8} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if n == 1 {
				a.Receive(1, gen.CopyNext())
				return
			}
			batch := make([][]byte, n)
			for i := range batch {
				batch[i] = gen.CopyNext()
			}
			a.ReceiveBatch(1, batch)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("a batch of %d looping between two patched switches never came back", n)
		}
		sent += n
		if drops := a.Drops() + b.Drops(); drops != uint64(sent) {
			t.Errorf("after %d frames: %d dropped, want all", sent, drops)
		}
		crossings := a.PortCounters(1).TxPackets.Load() + b.PortCounters(1).TxPackets.Load()
		if want := uint64(sent * (softswitch.MaxPatchHops + 1)); crossings != want {
			t.Errorf("after %d frames: %d patch crossings, want %d", sent, crossings, want)
		}
	}
}

// TestFollowAfterAnotherOutput: an action list that outputs to a port or
// to the controller before its last output, to a patch port, sends the
// frame both ways on every pass, the first (recording) one included.
func TestFollowAfterAnotherOutput(t *testing.T) {
	for name, first := range map[string]uint32{"port": 3, "controller": openflow.PortController} {
		t.Run(name, func(t *testing.T) {
			a, b := softswitch.New("a", 0x403), softswitch.New("b", 0x404)
			softswitch.ConnectPatch(a, 1, b, 1)
			mirror, sink := &depthBackend{}, &depthBackend{}
			a.AttachPort(3, "mirror", mirror)
			b.AttachPort(2, "sink", sink)
			for _, r := range []struct {
				sw    *softswitch.Switch
				in    uint32
				ports []uint32
			}{{a, 2, []uint32{first, 1}}, {b, 1, []uint32{2}}} {
				m := openflow.Match{}
				m.WithInPort(r.in)
				apply := &openflow.InstrApplyActions{}
				for _, p := range r.ports {
					apply.Actions = append(apply.Actions, &openflow.ActionOutput{Port: p, MaxLen: 64})
				}
				if _, err := r.sw.ApplyFlowMod(&openflow.FlowMod{
					Command: openflow.FlowAdd, Priority: 10, BufferID: openflow.NoBuffer,
					OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
					Match: m, Instructions: []openflow.Instruction{apply},
				}); err != nil {
					t.Fatal(err)
				}
			}
			gen := fabric.NewUDPGenerator(64, 4, 5)
			a.Receive(2, gen.CopyNext())
			a.ReceiveBatch(2, [][]byte{gen.CopyNext(), gen.CopyNext(), gen.CopyNext()})
			if len(sink.frames) != 4 || a.PortCounters(1).TxPackets.Load() != 4 || b.PortCounters(1).RxPackets.Load() != 4 {
				t.Errorf("%d of 4 frames left through the peer (patch tx %d, rx %d)", len(sink.frames),
					a.PortCounters(1).TxPackets.Load(), b.PortCounters(1).RxPackets.Load())
			}
			if first == 3 && len(mirror.frames) != 4 {
				t.Errorf("%d of 4 frames left through port 3", len(mirror.frames))
			}
		})
	}
}

// TestPatchChainOrderAndCounters checks that a batch crossing a chain
// arrives complete, in order, and with per-hop port counters equal to
// the injected totals.
func TestPatchChainOrderAndCounters(t *testing.T) {
	const hops, n = 5, 33
	first, sink := buildPatchChain(t, hops)
	gen := fabric.NewUDPGenerator(80, n, 9)
	batch := make([][]byte, n)
	want := make([][]byte, n)
	for i := range batch {
		batch[i] = gen.CopyNext()
		want[i] = append([]byte{}, batch[i]...)
	}
	first.ReceiveBatch(1, batch)
	if len(sink.frames) != n {
		t.Fatalf("delivered %d of %d", len(sink.frames), n)
	}
	for i := range want {
		if string(sink.frames[i]) != string(want[i]) {
			t.Fatalf("frame %d reordered or corrupted", i)
		}
	}
	if got := first.PortCounters(2).TxPackets.Load(); got != n {
		t.Errorf("hop0 patch tx = %d, want %d", got, n)
	}
}

// TestRingBackend drives a switch with a ring egress: frames come out
// in order, and overflow tail-drops are counted.
func TestRingBackend(t *testing.T) {
	sw := softswitch.New("ring", 0xf1)
	in := netem.NewLink(netem.LinkConfig{})
	defer in.Close()
	sw.AttachNetPort(1, "in", in.A())
	rb := softswitch.NewRingBackend(8)
	sw.AttachPort(2, "out", rb)
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	gen := fabric.NewUDPGenerator(64, 4, 5)
	batch := make([][]byte, 6)
	for i := range batch {
		batch[i] = gen.CopyNext()
	}
	sw.ReceiveBatch(1, batch)
	out := rb.Ring().Drain(nil, 0)
	if len(out) != 6 {
		t.Fatalf("ring drained %d of 6", len(out))
	}
	// Overflow: capacity 8, push 12 without draining.
	big := make([][]byte, 12)
	for i := range big {
		big[i] = gen.CopyNext()
	}
	sw.ReceiveBatch(1, big)
	if got := rb.Ring().Len(); got != 8 {
		t.Errorf("ring len = %d, want full at 8", got)
	}
	if rb.Dropped.Load() != 4 {
		t.Errorf("dropped = %d, want 4", rb.Dropped.Load())
	}
}

// countingClock counts how often the datapath asks for the time.
type countingClock struct {
	*netem.ManualClock
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.ManualClock.Now()
}

// TestOneClockReadPerDispatch pins the per-dispatch clock: a burst that
// crosses patched switches — every frame credited against a flow entry
// on each — costs one clock reading per clock change along the way,
// whatever the burst size: one in all when the switches share a clock.
// Idle timeouts keep working off that reading.
func TestOneClockReadPerDispatch(t *testing.T) {
	shared := &countingClock{ManualClock: netem.NewManualClock()}
	other := &countingClock{ManualClock: netem.NewManualClock()}
	clocks := []*countingClock{shared, other, shared}
	sws := make([]*softswitch.Switch, len(clocks))
	for i, c := range clocks {
		sws[i] = softswitch.New(fmt.Sprintf("clk%d", i), uint64(0x300+i), softswitch.WithClock(c))
	}
	for i := 0; i+1 < len(sws); i++ {
		softswitch.ConnectPatch(sws[i], 2, sws[i+1], 1)
	}
	sink := &depthBackend{}
	sws[len(sws)-1].AttachPort(2, "sink", sink)
	// forwardFlow installs in -> out with a 10 s idle timeout.
	forwardFlow := func(sw *softswitch.Switch, in, out uint32) {
		t.Helper()
		m := openflow.Match{}
		m.WithInPort(in)
		if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowAdd, Priority: 10, IdleTimeout: 10,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: out, MaxLen: 0xffff}},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sw := range sws {
		forwardFlow(sw, 1, 2)
	}
	gen := fabric.NewUDPGenerator(64, 4, 5)
	send := func(n int) {
		batch := make([][]byte, n)
		for i := range batch {
			batch[i] = gen.CopyNext()
		}
		if n == 1 {
			sws[0].Receive(1, batch[0])
		} else {
			sws[0].ReceiveBatch(1, batch)
		}
	}
	// The first burst is cold — every frame walks the tables — and
	// costs what the cached ones after it do.
	for _, n := range []int{8, 1, 32} {
		shared.reads, other.reads = 0, 0
		send(n)
		// shared -> other -> shared: the reading is kept per clock, so
		// going back to the first clock after the second reads it again.
		if shared.reads != 2 || other.reads != 1 {
			t.Errorf("burst of %d across three switches: %d + %d clock reads, want 2 + 1", n, shared.reads, other.reads)
		}
	}
	if len(sink.frames) != 8+1+32 {
		t.Fatalf("sink got %d frames", len(sink.frames))
	}

	// Same clock on every hop: one reading for the whole worklist.
	one := &countingClock{ManualClock: netem.NewManualClock()}
	a := softswitch.New("a", 0x310, softswitch.WithClock(one))
	b := softswitch.New("b", 0x311, softswitch.WithClock(one))
	softswitch.ConnectPatch(a, 2, b, 1)
	softswitch.ConnectPatch(b, 2, a, 3) // back into a, as SS_2 hands back to SS_1
	back := &depthBackend{}
	a.AttachPort(4, "out", back)
	forwardFlow(a, 1, 2)
	forwardFlow(b, 1, 2)
	forwardFlow(a, 3, 4)
	burst := func(n int) {
		batch := make([][]byte, n)
		for i := range batch {
			batch[i] = gen.CopyNext()
		}
		a.ReceiveBatch(1, batch)
	}
	for _, state := range []string{"cold", "cached"} {
		one.reads = 0
		burst(32)
		if one.reads != 1 {
			t.Errorf("a -> b -> a on one clock: %d clock reads for a %s 32-frame burst, want 1", one.reads, state)
		}
	}
	// The reading refreshes idle timeouts: a hit 6 s in keeps the 10 s
	// entries alive at 12 s, and without one they expire.
	one.Advance(6 * time.Second)
	burst(4)
	one.Advance(6 * time.Second)
	if removed := a.Table(0).ExpireEntries(); len(removed) != 0 {
		t.Errorf("entries hit 6 s ago expired: %v", removed)
	}
	one.Advance(11 * time.Second)
	if removed := a.Table(0).ExpireEntries(); len(removed) != 2 {
		t.Errorf("%d idle entries expired after 11 quiet seconds, want 2", len(removed))
	}
	if len(back.frames) != 32+32+4 {
		t.Errorf("%d frames came back out of a, want %d", len(back.frames), 32+32+4)
	}
}
