package controller_test

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// countingConn counts the transport operations that moved bytes.
type countingConn struct {
	io.ReadWriteCloser
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.ReadWriteCloser.Write(p)
}

// setupRig is the reactive path end to end: a real switch whose every
// frame to a known destination misses, the learning app behind a
// net.Pipe, and a sink on port 2 that says when the PACKET_OUT arrived.
type setupRig struct {
	sw             *softswitch.Switch
	in             *netem.Port
	frames         [][]byte // frame i goes to destination i, learned behind port 2
	arena          [][]byte // the copies sent: the datapath owns what it is sent
	next           int
	delivered      chan struct{}
	timeout        *time.Timer
	swEnd, ctrlEnd *countingConn
}

func setupDst(i int) pkt.MAC { return pkt.MAC{0x02, 0xdd, 0, 0, byte(i >> 8), byte(i)} }

func newSetupRig(tb testing.TB, flows int) *setupRig {
	tb.Helper()
	r := &setupRig{sw: softswitch.New("ss2", 0x42), delivered: make(chan struct{}, 1), timeout: time.NewTimer(time.Hour)}
	l1, l2 := netem.NewLink(netem.LinkConfig{}), netem.NewLink(netem.LinkConfig{})
	tb.Cleanup(l1.Close)
	tb.Cleanup(l2.Close)
	r.sw.AttachNetPort(1, "in", l1.A())
	r.sw.AttachNetPort(2, "out", l2.A())
	r.in = l1.B()
	l2.B().SetReceiver(func([]byte) { r.delivered <- struct{}{} })

	c1, c2 := net.Pipe()
	r.swEnd, r.ctrlEnd = &countingConn{ReadWriteCloser: c2}, &countingConn{ReadWriteCloser: c1}
	agent := r.sw.NewAgent(quiet, 0)
	agent.Attach(r.swEnd)
	tb.Cleanup(agent.Stop)
	learning := &apps.Learning{Table: 0}
	h, err := controller.New([]controller.App{learning}, quiet).AttachConn(r.ctrlEnd)
	if err != nil {
		tb.Fatal(err)
	}
	if err := h.Barrier(); err != nil {
		tb.Fatal(err)
	}
	// Teach the app every destination: a broadcast from each, in at
	// port 2 (flooded out of port 1, where nobody listens).
	for i := 0; i < flows; i++ {
		if err := l2.B().Send(udpFrame(tb, setupDst(i), pkt.BroadcastMAC, ip2, ip1, 7, 7, "hello")); err != nil {
			tb.Fatal(err)
		}
		r.frames = append(r.frames, udpFrame(tb, mac1, setupDst(i), ip1, ip2, 7, 7, "payload"))
	}
	r.arena = make([][]byte, 8) // one frame is in flight at a time
	for i := range r.arena {
		r.arena[i] = make([]byte, 0, len(r.frames[0])+32)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if port, ok := learning.Lookup(0x42, setupDst(flows-1)); ok && port == 2 {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("the learning app never saw the destinations")
		}
		time.Sleep(time.Millisecond)
	}
	return r
}

// setup is one flow set-up: a frame with no flow in, PACKET_IN →
// Learning → FLOW_MOD + PACKET_OUT, the frame out of port 2. After the
// last destination the learned flows are flushed, as the repository
// benchmark's reactive rounds do.
func (r *setupRig) setup(tb testing.TB) {
	if err := r.in.Send(append(r.arena[r.next%len(r.arena)], r.frames[r.next]...)); err != nil {
		tb.Fatal(err)
	}
	r.timeout.Reset(3 * time.Second)
	select {
	case <-r.delivered:
	case <-r.timeout.C:
		tb.Fatal("the PACKET_OUT never delivered the frame")
	}
	if r.next++; r.next == len(r.frames) {
		r.next = 0
		r.flush(tb)
	}
}

func (r *setupRig) flush(tb testing.TB) {
	wild := &openflow.FlowMod{Command: openflow.FlowDelete, BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny}
	miss := &openflow.FlowMod{Command: openflow.FlowAdd, BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff}},
		}}}
	for _, fm := range []*openflow.FlowMod{wild, miss} {
		if _, err := r.sw.ApplyFlowMod(fm); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFlowSetupCrossesTheChannelOnceEachWay pins what the control
// channel's design promises by construction, not by timing: a flow
// set-up is one transport write and one read towards the controller
// (the PACKET_IN) and one write and one read back (FLOW_MOD and
// PACKET_OUT together), every time.
func TestFlowSetupCrossesTheChannelOnceEachWay(t *testing.T) {
	const flows = 64
	r := newSetupRig(t, flows)
	counts := func() [4]int64 {
		return [4]int64{r.swEnd.writes.Load(), r.ctrlEnd.reads.Load(), r.ctrlEnd.writes.Load(), r.swEnd.reads.Load()}
	}
	for i := 0; i < flows-1; i++ { // stops short of the flush: only set-ups cross
		before := counts()
		r.setup(t)
		after := counts()
		for j, what := range []string{"switch writes", "controller reads", "controller writes", "switch reads"} {
			if d := after[j] - before[j]; d != 1 {
				t.Fatalf("set-up %d: %d %s, want 1", i, d, what)
			}
		}
	}
	if n := r.sw.Table(0).Len(); n != flows {
		t.Fatalf("table holds %d entries after %d set-ups and the table-miss entry", n, flows-1)
	}
}

// TestFlowSetupAllocs bounds the allocations of the whole round trip,
// every goroutine of both ends included (55 before the codec appended in
// place and decoded without copies).
func TestFlowSetupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	r := newSetupRig(t, 1024)
	// Warm like the repository benchmark, 40 rounds: pools, buffers and
	// maps at their working size, and the flow cache's shards all in
	// bypass (until then a set-up also pays three allocations to install
	// a megaflow that the next flow-mod invalidates).
	for i := 0; i < 40*1024; i++ {
		r.setup(t)
	}
	allocs := testing.AllocsPerRun(1000, func() { r.setup(t) })
	t.Logf("%.0f allocations per flow set-up", allocs)
	if allocs > 25 {
		t.Errorf("a flow set-up costs %.0f allocations, want at most 25", allocs)
	}
}

// BenchmarkFlowSetup is the in-package reading of the repository
// benchmark's reactive_64B: one flow set-up over net.Pipe, closed loop.
// The flush after every 1024th is timed with the rest (a thousandth of a
// microsecond-scale operation each).
func BenchmarkFlowSetup(b *testing.B) {
	r := newSetupRig(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.setup(b)
	}
}
