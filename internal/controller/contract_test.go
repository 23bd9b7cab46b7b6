package controller_test

import (
	"bytes"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// quiet keeps the session's keepalive out of scripted exchanges.
var quiet = controlplane.Config{EchoInterval: -1}

// scriptedSwitch is the switch end of a control channel driven by the
// test message by message, for orderings a real agent cannot produce.
type scriptedSwitch struct {
	t    *testing.T
	conn *openflow.Conn
	rx   chan openflow.Message
}

func newScriptedSwitch(t *testing.T) (*scriptedSwitch, net.Conn) {
	swSide, ctrlSide := net.Pipe()
	s := &scriptedSwitch{t: t, conn: openflow.NewConn(swSide), rx: make(chan openflow.Message, 64)}
	t.Cleanup(func() { s.conn.Close() })
	go func() {
		defer close(s.rx)
		for {
			m, err := s.conn.Recv()
			if err != nil {
				return
			}
			s.rx <- m
		}
	}()
	return s, ctrlSide
}

func (s *scriptedSwitch) send(m openflow.Message) {
	if err := s.conn.Send(m); err != nil {
		s.t.Errorf("scripted switch: send %T: %v", m, err)
	}
}

// expect returns the next message from the controller, which must have
// type M.
func expect[M openflow.Message](s *scriptedSwitch) M {
	select {
	case m := <-s.rx:
		if typed, ok := m.(M); ok {
			return typed
		}
		s.t.Errorf("scripted switch: got %T, want %T", m, *new(M))
	case <-time.After(5 * time.Second):
		s.t.Errorf("scripted switch: no %T from the controller", *new(M))
	}
	return *new(M)
}

// handshake plays HELLO and FEATURES; between FEATURES_REQUEST and its
// reply it sends early, the events a switch may emit at any time.
func (s *scriptedSwitch) handshake(dpid uint64, early ...openflow.Message) {
	s.send(&openflow.Hello{})
	expect[*openflow.Hello](s)
	req := expect[*openflow.FeaturesRequest](s)
	if req == nil {
		return
	}
	for _, m := range early {
		s.send(m)
	}
	reply := &openflow.FeaturesReply{DatapathID: dpid, NTables: 1}
	reply.SetXID(req.XID())
	s.send(reply)
}

// event builds the i-th event of a run: mostly PACKET_INs, with a
// FLOW_REMOVED and a PORT_STATUS mixed in; i rides in the cookie, the
// or the port number.
func event(i int) openflow.Message {
	switch i % 5 {
	case 3:
		return &openflow.FlowRemoved{Cookie: uint64(i)}
	case 4:
		return &openflow.PortStatus{Desc: openflow.PortDesc{PortNo: uint32(i)}}
	}
	return &openflow.PacketIn{BufferID: openflow.NoBuffer, Cookie: uint64(i), Data: []byte{byte(i)}}
}

// contractApp checks the App contract from the inside. Its fields are
// deliberately plain: if two callbacks of the switch ever overlapped,
// or SwitchConnected did not happen-before an event, -race reports the
// accesses, and busy catches the overlap without the detector.
type contractApp struct {
	controller.BaseApp
	t         *testing.T
	dawdle    time.Duration // time spent inside SwitchConnected, and again inside the first event
	first     chan struct{} // closed when the first event is delivered
	busy      atomic.Int32
	connected bool
	next      int
	delivered atomic.Int64
}

func (a *contractApp) Name() string { return "contract" }

func (a *contractApp) enter() {
	if a.busy.Add(1) != 1 {
		a.t.Error("two callbacks of one switch overlap")
	}
}

func (a *contractApp) SwitchConnected(*controller.SwitchHandle) {
	a.enter()
	defer a.busy.Add(-1)
	if a.next != 0 {
		a.t.Errorf("SwitchConnected after %d events", a.next)
	}
	time.Sleep(a.dawdle)
	a.connected = true
}

func (a *contractApp) got(i int) {
	a.enter()
	defer a.busy.Add(-1)
	if !a.connected {
		a.t.Errorf("event %d delivered before SwitchConnected finished", i)
	}
	if i != a.next {
		a.t.Errorf("event %d delivered in position %d", i, a.next)
	}
	if a.next == 0 {
		close(a.first)
		time.Sleep(a.dawdle)
	}
	a.next++
	a.delivered.Add(1)
}

func (a *contractApp) PacketIn(_ *controller.SwitchHandle, pi *openflow.PacketIn) {
	a.got(int(pi.Cookie))
}
func (a *contractApp) FlowRemoved(_ *controller.SwitchHandle, fr *openflow.FlowRemoved) {
	a.got(int(fr.Cookie))
}
func (a *contractApp) PortStatus(_ *controller.SwitchHandle, ps *openflow.PortStatus) {
	a.got(int(ps.Desc.PortNo))
}

// TestAppContract: SwitchConnected strictly precedes the first event,
// arrival order is kept and no two callbacks of a switch overlap —
// wherever in the session's life the events arrive. Run it under -race.
func TestAppContract(t *testing.T) {
	rounds, events := 20, 500
	if testing.Short() {
		rounds, events = 5, 100
	}
	cases := []struct {
		name   string
		early  int           // events sent before FEATURES_REPLY
		dawdle time.Duration // events stream while SwitchConnected runs, then while the replay does
	}{
		{name: "queued before FEATURES_REPLY", early: 8},
		{name: "racing SwitchConnected", dawdle: 2 * time.Millisecond},
		{name: "queued and racing", early: 8, dawdle: 2 * time.Millisecond},
		{name: "steady state"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				app := &contractApp{t: t, dawdle: tc.dawdle, first: make(chan struct{})}
				ctrl := controller.New([]controller.App{app}, quiet)
				sw, ctrlSide := newScriptedSwitch(t)
				streamed := make(chan struct{})
				go func() {
					defer close(streamed)
					var early []openflow.Message
					for i := 0; i < tc.early; i++ {
						early = append(early, event(i))
					}
					sw.handshake(0xc0, early...)
					if tc.dawdle == 0 && tc.early == 0 {
						return // steady state: the test sends once attached
					}
					for i := tc.early; i < events; i++ {
						if i == events/2 && tc.dawdle > 0 {
							<-app.first // the rest arrives while held events are replayed
						}
						sw.send(event(i))
					}
				}()
				h, err := ctrl.AttachConn(ctrlSide)
				if err != nil {
					t.Fatal(err)
				}
				<-streamed
				if tc.dawdle == 0 && tc.early == 0 {
					for i := 0; i < events; i++ {
						sw.send(event(i))
					}
				}
				waitFor(t, "all events delivered", func() bool { return app.delivered.Load() == int64(events) })
				h.Close()
			}
		})
	}
}

// TestBarrierInsideSwitchConnected: an app may fence its proactive
// flows from inside SwitchConnected, and Barrier returns only once the
// switch has replied. Events arriving meanwhile wait their turn, and an
// ECHO_REQUEST is answered under its own transaction id.
func TestBarrierInsideSwitchConnected(t *testing.T) {
	app := &barrierApp{returned: make(chan error, 1), pktIn: make(chan struct{}, 1)}
	ctrl := controller.New([]controller.App{app}, quiet)
	sw, ctrlSide := newScriptedSwitch(t)
	attached := make(chan error, 1)
	go func() {
		_, err := ctrl.AttachConn(ctrlSide)
		attached <- err
	}()
	sw.handshake(0xba)
	expect[*openflow.FlowMod](sw)
	barrier := expect[*openflow.BarrierRequest](sw)
	if barrier == nil {
		t.FailNow()
	}

	sw.send(event(0))
	echo := &openflow.EchoRequest{Data: []byte("ping")}
	echo.SetXID(0x5eed)
	sw.send(echo)
	if reply := expect[*openflow.EchoReply](sw); reply != nil && (reply.XID() != 0x5eed || string(reply.Data) != "ping") {
		t.Errorf("ECHO_REPLY xid %#x data %q, want the request's %#x %q", reply.XID(), reply.Data, 0x5eed, "ping")
	}
	// The echo round trip proves the session is reading; the barrier is
	// still unanswered, so nothing may have moved.
	select {
	case err := <-app.returned:
		t.Fatalf("Barrier returned (%v) before the switch replied", err)
	case <-app.pktIn:
		t.Fatal("PACKET_IN delivered while SwitchConnected was still running")
	case err := <-attached:
		t.Fatalf("AttachConn returned (%v) while SwitchConnected was still running", err)
	case <-time.After(20 * time.Millisecond):
	}

	reply := &openflow.BarrierReply{}
	reply.SetXID(barrier.XID())
	sw.send(reply)
	for _, step := range []struct {
		what string
		ch   <-chan error
	}{{"Barrier", app.returned}, {"AttachConn", attached}} {
		select {
		case err := <-step.ch:
			if err != nil {
				t.Fatalf("%s: %v", step.what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never returned after BARRIER_REPLY", step.what)
		}
	}
	select {
	case <-app.pktIn:
	case <-time.After(5 * time.Second):
		t.Fatal("held PACKET_IN never replayed")
	}
}

type barrierApp struct {
	controller.BaseApp
	returned chan error
	pktIn    chan struct{}
}

func (a *barrierApp) Name() string { return "barrier" }

func (a *barrierApp) SwitchConnected(sw *controller.SwitchHandle) {
	_ = sw.InstallTableMiss(0)
	a.returned <- sw.Barrier()
}

func (a *barrierApp) PacketIn(*controller.SwitchHandle, *openflow.PacketIn) { a.pktIn <- struct{}{} }

// panicOnThird panics on the third PACKET_IN it sees.
type panicOnThird struct {
	controller.BaseApp
	seen atomic.Int32
}

func (*panicOnThird) Name() string { return "panic-on-third" }

func (p *panicOnThird) PacketIn(*controller.SwitchHandle, *openflow.PacketIn) {
	if p.seen.Add(1) == 3 {
		panic("third PACKET_IN")
	}
}

// syncBuffer is a log sink the test can read while sessions write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAppPanicCostsOneSession is the failure policy: a panicking app
// callback is recovered at the dispatch boundary, counted and logged;
// that switch's session dies with the panic as its Err; its datapath
// keeps forwarding what is installed and sees a dead peer; the other
// switch's session carries on.
func TestAppPanicCostsOneSession(t *testing.T) {
	var logged syncBuffer
	learning := &apps.Learning{Table: 0}
	ctrl := controller.New([]controller.App{learning, &panicOnThird{}},
		controlplane.Config{EchoInterval: -1, Logger: log.New(&logged, "", 0)})

	type node struct {
		sw    *softswitch.Switch
		agent *softswitch.Agent
		h     *controller.SwitchHandle
		far   [3]*netem.Port // index = port number
		rx    [3]*collector
	}
	attach := func(dpid uint64) *node {
		n := &node{sw: softswitch.New("sw", dpid)}
		for p := uint32(1); p <= 2; p++ {
			l := netem.NewLink(netem.LinkConfig{})
			t.Cleanup(l.Close)
			n.sw.AttachNetPort(p, "p", l.A())
			n.far[p], n.rx[p] = l.B(), &collector{}
			l.B().SetReceiver(n.rx[p].receiver())
		}
		c1, c2 := net.Pipe()
		n.agent = n.sw.StartAgent(c2, 0)
		t.Cleanup(n.agent.Stop)
		h, err := ctrl.AttachConn(c1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Barrier(); err != nil {
			t.Fatal(err)
		}
		n.h = h
		return n
	}
	a, b := attach(0xa), attach(0xb)

	// Two PACKET_INs teach the learning app both hosts of switch A and
	// leave a flow towards mac1; the third takes the session down.
	send := func(n *node, port int, f []byte) {
		t.Helper()
		if err := n.far[port].Send(f); err != nil {
			t.Fatal(err)
		}
	}
	send(a, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1, 2, "one"))
	waitFor(t, "first PACKET_IN flooded", func() bool { return a.rx[2].count() == 1 })
	send(a, 2, udpFrame(t, mac2, mac1, ip2, ip1, 2, 1, "two"))
	waitFor(t, "flow towards mac1", func() bool { return a.sw.Table(0).Len() == 2 })
	send(a, 1, udpFrame(t, mac1, mac3, ip1, ip3, 1, 3, "three"))

	select {
	case <-a.h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session of the switch whose app panicked is still up")
	}
	if err := a.h.Err(); err == nil || !strings.Contains(err.Error(), "third PACKET_IN") {
		t.Fatalf("Err() = %v, want the panic", err)
	}
	if n := ctrl.AppPanics.Load(); n != 1 {
		t.Fatalf("AppPanics = %d, want 1", n)
	}
	if !strings.Contains(logged.String(), "app panic on switch 0xa") {
		t.Fatalf("panic not logged: %q", logged.String())
	}
	waitFor(t, "switch A unregistered", func() bool { _, ok := ctrl.Switch(0xa); return !ok })
	waitFor(t, "switch A sees a dead peer", func() bool { return len(a.agent.Channels()) == 0 })

	// A's datapath still forwards the installed flow, headless.
	before := a.rx[1].count()
	send(a, 2, udpFrame(t, mac2, mac1, ip2, ip1, 2, 1, "headless"))
	waitFor(t, "installed flow still forwards", func() bool { return a.rx[1].count() == before+1 })

	// B's session never noticed.
	if _, ok := ctrl.Switch(0xb); !ok || b.h.Err() != nil {
		t.Fatalf("switch B lost its session: %v", b.h.Err())
	}
	send(b, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1, 2, "b"))
	waitFor(t, "switch B still served", func() bool {
		port, ok := learning.Lookup(0xb, mac1)
		return ok && port == 1 && b.rx[2].count() == 1
	})

	// A flow-mod the switch rejects comes back as an unsolicited ERROR:
	// counted and logged, not dropped.
	if err := b.h.InstallFlow(200, 1, openflow.Match{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "switch ERROR counted", func() bool { return ctrl.SwitchErrors.Load() == 1 })
	if !strings.Contains(logged.String(), "switch 0xb error") {
		t.Fatalf("switch ERROR not logged: %q", logged.String())
	}
}
