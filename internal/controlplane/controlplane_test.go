package controlplane

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/openflow"
)

// fakeDatapath answers barriers and records everything else.
type fakeDatapath struct {
	mu   sync.Mutex
	msgs []openflow.Message
}

func (d *fakeDatapath) Features() openflow.FeaturesReply {
	return openflow.FeaturesReply{DatapathID: 0xfeed, NTables: 4, NBuffers: 16}
}

func (d *fakeDatapath) Handle(ch *Channel, m openflow.Message) {
	d.mu.Lock()
	d.msgs = append(d.msgs, m)
	d.mu.Unlock()
	if _, ok := m.(*openflow.BarrierRequest); ok {
		_ = ch.Reply(m, &openflow.BarrierReply{})
	}
}

func testCfg() Config {
	// Keep keepalive quiet during short tests.
	return Config{EchoInterval: time.Minute}
}

// attachPair wires one controller client to a channel set over a pipe.
func attachPair(t *testing.T, set *ChannelSet, events Events) *Controller {
	t.Helper()
	swSide, ctrlSide := net.Pipe()
	set.Attach(swSide)
	ctrl, err := Connect(ctrlSide, testCfg(), events)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	t.Cleanup(func() { ctrl.Close() })
	return ctrl
}

func ctx(t *testing.T) context.Context {
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestHandshakeAndTypedRequests(t *testing.T) {
	dp := &fakeDatapath{}
	set := NewChannelSet(dp, testCfg())
	defer set.Close()
	ctrl := attachPair(t, set, Events{})

	if ctrl.DPID() != 0xfeed || ctrl.Features().NTables != 4 {
		t.Fatalf("features: %+v", ctrl.Features())
	}
	if err := ctrl.AwaitBarrier(ctx(t)); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	// Fresh connections are EQUAL until negotiated.
	role, _, err := ctrl.RequestRole(ctx(t), openflow.RoleNoChange, 0)
	if err != nil {
		t.Fatalf("role query: %v", err)
	}
	if role != openflow.RoleEqual {
		t.Fatalf("initial role %s, want equal", openflow.RoleName(role))
	}
	// Async masks round-trip through SET_ASYNC / GET_ASYNC.
	want := openflow.AsyncConfig{PacketInMask: [2]uint32{1, 1}, PortStatusMask: [2]uint32{7, 0}}
	if err := ctrl.SetAsyncConfig(want); err != nil {
		t.Fatal(err)
	}
	got, err := ctrl.AsyncConfig(ctx(t))
	if err != nil {
		t.Fatalf("get async: %v", err)
	}
	if got != want {
		t.Fatalf("async config %+v, want %+v", got, want)
	}
}

func TestRoleArbitration(t *testing.T) {
	dp := &fakeDatapath{}
	set := NewChannelSet(dp, testCfg())
	defer set.Close()
	a := attachPair(t, set, Events{})
	b := attachPair(t, set, Events{})

	// A takes mastership at epoch 1.
	role, gen, err := a.RequestRole(ctx(t), openflow.RoleMaster, 1)
	if err != nil || role != openflow.RoleMaster || gen != 1 {
		t.Fatalf("A master: role=%v gen=%d err=%v", role, gen, err)
	}
	// B overthrows with a higher epoch; the switch demotes A silently.
	role, gen, err = b.RequestRole(ctx(t), openflow.RoleMaster, 2)
	if err != nil || role != openflow.RoleMaster || gen != 2 {
		t.Fatalf("B master: role=%v gen=%d err=%v", role, gen, err)
	}
	role, _, err = a.RequestRole(ctx(t), openflow.RoleNoChange, 0)
	if err != nil || role != openflow.RoleSlave {
		t.Fatalf("A after demotion: role=%s err=%v", openflow.RoleName(role), err)
	}
	// A cannot reclaim mastership with a stale generation id.
	_, _, err = a.RequestRole(ctx(t), openflow.RoleMaster, 1)
	ofErr, ok := err.(*openflow.Error)
	if !ok || ofErr.ErrType != openflow.ErrTypeRoleRequestFailed || ofErr.Code != openflow.RoleRequestFailedStale {
		t.Fatalf("stale generation not rejected: %v", err)
	}
	// The switch still reports B as master, at B's epoch.
	if m := set.Master(); m == nil || m.Role() != openflow.RoleMaster {
		t.Fatal("set lost its master")
	}
	if g, ok := set.GenerationID(); !ok || g != 2 {
		t.Fatalf("generation id %d, want 2", g)
	}
	// A bad role value is rejected cleanly.
	_, _, err = a.RequestRole(ctx(t), 99, 3)
	if ofErr, ok := err.(*openflow.Error); !ok || ofErr.Code != openflow.RoleRequestFailedBadRole {
		t.Fatalf("bad role not rejected: %v", err)
	}
}

func TestAsyncEventFiltering(t *testing.T) {
	dp := &fakeDatapath{}
	set := NewChannelSet(dp, testCfg())
	defer set.Close()

	type rx struct {
		mu        sync.Mutex
		packetIns int
		portStats int
	}
	recv := func(r *rx) Events {
		return Events{
			PacketIn:   func(*openflow.PacketIn) { r.mu.Lock(); r.packetIns++; r.mu.Unlock() },
			PortStatus: func(*openflow.PortStatus) { r.mu.Lock(); r.portStats++; r.mu.Unlock() },
		}
	}
	var ra, rb rx
	a := attachPair(t, set, recv(&ra))
	b := attachPair(t, set, recv(&rb))

	if _, _, err := a.RequestRole(ctx(t), openflow.RoleMaster, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.RequestRole(ctx(t), openflow.RoleSlave, 1); err != nil {
		t.Fatal(err)
	}

	pi := &openflow.PacketIn{Reason: openflow.PacketInReasonNoMatch, BufferID: openflow.NoBuffer}
	pi.Match.WithInPort(1)
	if n := set.Broadcast(pi, pi.Reason); n != 1 {
		t.Fatalf("packet-in fan-out reached %d channels, want 1 (master only)", n)
	}
	ps := &openflow.PortStatus{Reason: openflow.PortReasonAdd}
	if n := set.Broadcast(ps, ps.Reason); n != 2 {
		t.Fatalf("port-status fan-out reached %d channels, want 2 (slaves keep port-status)", n)
	}

	// The slave widens its own filter via SET_ASYNC and starts seeing
	// packet-ins.
	cfg := openflow.DefaultAsyncConfig()
	cfg.PacketInMask[1] = cfg.PacketInMask[0]
	if err := b.SetAsyncConfig(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AsyncConfig(ctx(t)); err != nil { // fences the SetAsync
		t.Fatal(err)
	}
	if n := set.Broadcast(pi, pi.Reason); n != 2 {
		t.Fatalf("packet-in after slave SET_ASYNC reached %d channels, want 2", n)
	}

	// And the events actually landed on the right clients.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ra.mu.Lock()
		rb.mu.Lock()
		ok := ra.packetIns == 2 && ra.portStats == 1 && rb.packetIns == 1 && rb.portStats == 1
		ra.mu.Unlock()
		rb.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("event delivery: A{pi:%d ps:%d} B{pi:%d ps:%d}, want A{2,1} B{1,1}",
				ra.packetIns, ra.portStats, rb.packetIns, rb.portStats)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKeepaliveDeadPeer: a peer that stops reading and replying is
// torn down within three echo intervals, terminating an attached
// channel.
func TestKeepaliveDeadPeer(t *testing.T) {
	dp := &fakeDatapath{}
	set := NewChannelSet(dp, Config{EchoInterval: 10 * time.Millisecond})
	defer set.Close()

	swSide, peer := net.Pipe()
	ch := set.Attach(swSide)
	// The peer never reads and never speaks: liveness must kill the
	// channel even though the transport itself stays open.
	select {
	case <-ch.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("dead peer never detected")
	}
	peer.Close()
	if got := len(set.Channels()); got != 0 {
		t.Fatalf("dead channel still in set (%d)", got)
	}
}

// TestDialBackoffReconnect: an active-connect channel survives a
// controller restart — it backs off, redials, and completes a fresh
// handshake once the listener returns.
func TestDialBackoffReconnect(t *testing.T) {
	dp := &fakeDatapath{}
	set := NewChannelSet(dp, Config{EchoInterval: time.Minute})
	defer set.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	accepted := make(chan *Controller, 2)
	serve := func(l net.Listener) {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			ctrl, err := Connect(conn, testCfg(), Events{})
			if err == nil {
				accepted <- ctrl
			}
		}
	}
	go serve(l)

	ch := set.Dial(addr)
	var first *Controller
	select {
	case first = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("switch never dialed in")
	}
	if first.DPID() != 0xfeed {
		t.Fatalf("dpid %#x", first.DPID())
	}

	// Controller crash: listener and connection both go away. The
	// channel leaves Up and starts redialing into a dead address.
	l.Close()
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for ch.State() == StateUp {
		if time.Now().After(deadline) {
			t.Fatal("channel never noticed the controller dying")
		}
		time.Sleep(time.Millisecond)
	}

	// Give the backoff loop a few failed attempts, then restart the
	// listener on the same address.
	time.Sleep(30 * time.Millisecond)
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go serve(l2)

	var second *Controller
	select {
	case second = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("switch never redialed the restarted controller")
	}
	defer second.Close()
	if second.DPID() != 0xfeed {
		t.Fatalf("redial dpid %#x", second.DPID())
	}
	if ch.Redials() == 0 {
		t.Error("no backoff redials recorded")
	}
	deadline = time.Now().Add(5 * time.Second)
	for ch.State() != StateUp {
		if time.Now().After(deadline) {
			t.Fatalf("channel state %s after reconnect, want up", ch.State())
		}
		time.Sleep(time.Millisecond)
	}
	// The fresh connection renegotiated from scratch.
	if role, _, err := second.RequestRole(ctx(t), openflow.RoleNoChange, 0); err != nil || role != openflow.RoleEqual {
		t.Fatalf("role after reconnect: %s err=%v", openflow.RoleName(role), err)
	}
}

func TestBackoffSchedule(t *testing.T) {
	want := []time.Duration{backoffMin, 2 * backoffMin, 4 * backoffMin}
	for d := 8 * backoffMin; d < backoffMax; d *= 2 {
		want = append(want, d)
	}
	want = append(want, backoffMax, backoffMax)
	for i, w := range want {
		if got := backoff(i); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i, got, w)
		}
	}
}

// closeFailing is a transport whose Close fails with err after closing.
type closeFailing struct {
	net.Conn
	err error
}

func (c closeFailing) Close() error {
	_ = c.Conn.Close()
	return c.err
}

// TestPairCloseReportsBothSessions: closing a master/slave pair reports
// the transport close failure of each session.
func TestPairCloseReportsBothSessions(t *testing.T) {
	set := NewChannelSet(&fakeDatapath{}, testCfg())
	defer set.Close()
	errMaster, errSlave := errors.New("master transport"), errors.New("slave transport")
	swM, ctrlM := net.Pipe()
	swS, ctrlS := net.Pipe()
	set.Attach(swM)
	set.Attach(swS)
	p, err := ConnectPair(ctx(t), closeFailing{ctrlM, errMaster}, closeFailing{ctrlS, errSlave}, testCfg())
	if err != nil {
		t.Fatal(err)
	}
	err = p.Close()
	if !errors.Is(err, errMaster) || !errors.Is(err, errSlave) {
		t.Errorf("Close() = %v, want both %v and %v", err, errMaster, errSlave)
	}
}
