package harmless_test

// Controller-failover end to end: the acceptance scenario the
// multi-controller control plane exists for. Two controllers hold
// channels to one HARMLESS-S4; the master installs the forwarding
// state, dies mid-traffic, and the standby promotes itself with
// ROLE_REQUEST (generation_id honored) — while the datapath keeps
// forwarding the whole time with zero counter loss. A second test
// proves the active-connect channel redials a restarted controller
// with backoff through the full deployment stack.

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

func reqCtx(t *testing.T) context.Context {
	c, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return c
}

func TestControllerFailoverZeroLoss(t *testing.T) {
	// Two controller channels over in-memory transports; no in-process
	// app controller — this test is the controller.
	pipeA, ctrlSideA := net.Pipe()
	pipeB, ctrlSideB := net.Pipe()
	dep, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 4,
		Controllers: []controlplane.Endpoint{
			{Conn: pipeA},
			{Conn: pipeB},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	slaveErrs := make(chan *openflow.Error, 4)
	ctrlA, err := controlplane.Connect(ctrlSideA, controlplane.Config{}, controlplane.Events{})
	if err != nil {
		t.Fatalf("controller A handshake: %v", err)
	}
	defer ctrlA.Close()
	ctrlB, err := controlplane.Connect(ctrlSideB, controlplane.Config{}, controlplane.Events{
		SwitchError: func(e *openflow.Error) { slaveErrs <- e },
	})
	if err != nil {
		t.Fatalf("controller B handshake: %v", err)
	}
	defer ctrlB.Close()

	// Role election: A is master at epoch 1, B standby slave.
	pair, err := controlplane.Elect(reqCtx(t), ctrlA, ctrlB)
	if err != nil {
		t.Fatal(err)
	}
	if role, _, err := ctrlB.RequestRole(reqCtx(t), openflow.RoleNoChange, 0); err != nil || role != openflow.RoleSlave {
		t.Fatalf("B after election: role=%v err=%v", role, err)
	}

	// The slave's writes bounce with OFPBRC_IS_SLAVE before promotion.
	flood := func() *openflow.FlowMod {
		return &openflow.FlowMod{
			TableID: 0, Command: openflow.FlowAdd, Priority: 0,
			Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood, MaxLen: 0xffff}},
			}},
		}
	}
	if err := ctrlB.FlowMod(flood()); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-slaveErrs:
		if e.ErrType != openflow.ErrTypeBadRequest || e.Code != openflow.BadRequestIsSlave {
			t.Fatalf("slave write rejected with %v, want IS_SLAVE", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slave flow-mod was not rejected")
	}

	// The master installs the forwarding state and fences it.
	if err := ctrlA.FlowMod(flood()); err != nil {
		t.Fatal(err)
	}
	if err := ctrlA.AwaitBarrier(reqCtx(t)); err != nil {
		t.Fatalf("master barrier: %v", err)
	}

	ping := func(phase string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := dep.Hosts[1].Ping(fabric.HostIP(2), 2*time.Second); err != nil {
				t.Fatalf("%s ping %d h1->h2: %v", phase, i, err)
			}
			if err := dep.Hosts[2].Ping(fabric.HostIP(1), 2*time.Second); err != nil {
				t.Fatalf("%s ping %d h2->h1: %v", phase, i, err)
			}
		}
	}
	ping("pre-failover", 3)

	// Snapshot the datapath state through the master, then kill it
	// mid-traffic.
	statsBefore, err := ctrlA.FlowStats(reqCtx(t), 0)
	if err != nil || len(statsBefore) != 1 {
		t.Fatalf("flow stats via master: %v (%d entries)", err, len(statsBefore))
	}
	trunkRxBefore := dep.S4.SS1.PortCounters(1).RxPackets.Load()
	ctrlA.Close()

	// The datapath must keep forwarding with the master gone: the
	// flows are switch state, not channel state.
	ping("headless", 3)

	// Standby promotes with the next election epoch; a stale epoch is
	// refused first (generation_id honored).
	if _, _, err := ctrlB.RequestRole(reqCtx(t), openflow.RoleMaster, 0); err == nil {
		t.Fatal("stale generation_id accepted during failover")
	}
	if err := pair.Failover(reqCtx(t)); err != nil {
		t.Fatal(err)
	}
	role, gen, err := ctrlB.RequestRole(reqCtx(t), openflow.RoleNoChange, 0)
	if err != nil || pair.Master != ctrlB || role != openflow.RoleMaster || gen != 2 {
		t.Fatalf("B promotion: role=%v gen=%d err=%v", role, gen, err)
	}

	// The new master has full control (its writes are accepted now —
	// a fresh entry, so the in-place flood rule keeps its counters)
	// and sees continuous state: the original entry's counters carry
	// the pre-failover traffic plus the headless traffic — nothing
	// reset, nothing lost.
	marker := &openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 42, Cookie: 0xb,
		Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood, MaxLen: 0xffff}},
		}},
	}
	marker.Match.WithInPort(3)
	if err := ctrlB.FlowMod(marker); err != nil {
		t.Fatal(err)
	}
	if err := ctrlB.AwaitBarrier(reqCtx(t)); err != nil {
		t.Fatalf("new master barrier: %v", err)
	}
	select {
	case e := <-slaveErrs:
		t.Fatalf("promoted master's write rejected: %v", e)
	default:
	}
	statsAfter, err := ctrlB.FlowStats(reqCtx(t), 0)
	if err != nil || len(statsAfter) != 2 {
		t.Fatalf("flow stats via new master: %v (%d entries, want flood+marker)", err, len(statsAfter))
	}
	var floodAfter *openflow.FlowStats
	for i := range statsAfter {
		if statsAfter[i].Priority == 0 {
			floodAfter = &statsAfter[i]
		}
	}
	if floodAfter == nil {
		t.Fatal("flood entry vanished across failover")
	}
	if floodAfter.PacketCount < statsBefore[0].PacketCount {
		t.Fatalf("flow counters went backwards across failover: %d -> %d",
			statsBefore[0].PacketCount, floodAfter.PacketCount)
	}
	if floodAfter.PacketCount == statsBefore[0].PacketCount {
		t.Fatal("flow counters did not advance during headless traffic")
	}
	if trunkRxAfter := dep.S4.SS1.PortCounters(1).RxPackets.Load(); trunkRxAfter <= trunkRxBefore {
		t.Fatalf("trunk rx stalled across failover: %d -> %d", trunkRxBefore, trunkRxAfter)
	}
	ping("post-promotion", 3)
}

// TestControllerFailoverWithLearningApps is the same takeover with the
// demo's own app on both controllers: two controller.Controllers, each
// running its own learning switch, share one HARMLESS-S4. A is master
// and learns the hosts; B, the slave, is shown no PACKET_IN. A's
// transport dies while h1 and h2 are exchanging traffic; B takes over
// at generation 2. The established flows lose nothing, and a host pair
// only B's app ever hears of is learned and served by B.
func TestControllerFailoverWithLearningApps(t *testing.T) {
	pingsAfter := 50
	if testing.Short() {
		pingsAfter = 10
	}
	learnA, learnB := &apps.Learning{Table: 0}, &apps.Learning{Table: 0}
	type attached struct {
		h   *controller.SwitchHandle
		err error
	}
	attach := func(l *apps.Learning) (net.Conn, net.Conn, <-chan attached) {
		swSide, ctrlSide := net.Pipe()
		done := make(chan attached, 1)
		go func() {
			h, err := controller.New([]controller.App{l}).AttachConn(ctrlSide)
			done <- attached{h, err}
		}()
		return swSide, ctrlSide, done
	}
	swA, transportA, doneA := attach(learnA)
	swB, _, doneB := attach(learnB)
	dep, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts:    5,
		Controllers: []controlplane.Endpoint{{Conn: swA}, {Conn: swB}},
	})
	if err != nil {
		swA.Close()
		swB.Close()
		t.Fatal(err)
	}
	defer dep.Close()
	a, b := <-doneA, <-doneB
	if a.err != nil || b.err != nil {
		t.Fatalf("attach: A %v, B %v", a.err, b.err)
	}
	pair, err := controlplane.Elect(reqCtx(t), a.h.Controller, b.h.Controller)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.Close()
	dpid := dep.S4.SS2.DatapathID()

	h1, h2 := dep.Hosts[1], dep.Hosts[2]
	if err := h1.Ping(h2.IP, 2*time.Second); err != nil {
		t.Fatalf("h1->h2 under master A: %v", err)
	}
	if p, ok := learnA.Lookup(dpid, h1.MAC); !ok || p != 1 {
		t.Fatalf("master's app did not learn h1 (port %d, %v)", p, ok)
	}
	if seen := learnB.MACTable(dpid); len(seen) != 0 {
		t.Fatalf("slave's app was shown PACKET_INs: %v", seen)
	}

	// Traffic on the established flows, across the whole takeover.
	var pings atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := h1.Ping(h2.IP, 2*time.Second); err != nil {
				t.Errorf("established flow lost a frame after %d pings: %v", pings.Load(), err)
				return
			}
			pings.Add(1)
		}
	}()
	waitPings := func(n int64) {
		t.Helper()
		for target, deadline := pings.Load()+n, time.Now().Add(10*time.Second); pings.Load() < target; {
			if time.Now().After(deadline) || t.Failed() {
				t.Fatalf("traffic stalled at %d pings", pings.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitPings(3)
	pktInsBefore := dep.S4.SS2.PacketIns()
	transportA.Close()
	select {
	case <-a.h.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("controller A's session outlived its transport")
	}
	waitPings(3) // headless: the flows are switch state
	if err := pair.Failover(reqCtx(t)); err != nil {
		t.Fatal(err)
	}
	if role, gen, err := b.h.RequestRole(reqCtx(t), openflow.RoleNoChange, 0); err != nil || role != openflow.RoleMaster || gen != 2 {
		t.Fatalf("B after takeover: role=%v gen=%d err=%v", role, gen, err)
	}
	waitPings(int64(pingsAfter))
	if n := dep.S4.SS2.PacketIns(); n != pktInsBefore {
		t.Errorf("established flows fell back to the controller: %d PACKET_INs during the takeover", n-pktInsBefore)
	}

	// A pair only B has ever heard of.
	h3, h4 := dep.Hosts[3], dep.Hosts[4]
	if err := h3.Ping(h4.IP, 2*time.Second); err != nil {
		t.Fatalf("h3->h4 under new master B: %v", err)
	}
	if p, ok := learnB.Lookup(dpid, h3.MAC); !ok || p != 3 {
		t.Fatalf("new master's app did not learn h3 (port %d, %v)", p, ok)
	}
	if _, ok := learnA.Lookup(dpid, h3.MAC); ok {
		t.Fatal("dead controller's app learned h3")
	}
	close(stop)
	<-stopped
	if d := dep.S4.SS1.Drops() + dep.S4.SS2.Drops(); d != 0 {
		t.Fatalf("datapath dropped %d frames across the takeover", d)
	}
}

// TestControllerReconnectBackoffE2E: a deployment dialing an external
// controller address keeps the channel alive across a controller
// restart — exponential-backoff redial against the dead address, then
// a fresh handshake (and re-install of forwarding state) when the
// listener comes back.
func TestControllerReconnectBackoffE2E(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	accepted := make(chan *controlplane.Controller, 2)
	serve := func(l net.Listener) {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			ctrl, err := controlplane.Connect(conn, controlplane.Config{}, controlplane.Events{})
			if err == nil {
				accepted <- ctrl
			}
		}
	}
	go serve(l)

	dep, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts:    4,
		Controllers: []controlplane.Endpoint{{Addr: addr}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	chans := dep.S4.Agent().Channels()
	if len(chans) != 1 || chans[0].RemoteAddr() != addr {
		t.Fatalf("agent channels: %v", chans)
	}
	ch := chans[0]

	var first *controlplane.Controller
	select {
	case first = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("switch never dialed the controller")
	}
	if first.DPID() != dep.S4.SS2.DatapathID() {
		t.Fatalf("dpid %#x, want %#x", first.DPID(), dep.S4.SS2.DatapathID())
	}

	// Controller restart: listener and connection die, the channel
	// must back off and redial until the address answers again.
	l.Close()
	first.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go serve(l2)

	var second *controlplane.Controller
	select {
	case second = <-accepted:
	case <-time.After(10 * time.Second):
		t.Fatal("switch never redialed the restarted controller")
	}
	defer second.Close()
	if second.DPID() != dep.S4.SS2.DatapathID() {
		t.Fatalf("redial dpid %#x", second.DPID())
	}
	// The redialed channel is fully functional: role negotiation and
	// typed stats work over the new transport.
	if role, _, err := second.RequestRole(reqCtx(t), openflow.RoleMaster, 1); err != nil || role != openflow.RoleMaster {
		t.Fatalf("role over redialed channel: %v err=%v", role, err)
	}
	if _, err := second.PortStats(reqCtx(t)); err != nil {
		t.Fatalf("port stats over redialed channel: %v", err)
	}
	if ch.Redials() == 0 {
		t.Error("channel reports no backoff redials across the restart")
	}
}
