package apps

import (
	"net"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// End-to-end behaviour of these apps is covered by the controller and
// root experiment suites; this file unit-tests the pure policy logic
// and the apps' own bookkeeping of connected switches.

func TestDMZNormalizePair(t *testing.T) {
	a, b := pkt.MustIPv4("10.0.0.1"), pkt.MustIPv4("10.0.0.2")
	if normalizePair(a, b) != normalizePair(b, a) {
		t.Error("pair not order-independent")
	}
	d := &DMZ{}
	d.Permit(b, a)
	if !d.Permitted(a, b) {
		t.Error("permit not symmetric")
	}
	d.Revoke(a, b)
	if d.Permitted(b, a) {
		t.Error("revoke not symmetric")
	}
}

func TestParentalControlSuffixMatch(t *testing.T) {
	user := pkt.MustIPv4("10.0.0.1")
	other := pkt.MustIPv4("10.0.0.2")
	pc := &ParentalControl{}
	pc.BlockDomain(user, "Videos.Example")

	cases := []struct {
		who  pkt.IPv4
		name string
		want bool
	}{
		{user, "videos.example", true},
		{user, "VIDEOS.EXAMPLE", true},
		{user, "www.videos.example", true},
		{user, "deep.cdn.videos.example", true},
		{user, "notvideos.example", false}, // suffix must be label-aligned
		{user, "videos.example.evil", false},
		{user, "other.example", false},
		{other, "videos.example", false}, // per-user policy
	}
	for _, c := range cases {
		if got := pc.isBlocked(c.who, c.name); got != c.want {
			t.Errorf("isBlocked(%s, %q) = %v, want %v", c.who, c.name, got, c.want)
		}
	}
	pc.UnblockDomain(user, "videos.example")
	if pc.isBlocked(user, "videos.example") {
		t.Error("unblock ignored")
	}
}

func TestLoadBalancerPartitioningPredicate(t *testing.T) {
	mk := func(n int) *LoadBalancer {
		lb := &LoadBalancer{}
		for i := 0; i < n; i++ {
			lb.Backends = append(lb.Backends, Backend{Port: uint32(i + 1)})
		}
		return lb
	}
	cases := map[int]bool{0: false, 1: true, 2: true, 3: false, 4: true, 6: false, 8: true}
	for n, want := range cases {
		if got := mk(n).usesSourcePartitioning(); got != want {
			t.Errorf("n=%d: %v, want %v", n, got, want)
		}
	}
}

func TestBackendName(t *testing.T) {
	b := Backend{IP: pkt.MustIPv4("10.0.0.5"), Port: 3}
	if BackendName(b) != "10.0.0.5:3" {
		t.Errorf("BackendName = %q", BackendName(b))
	}
}

func TestLearningLookupEmpty(t *testing.T) {
	l := &Learning{}
	if _, ok := l.Lookup(1, pkt.MustMAC("02:00:00:00:00:01")); ok {
		t.Error("lookup on empty app succeeded")
	}
	if len(l.MACTable(1)) != 0 {
		t.Error("non-empty table")
	}
	if l.Name() == "" || (&DMZ{}).Name() == "" || (&ParentalControl{}).Name() == "" || (&LoadBalancer{}).Name() == "" {
		t.Error("empty app names")
	}
}

// attachScripted connects a minimal scripted switch with the given dpid
// to ctrl: it answers the handshake and every BARRIER_REQUEST, and
// passes the FLOW_MODs it receives to the returned channel. kill drops
// the switch's end of the channel.
func attachScripted(t *testing.T, ctrl *controller.Controller, dpid uint64) (h *controller.SwitchHandle, flowMods <-chan *openflow.FlowMod, kill func()) {
	t.Helper()
	swSide, ctrlSide := net.Pipe()
	conn := openflow.NewConn(swSide)
	t.Cleanup(func() { conn.Close() })
	mods := make(chan *openflow.FlowMod, 64) // more than any step of the test sends
	go func() {
		defer close(mods)
		_ = conn.Send(&openflow.Hello{}) // a failed send shows as a failed AttachConn
		for {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			switch m := m.(type) {
			case *openflow.FeaturesRequest:
				reply := &openflow.FeaturesReply{DatapathID: dpid, NTables: 2}
				reply.SetXID(m.XID())
				_ = conn.Send(reply)
			case *openflow.BarrierRequest:
				reply := &openflow.BarrierReply{}
				reply.SetXID(m.XID())
				_ = conn.Send(reply)
			case *openflow.FlowMod:
				mods <- m
			}
		}
	}()
	h, err := ctrl.AttachConn(ctrlSide)
	if err != nil {
		t.Fatalf("attach %#x: %v", dpid, err)
	}
	return h, mods, func() { conn.Close() }
}

// flowModsUntilBarrier returns how many FLOW_MODs the switch received
// up to a barrier sent now.
func flowModsUntilBarrier(t *testing.T, h *controller.SwitchHandle, mods <-chan *openflow.FlowMod) int {
	t.Helper()
	if err := h.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	n := 0
	for {
		select {
		case <-mods:
			n++
		default:
			return n
		}
	}
}

// TestDeadHandlesAreDropped: a switch that reconnects arrives as a new
// handle; the handle of its dead first session must leave the apps'
// lists, so each policy change programs the switch exactly once.
func TestDeadHandlesAreDropped(t *testing.T) {
	dmz := &DMZ{Table: 0, NextTable: 1}
	pc := &ParentalControl{Table: 0, NextTable: 1}
	ctrl := controller.New([]controller.App{dmz, pc}, controlplane.Config{EchoInterval: -1})

	first, _, kill := attachScripted(t, ctrl, 0x51)
	second, mods, _ := attachScripted(t, ctrl, 0x51)
	kill()
	select {
	case <-first.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("first session never ended")
	}
	flowModsUntilBarrier(t, second, mods) // discard the SwitchConnected programming

	a, b := pkt.MustIPv4("10.0.0.1"), pkt.MustIPv4("10.0.0.2")
	dmz.Permit(a, b)
	if n := flowModsUntilBarrier(t, second, mods); n != 2 {
		t.Errorf("Permit sent %d FLOW_MODs to the live switch, want 2 (one per direction)", n)
	}
	pc.BlockIP(a, b)
	if n := flowModsUntilBarrier(t, second, mods); n != 1 {
		t.Errorf("BlockIP sent %d FLOW_MODs to the live switch, want 1", n)
	}
	for name, list := range map[string][]*controller.SwitchHandle{"dmz": dmz.switches, "parentalcontrol": pc.switches} {
		if len(list) != 1 || list[0] != second {
			t.Errorf("%s holds %d handles after the reconnect, want only the live one", name, len(list))
		}
	}
}
