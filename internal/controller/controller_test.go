package controller_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

var (
	mac1 = pkt.MustMAC("02:00:00:00:00:01")
	mac2 = pkt.MustMAC("02:00:00:00:00:02")
	mac3 = pkt.MustMAC("02:00:00:00:00:03")
	ip1  = pkt.MustIPv4("10.0.0.1")
	ip2  = pkt.MustIPv4("10.0.0.2")
	ip3  = pkt.MustIPv4("10.0.0.3")
)

type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) receiver() netem.Receiver {
	return func(f []byte) {
		c.mu.Lock()
		c.frames = append(c.frames, f)
		c.mu.Unlock()
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) all() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte{}, c.frames...)
}

// rig: a softswitch with n host ports connected to a controller
// running the given apps.
type rig struct {
	sw    *softswitch.Switch
	ctrl  *controller.Controller
	hosts map[uint32]*collector
	far   map[uint32]*netem.Port
}

func newRig(t *testing.T, n int, appList []controller.App) *rig {
	t.Helper()
	r := &rig{
		sw:    softswitch.New("ss2", 0x42),
		hosts: map[uint32]*collector{},
		far:   map[uint32]*netem.Port{},
	}
	for i := uint32(1); i <= uint32(n); i++ {
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		r.sw.AttachNetPort(i, "p", l.A())
		col := &collector{}
		l.B().SetReceiver(col.receiver())
		r.hosts[i] = col
		r.far[i] = l.B()
	}
	c1, c2 := net.Pipe()
	agent := r.sw.StartAgent(c2, 0)
	t.Cleanup(agent.Stop)
	r.ctrl = controller.New(appList)
	if _, err := r.ctrl.AttachConn(c1); err != nil {
		t.Fatal(err)
	}
	// Fence: all SwitchConnected flow-mods applied.
	r.barrier(t)
	return r
}

// barrier round-trips a barrier so prior flow-mods are applied.
func (r *rig) barrier(t *testing.T) {
	t.Helper()
	h, ok := r.ctrl.Switch(0x42)
	if !ok {
		t.Fatal("switch not connected")
	}
	if err := h.Barrier(); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) inject(t *testing.T, port uint32, frame []byte) {
	t.Helper()
	if err := r.far[port].Send(frame); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func udpFrame(t testing.TB, src, dst pkt.MAC, ipSrc, ipDst pkt.IPv4, sport, dport uint16, payload string) []byte {
	t.Helper()
	pl := pkt.Payload([]byte(payload))
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: src, Dst: dst, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ipSrc, Dst: ipDst},
		&pkt.UDP{SrcPort: sport, DstPort: dport},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func tcpFrame(t testing.TB, src, dst pkt.MAC, ipSrc, ipDst pkt.IPv4, sport, dport uint16, payload string) []byte {
	t.Helper()
	pl := pkt.Payload([]byte(payload))
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: src, Dst: dst, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoTCP, Src: ipSrc, Dst: ipDst},
		&pkt.TCP{SrcPort: sport, DstPort: dport, Flags: pkt.TCPSyn, Window: 64000},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestLearningSwitchEndToEnd(t *testing.T) {
	learning := &apps.Learning{Table: 0}
	r := newRig(t, 3, []controller.App{learning})

	// First frame 1->2: unknown, flooded to 2 and 3.
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1, 2, "a"))
	waitFor(t, "flood", func() bool { return r.hosts[2].count() >= 1 && r.hosts[3].count() >= 1 })

	// Reply 2->1: mac1 is known, so packet-out to port 1 only, and a
	// flow gets installed.
	r.inject(t, 2, udpFrame(t, mac2, mac1, ip2, ip1, 2, 1, "b"))
	waitFor(t, "reply", func() bool { return r.hosts[1].count() == 1 })
	if r.hosts[3].count() != 1 {
		t.Errorf("port 3 saw %d frames, want 1 (only the initial flood)", r.hosts[3].count())
	}
	// A third 1->2 frame triggers one more packet-in (mac2 is now
	// known), installing the eth_dst=mac2 flow.
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1, 2, "c"))
	waitFor(t, "flow install", func() bool {
		return len(r.sw.FlowStats(openflow.TableAll)) >= 3 // miss + both learned flows
	})
	waitFor(t, "packet-out delivery", func() bool { return r.hosts[2].count() >= 2 })
	// From here on, 1->2 is pure dataplane: no more packet-ins.
	before := r.sw.PacketIns()
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1, 2, "d"))
	waitFor(t, "direct delivery", func() bool { return r.hosts[2].count() >= 3 })
	if r.sw.PacketIns() != before {
		t.Errorf("dataplane flow not used: packet-ins %d -> %d", before, r.sw.PacketIns())
	}
	// The app's view of the MAC table.
	if port, ok := learning.Lookup(0x42, mac1); !ok || port != 1 {
		t.Errorf("learned mac1 at %d %v", port, ok)
	}
	if len(learning.MACTable(0x42)) < 2 {
		t.Error("MAC table incomplete")
	}
}

func TestDMZPolicy(t *testing.T) {
	dmz := &apps.DMZ{Table: 0, NextTable: 1}
	dmz.Permit(ip1, ip2)
	learning := &apps.Learning{Table: 1}
	r := newRig(t, 3, []controller.App{dmz, learning})

	// Pre-learn MACs via ARP-like broadcast (ARP is permitted).
	arp := func(src pkt.MAC, sip, tip pkt.IPv4) []byte {
		f, err := pkt.Serialize(
			&pkt.Ethernet{Src: src, Dst: pkt.BroadcastMAC, EtherType: pkt.EtherTypeARP},
			&pkt.ARP{Op: pkt.ARPRequest, SenderHW: src, SenderIP: sip, TargetIP: tip},
		)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	r.inject(t, 1, arp(mac1, ip1, ip2))
	r.inject(t, 2, arp(mac2, ip2, ip1))
	r.inject(t, 3, arp(mac3, ip3, ip1))
	waitFor(t, "arp floods", func() bool { return r.hosts[1].count() >= 2 })

	base2 := r.hosts[2].count()
	// Permitted pair: 1 -> 2 passes.
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1000, 80, "ok"))
	waitFor(t, "permitted traffic", func() bool { return r.hosts[2].count() > base2 })

	// Non-permitted: 3 -> 2 must be dropped.
	base2 = r.hosts[2].count()
	r.inject(t, 3, udpFrame(t, mac3, mac2, ip3, ip2, 1000, 80, "no"))
	time.Sleep(50 * time.Millisecond)
	if r.hosts[2].count() != base2 {
		t.Error("unauthorized traffic leaked through the DMZ")
	}
	if !dmz.Permitted(ip1, ip2) || dmz.Permitted(ip3, ip2) {
		t.Error("policy state wrong")
	}

	// Revoke on the fly: 1 -> 2 now drops too.
	dmz.Revoke(ip1, ip2)
	r.barrier(t)
	base2 = r.hosts[2].count()
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, ip2, 1000, 80, "late"))
	time.Sleep(50 * time.Millisecond)
	if r.hosts[2].count() != base2 {
		t.Error("revoked pair still passes")
	}
}

func TestLoadBalancerSourcePartitioning(t *testing.T) {
	vip := pkt.MustIPv4("10.0.0.100")
	vmac := pkt.MustMAC("02:00:00:00:01:00")
	lb := &apps.LoadBalancer{
		Table: 0, VIP: vip, VMAC: vmac, ServicePort: 80,
		Backends: []apps.Backend{
			{IP: ip1, MAC: mac1, Port: 1},
			{IP: ip2, MAC: mac2, Port: 2},
		},
	}
	learning := &apps.Learning{Table: 1}
	r := newRig(t, 3, []controller.App{lb, learning})

	// Client on port 3 sends to the VIP from different source IPs.
	for i := 0; i < 32; i++ {
		src := pkt.IPv4{172, 16, 0, byte(i)}
		r.inject(t, 3, tcpFrame(t, mac3, vmac, src, vip, uint16(10000+i), 80, "GET"))
	}
	waitFor(t, "lb distribution", func() bool {
		return r.hosts[1].count()+r.hosts[2].count() == 32
	})
	// Even sources -> backend 1, odd -> backend 2 (low-bit partition).
	if r.hosts[1].count() != 16 || r.hosts[2].count() != 16 {
		t.Errorf("distribution %d/%d, want 16/16", r.hosts[1].count(), r.hosts[2].count())
	}
	// Verify the rewrite.
	f := r.hosts[1].all()[0]
	p := pkt.DecodeEthernet(f)
	if p.IPv4().Dst != ip1 || p.Ethernet().Dst != mac1 {
		t.Errorf("rewrite: %s", p)
	}
	// Checksum integrity after rewrite.
	if pkt.L4Checksum(p.IPv4().Src, p.IPv4().Dst, pkt.IPProtoTCP, p.IPv4().LayerPayload()) != 0 {
		t.Error("TCP checksum broken by DNAT")
	}
}

func TestLoadBalancerARPAndReverse(t *testing.T) {
	vip := pkt.MustIPv4("10.0.0.100")
	vmac := pkt.MustMAC("02:00:00:00:01:00")
	lb := &apps.LoadBalancer{
		Table: 0, VIP: vip, VMAC: vmac, ServicePort: 80,
		Backends: []apps.Backend{{IP: ip1, MAC: mac1, Port: 1}, {IP: ip2, MAC: mac2, Port: 2}},
	}
	learning := &apps.Learning{Table: 1}
	r := newRig(t, 3, []controller.App{lb, learning})

	// ARP who-has VIP from the client.
	arpReq, err := pkt.Serialize(
		&pkt.Ethernet{Src: mac3, Dst: pkt.BroadcastMAC, EtherType: pkt.EtherTypeARP},
		&pkt.ARP{Op: pkt.ARPRequest, SenderHW: mac3, SenderIP: ip3, TargetIP: vip},
	)
	if err != nil {
		t.Fatal(err)
	}
	r.inject(t, 3, arpReq)
	waitFor(t, "arp reply", func() bool { return r.hosts[3].count() >= 1 })
	reply := pkt.DecodeEthernet(r.hosts[3].all()[0])
	arp := reply.ARP()
	if arp == nil || arp.Op != pkt.ARPReply || arp.SenderHW != vmac || arp.SenderIP != vip {
		t.Fatalf("arp reply: %s", reply)
	}

	// Reverse path: backend 1 answers; source must become the VIP.
	// Teach the learning table where the client is first. The client
	// IP has an even low byte so the source partition picks backend 0
	// (port 1).
	clientIP := pkt.MustIPv4("10.0.0.4")
	r.inject(t, 3, tcpFrame(t, mac3, vmac, clientIP, vip, 10000, 80, "req"))
	waitFor(t, "forward", func() bool { return r.hosts[1].count() >= 1 })
	r.inject(t, 1, tcpFrame(t, mac1, mac3, ip1, clientIP, 80, 10000, "resp"))
	waitFor(t, "reverse", func() bool { return r.hosts[3].count() >= 2 })
	var resp *pkt.Packet
	for _, f := range r.hosts[3].all()[1:] {
		p := pkt.DecodeEthernet(f)
		if p.TCP() != nil {
			resp = p
		}
	}
	if resp == nil {
		t.Fatal("no TCP response at client")
	}
	if resp.IPv4().Src != vip {
		t.Errorf("reverse SNAT: src = %s, want %s", resp.IPv4().Src, vip)
	}
	if resp.Ethernet().Src != vmac {
		t.Errorf("reverse SNAT: eth src = %s", resp.Ethernet().Src)
	}
}

func TestLoadBalancerGroupFallback(t *testing.T) {
	vip := pkt.MustIPv4("10.0.0.100")
	lb := &apps.LoadBalancer{
		Table: 0, VIP: vip, VMAC: pkt.MustMAC("02:00:00:00:01:00"), ServicePort: 80, GroupID: 7,
		Backends: []apps.Backend{ // three backends: not a power of two
			{IP: ip1, MAC: mac1, Port: 1},
			{IP: ip2, MAC: mac2, Port: 2},
			{IP: ip3, MAC: mac3, Port: 3},
		},
	}
	learning := &apps.Learning{Table: 1}
	r := newRig(t, 4, []controller.App{lb, learning})
	if _, ok := r.sw.Groups().Get(7); !ok {
		t.Fatal("select group not installed")
	}
	for i := 0; i < 90; i++ {
		src := pkt.IPv4{172, 16, byte(i >> 8), byte(i)}
		r.inject(t, 4, tcpFrame(t, pkt.MustMAC("02:00:00:00:00:04"), lb.VMAC, src, vip, uint16(20000+i), 80, "g"))
	}
	waitFor(t, "group distribution", func() bool {
		return r.hosts[1].count()+r.hosts[2].count()+r.hosts[3].count() == 90
	})
	for p := uint32(1); p <= 3; p++ {
		if r.hosts[p].count() < 10 {
			t.Errorf("backend %d starved: %d", p, r.hosts[p].count())
		}
	}
}

func TestParentalControlDNS(t *testing.T) {
	pc := &apps.ParentalControl{Table: 0, NextTable: 1, UplinkPort: 3}
	pc.BlockDomain(ip1, "blocked.example")
	learning := &apps.Learning{Table: 1}
	r := newRig(t, 3, []controller.App{pc, learning})

	dnsQuery := func(src pkt.MAC, srcIP pkt.IPv4, name string, id uint16) []byte {
		f, err := pkt.Serialize(
			&pkt.Ethernet{Src: src, Dst: mac3, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: srcIP, Dst: ip3},
			&pkt.UDP{SrcPort: 5353, DstPort: 53},
			&pkt.DNS{ID: id, RD: true, Questions: []pkt.DNSQuestion{{Name: name, Type: pkt.DNSTypeA, Class: pkt.DNSClassIN}}},
		)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Restricted user (ip1, port 1) asks for the blocked domain: gets
	// NXDOMAIN back on its own port.
	r.inject(t, 1, dnsQuery(mac1, ip1, "www.blocked.example", 1))
	waitFor(t, "nxdomain", func() bool { return r.hosts[1].count() == 1 })
	resp := pkt.DecodeEthernet(r.hosts[1].all()[0])
	d := resp.DNS()
	if d == nil || !d.QR || d.Rcode != pkt.DNSRcodeNXDomain || d.ID != 1 {
		t.Fatalf("response: %s", resp)
	}
	if pc.NXDomainCount() != 1 {
		t.Errorf("nx count %d", pc.NXDomainCount())
	}

	// Same user, different domain: forwarded to the uplink (port 3).
	r.inject(t, 1, dnsQuery(mac1, ip1, "fine.example", 2))
	waitFor(t, "allowed query", func() bool { return r.hosts[3].count() == 1 })

	// Unrestricted user (ip2, port 2) asks for the blocked domain:
	// forwarded to the uplink.
	r.inject(t, 2, dnsQuery(mac2, ip2, "www.blocked.example", 3))
	waitFor(t, "other user", func() bool { return r.hosts[3].count() == 2 })

	// On-the-fly policy change: unblock, the user gets through now.
	pc.UnblockDomain(ip1, "blocked.example")
	r.inject(t, 1, dnsQuery(mac1, ip1, "www.blocked.example", 4))
	waitFor(t, "unblocked", func() bool { return r.hosts[3].count() == 3 })
}

func TestParentalControlIPFallback(t *testing.T) {
	site := pkt.MustIPv4("93.184.216.34")
	pc := &apps.ParentalControl{Table: 0, NextTable: 1, UplinkPort: 3}
	learning := &apps.Learning{Table: 1}
	r := newRig(t, 3, []controller.App{pc, learning})

	// Teach learning where mac2 lives so permitted traffic flows.
	r.inject(t, 2, udpFrame(t, mac2, mac1, ip2, ip1, 1, 1, "hello"))
	time.Sleep(20 * time.Millisecond)

	pc.BlockIP(ip1, site)
	r.barrier(t)
	base := r.hosts[2].count() + r.hosts[3].count()
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, site, 1000, 80, "direct"))
	time.Sleep(50 * time.Millisecond)
	if r.hosts[2].count()+r.hosts[3].count() != base {
		t.Error("blocked IP pair leaked")
	}
	// Unblock on the fly.
	pc.UnblockIP(ip1, site)
	r.barrier(t)
	r.inject(t, 1, udpFrame(t, mac1, mac2, ip1, site, 1000, 80, "direct2"))
	waitFor(t, "unblocked ip", func() bool { return r.hosts[2].count()+r.hosts[3].count() > base })
}

func TestControllerOverTCP(t *testing.T) {
	learning := &apps.Learning{Table: 0}
	ctrl := controller.New([]controller.App{learning})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ctrl.Serve(l) //nolint:errcheck

	sw := softswitch.New("tcp-sw", 0x77)
	link := netem.NewLink(netem.LinkConfig{})
	defer link.Close()
	sw.AttachNetPort(1, "p1", link.A())
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	agent := sw.StartAgent(conn, 0)
	defer agent.Stop()

	waitFor(t, "switch registration", func() bool {
		_, ok := ctrl.Switch(0x77)
		return ok
	})
	if len(ctrl.Switches()) != 1 {
		t.Error("switch count")
	}
	// Table-miss must arrive eventually.
	waitFor(t, "miss entry", func() bool { return sw.Table(0).Len() == 1 })
}
