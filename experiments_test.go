package harmless_test

// Experiment suite: each TestEn_* function reproduces one experiment
// from DESIGN.md's index (the demo paper's Fig. 1 and its quantitative
// claims). EXPERIMENTS.md records the paper-vs-measured outcome; the
// benches in bench_test.go produce the numeric series.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/cost"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// TestE1_Fig1 reproduces the paper's Figure 1 walk-through: Host 1 and
// Host 2 hang off legacy access ports 1 and 2 (VLANs 101/102); the DMZ
// policy permits exactly this pair. The test verifies the green-dashed
// path hop by hop: tagged 101 on the trunk towards SS_1, untagged
// through SS_2's pipeline, hairpinned back tagged 102, and delivered
// untagged to Host 2 — plus the policy's deny-by-default for a third
// host.
func TestE1_Fig1(t *testing.T) {
	dmz := &apps.DMZ{Table: 0, NextTable: 1}
	dmz.Permit(fabric.HostIP(1), fabric.HostIP(2))
	learning := &apps.Learning{Table: 1}

	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 4, // ports 1..3 access (hosts), port 4 trunk
		Apps:     []controller.App{dmz, learning},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Tap the trunk in both directions.
	cap := fabric.NewCapture()
	fabric.Tap(d.TrunkLink.B(), cap, "legacy->ss1") // frames entering SS_1
	fabric.Tap(d.TrunkLink.A(), cap, "ss1->legacy") // frames hairpinned back

	h1, h2, h3 := d.Hosts[1], d.Hosts[2], d.Hosts[3]
	if err := h1.Ping(h2.IP, 2*time.Second); err != nil {
		t.Fatalf("Fig.1 permitted path broken: %v", err)
	}

	// Hop verification: every trunk frame towards SS_1 is tagged with
	// the sender's port VLAN; every frame back is tagged with the
	// receiver's port VLAN.
	toSS1 := cap.At("legacy->ss1")
	if len(toSS1) == 0 {
		t.Fatal("no frames captured on the trunk towards SS_1")
	}
	for _, f := range toSS1 {
		vid, tagged := pkt.VLANID(f.Data)
		if !tagged || (vid != 101 && vid != 102) {
			t.Errorf("trunk->SS_1 frame not tagged 101/102: %s", f.Summary())
		}
	}
	back := cap.At("ss1->legacy")
	if len(back) == 0 {
		t.Fatal("no hairpinned frames captured")
	}
	seen101, seen102 := false, false
	for _, f := range back {
		vid, tagged := pkt.VLANID(f.Data)
		if !tagged {
			t.Errorf("hairpinned frame untagged: %s", f.Summary())
			continue
		}
		switch vid {
		case 101:
			seen101 = true
		case 102:
			seen102 = true
		}
	}
	// The ping (request to h2, reply to h1) must produce hairpins to
	// both VLANs.
	if !seen101 || !seen102 {
		t.Errorf("hairpin VLANs: 101=%v 102=%v\n%s", seen101, seen102, cap)
	}

	// DMZ row: a third host is denied both ways.
	if err := h3.Ping(h1.IP, 300*time.Millisecond); err == nil {
		t.Error("unpermitted host reached h1 through the DMZ")
	}
	// Every packet traversed the OF pipeline: SS_2 lookups > 0.
	lookups, _ := d.S4.SS2.Table(0).Stats()
	if lookups == 0 {
		t.Error("SS_2 pipeline was bypassed")
	}
	t.Logf("E1: %d frames to SS_1, %d hairpinned, SS_2 lookups=%d",
		len(toSS1), len(back), lookups)
}

// TestE3_LatencyPenalty measures one-way-ish RTT through (i) the bare
// legacy switch (two hosts in one VLAN, no HARMLESS) and (ii) the full
// HARMLESS path, over async links with identical 200µs one-way delay.
// The claim under test: the HARMLESS detour adds wire hops but "no
// major latency penalty" — the penalty must stay within the extra
// propagation the detour necessarily adds (2 extra traversals of the
// trunk per direction) plus processing, far below one order of
// magnitude.
func TestE3_LatencyPenalty(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	const oneWay = 200 * time.Microsecond
	linkCfg := netem.LinkConfig{Async: true, Latency: oneWay}

	// Baseline: two hosts on a plain legacy switch.
	baseRTT := func() time.Duration {
		sw := legacyTwoHostRig(t, linkCfg)
		defer sw.close()
		if err := sw.h1.Ping(sw.h2.IP, 2*time.Second); err != nil { // warm ARP
			t.Fatal(err)
		}
		return medianPingRTT(t, sw.h1, sw.h2.IP, 20)
	}()

	// HARMLESS path.
	harmlessRTT := func() time.Duration {
		d, err := fabric.BuildDeployment(fabric.DeployConfig{
			NumPorts:   4,
			Apps:       []controller.App{&apps.Learning{Table: 0}},
			LinkConfig: linkCfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.WaitConnected(3 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := d.Hosts[1].Ping(d.Hosts[2].IP, 2*time.Second); err != nil { // warm ARP + flows
			t.Fatal(err)
		}
		return medianPingRTT(t, d.Hosts[1], d.Hosts[2].IP, 20)
	}()

	// Baseline RTT crosses 2 host links twice: 4 one-way delays.
	// HARMLESS adds the trunk twice per direction: 8 one-way delays.
	// Expected penalty ≈ 4*oneWay plus processing.
	penalty := harmlessRTT - baseRTT
	t.Logf("E3: base RTT=%v harmless RTT=%v penalty=%v (wire floor %v)",
		baseRTT, harmlessRTT, penalty, 4*oneWay)
	if harmlessRTT > 10*baseRTT {
		t.Errorf("latency penalty out of bounds: %v vs %v", harmlessRTT, baseRTT)
	}
}

// newBareLegacySwitch builds the 2-port baseline switch for E3.
func newBareLegacySwitch(t *testing.T) *legacy.Switch {
	t.Helper()
	return legacy.NewSwitch("baseline", 2)
}

// twoHostRig is the E3 baseline topology.
type twoHostRig struct {
	h1, h2 *fabric.Host
	links  []*netem.Link
}

func (r *twoHostRig) close() {
	for _, l := range r.links {
		l.Close()
	}
}

func legacyTwoHostRig(t *testing.T, linkCfg netem.LinkConfig) *twoHostRig {
	t.Helper()
	sw := newBareLegacySwitch(t)
	r := &twoHostRig{}
	for i := 1; i <= 2; i++ {
		lc := linkCfg
		lc.Name = fmt.Sprintf("base-h%d", i)
		l := netem.NewLink(lc)
		r.links = append(r.links, l)
		sw.AttachPort(i, l.A())
		h := fabric.NewHost(fmt.Sprintf("bh%d", i), fabric.HostMAC(i), fabric.HostIP(i), l.B())
		if i == 1 {
			r.h1 = h
		} else {
			r.h2 = h
		}
	}
	return r
}

// medianPingRTT measures n RTTs, logs the distribution, and returns
// the median.
func medianPingRTT(t *testing.T, h *fabric.Host, dst pkt.IPv4, n int) time.Duration {
	t.Helper()
	hist := stats.NewHistogram()
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := h.Ping(dst, 2*time.Second); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
		hist.RecordDuration(time.Since(start))
	}
	t.Logf("  rtt distribution %s -> %s: %s", h.Name, dst, hist.Summarize())
	return time.Duration(hist.Percentile(50))
}

// TestE4_CostModel regenerates the cost table behind the title claim:
// HARMLESS must be the cheapest strategy at every evaluated scale and
// the per-port cost must sit well under the COTS per-port cost.
func TestE4_CostModel(t *testing.T) {
	catalog := cost.DefaultCatalog2017()
	rows, err := catalog.Sweep([]int{8, 24, 48, 96, 192, 384}, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E4 cost table (migration, legacy sunk):\n%s", cost.FormatTable(rows))
	for _, r := range rows {
		if r.Winner != cost.HARMLESS {
			t.Errorf("at %d ports: winner %s, want harmless", r.Ports, r.Winner)
		}
		if r.HARMLESS.PerPort >= r.RipAndReplace.PerPort {
			t.Errorf("at %d ports: HARMLESS $%.2f/port >= COTS $%.2f/port",
				r.Ports, r.HARMLESS.PerPort, r.RipAndReplace.PerPort)
		}
	}
	// Sensitivity: the break-even server price at 48 ports must be
	// above the catalog server price (otherwise the claim collapses).
	if be := catalog.BreakEvenServerPrice(48); be <= catalog.ServerPrice {
		t.Errorf("break-even server price $%.0f <= catalog $%.0f", be, catalog.ServerPrice)
	}
	// Greenfield check: even buying the legacy switch new, HARMLESS
	// stays cheaper than COTS at access-edge scales.
	green, err := catalog.Sweep([]int{24, 48, 96}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range green {
		if r.HARMLESS.Total >= r.RipAndReplace.Total {
			t.Errorf("greenfield at %d ports: HARMLESS $%.0f >= COTS $%.0f",
				r.Ports, r.HARMLESS.Total, r.RipAndReplace.Total)
		}
	}
}

// TestE5_LoadBalancer reproduces demo use case (a) end to end: web
// clients behind one access port address a virtual IP; the LB app
// spreads them across two backends by source IP; a real HTTP-lite GET
// completes through the VIP.
func TestE5_LoadBalancer(t *testing.T) {
	vip := pkt.MustIPv4("10.0.0.100")
	vmac := pkt.MustMAC("02:00:00:00:01:00")
	lb := &apps.LoadBalancer{
		Table: 0, VIP: vip, VMAC: vmac, ServicePort: 80,
		Backends: []apps.Backend{
			{IP: fabric.HostIP(1), MAC: fabric.HostMAC(1), Port: 1},
			{IP: fabric.HostIP(2), MAC: fabric.HostMAC(2), Port: 2},
		},
	}
	learning := &apps.Learning{Table: 1}
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{lb, learning},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		d.Hosts[i].ServeTCP(80, func(req []byte) []byte {
			return []byte(fmt.Sprintf("HTTP/1.0 200 OK\r\n\r\nbackend-%d", i))
		})
	}
	client := d.Hosts[3]

	// A real GET through the VIP (exercises controller ARP reply,
	// DNAT, reverse SNAT, and the hairpin path twice per segment).
	resp, err := client.GetTCP(vip, 80, []byte("GET / HTTP/1.0\r\n\r\n"), 3*time.Second)
	if err != nil {
		t.Fatalf("GET via VIP: %v", err)
	}
	if !bytes.Contains(resp, []byte("200 OK")) {
		t.Errorf("response: %q", resp)
	}

	// Distribution: 64 emulated clients (distinct source IPs) behind
	// the client port; backends must split them by source-IP parity.
	rx1a, _ := d.Hosts[1].Stats()
	rx2a, _ := d.Hosts[2].Stats()
	for i := 0; i < 64; i++ {
		src := pkt.IPv4{172, 16, 1, byte(i)}
		pl := pkt.Payload(nil)
		syn, err := pkt.Serialize(
			&pkt.Ethernet{Src: client.MAC, Dst: vmac, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoTCP, Src: src, Dst: vip},
			&pkt.TCP{SrcPort: uint16(10000 + i), DstPort: 80, Flags: pkt.TCPSyn, Window: 65535},
			&pl,
		)
		if err != nil {
			t.Fatal(err)
		}
		client.SendRaw(syn)
	}
	waitUntil(t, "lb distribution", func() bool {
		rx1b, _ := d.Hosts[1].Stats()
		rx2b, _ := d.Hosts[2].Stats()
		return (rx1b-rx1a)+(rx2b-rx2a) >= 64
	})
	rx1b, _ := d.Hosts[1].Stats()
	rx2b, _ := d.Hosts[2].Stats()
	got1, got2 := rx1b-rx1a, rx2b-rx2a
	t.Logf("E5: backend shares %d/%d of 64 clients (plus the real GET)", got1, got2)
	if got1 < 24 || got2 < 24 {
		t.Errorf("distribution skewed: %d/%d, want ~32/32", got1, got2)
	}
}

// TestE6_DMZ reproduces demo use case (b): the pairwise access matrix
// over four tenant hosts, enforced in the OF pipeline, with a dynamic
// policy change.
func TestE6_DMZ(t *testing.T) {
	dmz := &apps.DMZ{Table: 0, NextTable: 1}
	learning := &apps.Learning{Table: 1}
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 5, // hosts on 1..4, trunk 5
		Apps:     []controller.App{dmz, learning},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Allow 1<->2 and 3<->4 only.
	dmz.Permit(fabric.HostIP(1), fabric.HostIP(2))
	dmz.Permit(fabric.HostIP(3), fabric.HostIP(4))
	fence(t, d)

	type pair struct {
		a, b    int
		allowed bool
	}
	matrix := []pair{
		{1, 2, true}, {2, 1, true}, {3, 4, true}, {4, 3, true},
		{1, 3, false}, {1, 4, false}, {2, 3, false}, {2, 4, false},
	}
	for _, p := range matrix {
		err := d.Hosts[p.a].Ping(fabric.HostIP(p.b), timeoutFor(p.allowed))
		if p.allowed && err != nil {
			t.Errorf("h%d->h%d should pass: %v", p.a, p.b, err)
		}
		if !p.allowed && err == nil {
			t.Errorf("h%d->h%d should be blocked", p.a, p.b)
		}
	}
	// Fine-tune on the fly (the demo's "fine-tune VM-level access
	// policies"): permit 1<->3, revoke 1<->2.
	dmz.Permit(fabric.HostIP(1), fabric.HostIP(3))
	dmz.Revoke(fabric.HostIP(1), fabric.HostIP(2))
	fence(t, d)
	if err := d.Hosts[1].Ping(fabric.HostIP(3), 2*time.Second); err != nil {
		t.Errorf("newly permitted pair fails: %v", err)
	}
	if err := d.Hosts[1].Ping(fabric.HostIP(2), 300*time.Millisecond); err == nil {
		t.Error("revoked pair still passes")
	}
	t.Log("E6: 8-entry access matrix enforced; dynamic permit/revoke verified")
}

// TestE7_ParentalControl reproduces demo use case (c): per-user web
// blocklists applied on the fly, DNS-based with an IP fallback.
func TestE7_ParentalControl(t *testing.T) {
	pc := &apps.ParentalControl{Table: 0, NextTable: 1, UplinkPort: 3}
	learning := &apps.Learning{Table: 1}
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 4, // users on 1,2; resolver/uplink on 3; trunk 4
		Apps:     []controller.App{pc, learning},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	user1, user2, resolver := d.Hosts[1], d.Hosts[2], d.Hosts[3]
	siteIP := pkt.MustIPv4("10.0.0.99")
	resolver.ServeDNS(map[string]pkt.IPv4{
		"www.videosite.test": siteIP,
		"www.school.test":    pkt.MustIPv4("10.0.0.88"),
	})

	// Block user1 from the video site.
	pc.BlockDomain(user1.IP, "videosite.test")

	// user1: blocked name -> NXDOMAIN (spoofed by the controller).
	resp, err := user1.QueryDNS(resolver.IP, "www.videosite.test", 2*time.Second)
	if err != nil {
		t.Fatalf("user1 query: %v", err)
	}
	if resp.Rcode != pkt.DNSRcodeNXDomain {
		t.Errorf("user1 rcode = %d, want NXDOMAIN", resp.Rcode)
	}
	// user1: other name resolves.
	resp, err = user1.QueryDNS(resolver.IP, "www.school.test", 2*time.Second)
	if err != nil {
		t.Fatalf("user1 school query: %v", err)
	}
	if resp.Rcode != pkt.DNSRcodeNoError || len(resp.Answers) != 1 {
		t.Errorf("school: %+v", resp)
	}
	// user2: same blocked name resolves fine.
	resp, err = user2.QueryDNS(resolver.IP, "www.videosite.test", 2*time.Second)
	if err != nil {
		t.Fatalf("user2 query: %v", err)
	}
	if resp.Rcode != pkt.DNSRcodeNoError || resp.Answers[0].A != siteIP {
		t.Errorf("user2: %+v", resp)
	}
	if pc.NXDomainCount() != 1 {
		t.Errorf("NXDOMAIN count %d", pc.NXDomainCount())
	}

	// On-the-fly unblock.
	pc.UnblockDomain(user1.IP, "videosite.test")
	resp, err = user1.QueryDNS(resolver.IP, "www.videosite.test", 2*time.Second)
	if err != nil {
		t.Fatalf("user1 after unblock: %v", err)
	}
	if resp.Rcode != pkt.DNSRcodeNoError {
		t.Errorf("after unblock rcode = %d", resp.Rcode)
	}

	// IP fallback: block the site address directly; user1's UDP to it
	// dies in the filter table while user2's passes.
	pc.BlockIP(user1.IP, fabric.HostIP(2))
	fence(t, d)
	if err := user1.Ping(user2.IP, 300*time.Millisecond); err == nil {
		t.Error("IP-blocked pair still passes")
	}
	pc.UnblockIP(user1.IP, fabric.HostIP(2))
	fence(t, d)
	if err := user1.Ping(user2.IP, 2*time.Second); err != nil {
		t.Errorf("after IP unblock: %v", err)
	}
	t.Log("E7: DNS blocklist + IP fallback enforced per user, changed on the fly")
}

// TestE9_IncrementalMigration reproduces the migration story of §1:
// only a subset of ports moves under SDN control first; unmigrated
// ports keep working via classic L2 and stay reachable across the
// boundary, and a later MigratePort extends control with zero
// disturbance to already-migrated traffic.
func TestE9_IncrementalMigration(t *testing.T) {
	learning := &apps.Learning{Table: 0}
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts:    6, // hosts 1..5 possible, trunk 6
		HostPorts:   []int{1, 2, 3, 4},
		AccessPorts: []int{1, 2}, // migrate only 1 and 2 first
		Apps:        []controller.App{learning},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Migrated <-> migrated: through HARMLESS.
	if err := d.Hosts[1].Ping(fabric.HostIP(2), 2*time.Second); err != nil {
		t.Fatalf("migrated pair: %v", err)
	}
	// Unmigrated <-> unmigrated: classic L2, must not touch SS_2.
	ss2Before, _ := d.S4.SS2.Table(0).Stats()
	if err := d.Hosts[3].Ping(fabric.HostIP(4), 2*time.Second); err != nil {
		t.Fatalf("legacy pair: %v", err)
	}
	// Cross-boundary: migrated host 1 <-> unmigrated host 3 via the
	// legacy-segment logical port.
	if err := d.Hosts[1].Ping(fabric.HostIP(3), 2*time.Second); err != nil {
		t.Fatalf("cross-boundary: %v", err)
	}
	_ = ss2Before

	// Extend the migration to port 3 while traffic still works.
	if err := d.Manager.MigratePort(3); err != nil {
		t.Fatalf("MigratePort: %v", err)
	}
	// The legacy switch's port 3 is now an access port in VLAN 103.
	cfg := d.Legacy.Config()
	if cfg.Ports[3].PVID != 103 {
		t.Errorf("port 3 PVID = %d after migration", cfg.Ports[3].PVID)
	}
	// Connectivity persists in all directions. The topology change
	// races with the controller's state flush (PORT_STATUS handling),
	// exactly like a real cutover, so allow a couple of retries.
	if err := pingRetry(d.Hosts[3], fabric.HostIP(1), 3); err != nil {
		t.Errorf("migrated h3 -> h1: %v", err)
	}
	if err := pingRetry(d.Hosts[1], fabric.HostIP(2), 3); err != nil {
		t.Errorf("pre-existing pair disturbed: %v", err)
	}
	if err := pingRetry(d.Hosts[3], fabric.HostIP(4), 3); err != nil {
		t.Errorf("h3 -> unmigrated h4: %v", err)
	}
	t.Logf("E9: ports {1,2} migrated, then port 3 added live; plan now %s", d.Manager.Plan())
}

// --- helpers ----------------------------------------------------------

func timeoutFor(allowed bool) time.Duration {
	if allowed {
		return 2 * time.Second
	}
	return 300 * time.Millisecond
}

// fence returns once the switch has applied what the apps sent it.
func fence(t *testing.T, d *fabric.Deployment) {
	t.Helper()
	h, ok := d.Ctrl.Switch(d.S4.SS2.DatapathID())
	if !ok {
		t.Fatal("switch not connected")
	}
	if err := h.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// pingRetry pings up to attempts times (cutovers race with control-
// plane reconvergence, as on real hardware).
func pingRetry(h *fabric.Host, dst pkt.IPv4, attempts int) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = h.Ping(dst, time.Second); err == nil {
			return nil
		}
	}
	return err
}

func waitUntil(t *testing.T, what string, cond func() bool) {
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
