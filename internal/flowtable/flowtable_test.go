package flowtable

import (
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

var (
	hostA = pkt.MustMAC("02:00:00:00:00:0a")
	hostB = pkt.MustMAC("02:00:00:00:00:0b")
	ipA   = pkt.MustIPv4("10.0.0.1")
	ipB   = pkt.MustIPv4("10.0.0.2")
)

// key builds a pkt.Key for a UDP packet.
func udpKey(inPort uint32, src, dst pkt.MAC, ipSrc, ipDst pkt.IPv4, sport, dport uint16) *pkt.Key {
	return &pkt.Key{
		InPort: inPort, EthSrc: src, EthDst: dst, EthType: pkt.EtherTypeIPv4,
		HasIPv4: true, IPProto: pkt.IPProtoUDP, IPSrc: ipSrc, IPDst: ipDst,
		HasL4: true, L4Src: sport, L4Dst: dport,
	}
}

func vlanKey(inPort uint32, vid uint16) *pkt.Key {
	k := udpKey(inPort, hostA, hostB, ipA, ipB, 1000, 2000)
	k.HasVLAN = true
	k.VLANID = vid
	return k
}

func outputTo(port uint32) []openflow.Instruction {
	return []openflow.Instruction{&openflow.InstrApplyActions{
		Actions: []openflow.Action{&openflow.ActionOutput{Port: port, MaxLen: 0xffff}},
	}}
}

func TestMatchZeroMatchesAll(t *testing.T) {
	m := &Match{}
	if !m.Matches(udpKey(1, hostA, hostB, ipA, ipB, 1, 2)) {
		t.Error("zero match must match everything")
	}
	if !m.Matches(&pkt.Key{}) {
		t.Error("zero match must match empty key")
	}
	if m.String() != "any" {
		t.Errorf("String = %q", m.String())
	}
}

func TestMatchFields(t *testing.T) {
	k := udpKey(3, hostA, hostB, ipA, ipB, 1000, 80)
	cases := []struct {
		name string
		m    Match
		want bool
	}{
		{"in_port hit", Match{InPortSet: true, InPort: 3}, true},
		{"in_port miss", Match{InPortSet: true, InPort: 4}, false},
		{"eth_dst hit", Match{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC}, true},
		{"eth_dst miss", Match{EthDstSet: true, EthDst: hostA, EthDstMask: onesMAC}, false},
		{"eth_type hit", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4}, true},
		{"eth_type miss", Match{EthTypeSet: true, EthType: pkt.EtherTypeARP}, false},
		{"vlan absent hit", Match{VLAN: VLANAbsent}, true},
		{"vlan exact miss", Match{VLAN: VLANExact, VLANVID: 5}, false},
		{"ip_proto hit", Match{IPProtoSet: true, IPProto: pkt.IPProtoUDP}, true},
		{"ip_proto miss", Match{IPProtoSet: true, IPProto: pkt.IPProtoTCP}, false},
		{"ip_src hit", Match{IPSrcSet: true, IPSrc: ipA, IPSrcMask: onesIPv4}, true},
		{"ip_src prefix hit", Match{IPSrcSet: true, IPSrc: pkt.MustIPv4("10.0.0.0"), IPSrcMask: pkt.MustIPv4("255.255.255.0")}, true},
		{"ip_src prefix miss", Match{IPSrcSet: true, IPSrc: pkt.MustIPv4("10.0.1.0"), IPSrcMask: pkt.MustIPv4("255.255.255.0")}, false},
		{"l4_dst hit", Match{L4DstSet: true, L4Dst: 80}, true},
		{"l4_dst miss", Match{L4DstSet: true, L4Dst: 443}, false},
	}
	for _, c := range cases {
		if got := c.m.Matches(k); got != c.want {
			t.Errorf("%s: got %v", c.name, got)
		}
	}
}

func TestMatchVLANModes(t *testing.T) {
	tagged := vlanKey(1, 101)
	m := Match{VLAN: VLANExact, VLANVID: 101}
	if !m.Matches(tagged) {
		t.Error("vlan exact should hit")
	}
	m = Match{VLAN: VLANAbsent}
	if m.Matches(tagged) {
		t.Error("vlan absent should miss tagged")
	}
}

func TestMatchICMPAndARP(t *testing.T) {
	icmpK := &pkt.Key{EthType: pkt.EtherTypeIPv4, HasIPv4: true, IPProto: pkt.IPProtoICMP,
		HasICMP: true, ICMPType: 8, ICMPCode: 0}
	m := Match{ICMPTypeSet: true, ICMPType: 8}
	if !m.Matches(icmpK) {
		t.Error("icmp type should hit")
	}
	m = Match{ICMPCodeSet: true, ICMPCode: 1}
	if m.Matches(icmpK) {
		t.Error("icmp code should miss")
	}
	arpK := &pkt.Key{EthType: pkt.EtherTypeARP, HasARP: true, ARPOp: 1,
		ARPSPA: ipA, ARPTPA: ipB}
	m = Match{ARPOpSet: true, ARPOp: 1}
	if !m.Matches(arpK) {
		t.Error("arp op should hit")
	}
	m = Match{ARPTPASet: true, ARPTPA: ipB, ARPTPAMask: onesIPv4}
	if !m.Matches(arpK) {
		t.Error("arp tpa should hit")
	}
	m = Match{ARPTPASet: true, ARPTPA: ipA, ARPTPAMask: onesIPv4}
	if m.Matches(arpK) {
		t.Error("arp tpa should miss")
	}
}

func TestOXMRoundTrip(t *testing.T) {
	wire := openflow.Match{}
	wire.WithInPort(2).
		WithEthDst(hostB).
		WithEthType(pkt.EtherTypeIPv4).
		WithVLAN(101).
		WithIPProto(pkt.IPProtoUDP).
		WithIPv4SrcMasked(pkt.MustIPv4("10.0.0.0"), pkt.MustIPv4("255.0.0.0")).
		WithUDPDst(53)
	m, err := FromOXM(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if !m.InPortSet || m.InPort != 2 || m.VLAN != VLANExact || m.VLANVID != 101 {
		t.Errorf("decoded: %+v", m)
	}
	back := m.ToOXM()
	m2, err := FromOXM(&back)
	if err != nil {
		t.Fatal(err)
	}
	if *m != *m2 {
		t.Errorf("round trip:\n%+v\n%+v", m, m2)
	}
}

func TestOXMNoVLANRoundTrip(t *testing.T) {
	wire := openflow.Match{}
	wire.WithNoVLAN()
	m, err := FromOXM(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.VLAN != VLANAbsent {
		t.Errorf("VLAN mode: %v", m.VLAN)
	}
	back := m.ToOXM()
	if v := back.Get(openflow.OXMVLANVID); v == nil || v.Value[0] != 0 || v.Value[1] != 0 {
		t.Errorf("OXM: %+v", v)
	}
}

func TestTableLookupPriority(t *testing.T) {
	tbl := NewTable(0, nil)
	low := &Entry{Priority: 10, Match: &Match{}, Instructions: outputTo(1)}
	high := &Entry{Priority: 100, Match: &Match{InPortSet: true, InPort: 1}, Instructions: outputTo(2)}
	if err := tbl.Add(low); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(high); err != nil {
		t.Fatal(err)
	}
	k := udpKey(1, hostA, hostB, ipA, ipB, 1, 2)
	if e := tbl.Lookup(k, 100); e != high {
		t.Errorf("lookup returned %v", e)
	}
	k2 := udpKey(9, hostA, hostB, ipA, ipB, 1, 2)
	if e := tbl.Lookup(k2, 100); e != low {
		t.Errorf("lookup returned %v", e)
	}
	if lookups, matched := tbl.Stats(); lookups != 2 || matched != 2 {
		t.Errorf("stats: %d/%d", lookups, matched)
	}
	if high.Packets() != 1 || high.Bytes() != 100 {
		t.Errorf("counters: %d/%d", high.Packets(), high.Bytes())
	}
}

func TestTableMissReturnsNil(t *testing.T) {
	tbl := NewTable(0, nil)
	e := &Entry{Priority: 5, Match: &Match{InPortSet: true, InPort: 7}, Instructions: outputTo(1)}
	if err := tbl.Add(e); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Lookup(udpKey(1, hostA, hostB, ipA, ipB, 1, 2), 10); got != nil {
		t.Errorf("expected miss, got %v", got)
	}
	if lookups, matched := tbl.Stats(); lookups != 1 || matched != 0 {
		t.Errorf("stats: %d/%d", lookups, matched)
	}
}

func TestTableAddReplacesSameMatchPriority(t *testing.T) {
	tbl := NewTable(0, nil)
	m := &Match{InPortSet: true, InPort: 1}
	_ = tbl.Add(&Entry{Priority: 10, Match: m, Instructions: outputTo(1)})
	m2 := *m
	_ = tbl.Add(&Entry{Priority: 10, Match: &m2, Instructions: outputTo(2)})
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
	e := tbl.Lookup(udpKey(1, hostA, hostB, ipA, ipB, 1, 2), 10)
	acts := e.Instructions[0].(*openflow.InstrApplyActions).Actions
	if acts[0].(*openflow.ActionOutput).Port != 2 {
		t.Error("replacement did not take effect")
	}
}

func TestTableMaxFlows(t *testing.T) {
	tbl := NewTable(0, nil)
	tbl.maxFlows = 2
	for i := uint32(1); i <= 2; i++ {
		if err := tbl.Add(&Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: i}}); err != nil {
			t.Fatal(err)
		}
	}
	err := tbl.Add(&Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 3}})
	if err != ErrTableFull {
		t.Errorf("err = %v", err)
	}
}

func TestTableDeleteNonStrict(t *testing.T) {
	tbl := NewTable(0, nil)
	_ = tbl.Add(&Entry{Priority: 10, Match: &Match{InPortSet: true, InPort: 1, EthTypeSet: true, EthType: pkt.EtherTypeIPv4}, Instructions: outputTo(5)})
	_ = tbl.Add(&Entry{Priority: 20, Match: &Match{InPortSet: true, InPort: 1}, Instructions: outputTo(6)})
	_ = tbl.Add(&Entry{Priority: 30, Match: &Match{InPortSet: true, InPort: 2}, Instructions: outputTo(7)})
	// Non-strict delete of everything matching in_port=1 (both more
	// specific entries qualify).
	removed := tbl.Delete(&Match{InPortSet: true, InPort: 1}, 0, false, openflow.PortAny)
	if len(removed) != 2 || tbl.Len() != 1 {
		t.Errorf("removed %d, len %d", len(removed), tbl.Len())
	}
	for _, r := range removed {
		if r.Reason != openflow.FlowRemovedDelete {
			t.Errorf("reason: %d", r.Reason)
		}
	}
	// Wildcard delete-all.
	removed = tbl.Delete(&Match{}, 0, false, openflow.PortAny)
	if len(removed) != 1 || tbl.Len() != 0 {
		t.Errorf("wildcard delete: %d, len %d", len(removed), tbl.Len())
	}
}

func TestTableDeleteStrict(t *testing.T) {
	tbl := NewTable(0, nil)
	m := &Match{InPortSet: true, InPort: 1}
	_ = tbl.Add(&Entry{Priority: 10, Match: m, Instructions: outputTo(1)})
	_ = tbl.Add(&Entry{Priority: 20, Match: &Match{InPortSet: true, InPort: 1, EthTypeSet: true, EthType: 0x800}, Instructions: outputTo(2)})
	// Strict with wrong priority: nothing.
	if removed := tbl.Delete(m, 99, true, openflow.PortAny); len(removed) != 0 {
		t.Errorf("strict wrong prio removed %d", len(removed))
	}
	// Strict with right priority and exact match: one entry.
	m2 := *m
	if removed := tbl.Delete(&m2, 10, true, openflow.PortAny); len(removed) != 1 {
		t.Errorf("strict removed %d", len(removed))
	}
	if tbl.Len() != 1 {
		t.Errorf("len %d", tbl.Len())
	}
}

func TestTableDeleteOutPortFilter(t *testing.T) {
	tbl := NewTable(0, nil)
	_ = tbl.Add(&Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 1}, Instructions: outputTo(5)})
	_ = tbl.Add(&Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 2}, Instructions: outputTo(6)})
	removed := tbl.Delete(&Match{}, 0, false, 5)
	if len(removed) != 1 || tbl.Len() != 1 {
		t.Errorf("out_port filter: removed %d len %d", len(removed), tbl.Len())
	}
}

func TestTableModify(t *testing.T) {
	tbl := NewTable(0, nil)
	m := &Match{InPortSet: true, InPort: 1}
	e := &Entry{Priority: 10, Match: m, Instructions: outputTo(1)}
	_ = tbl.Add(e)
	tbl.Lookup(udpKey(1, hostA, hostB, ipA, ipB, 1, 2), 50)
	n := tbl.Modify(&Match{InPortSet: true, InPort: 1}, 0, false, outputTo(9))
	if n != 1 {
		t.Fatalf("modified %d", n)
	}
	// Counters preserved.
	if e.Packets() != 1 {
		t.Error("modify reset counters")
	}
	got := tbl.Lookup(udpKey(1, hostA, hostB, ipA, ipB, 1, 2), 50)
	acts := got.Instrs()[0].(*openflow.InstrApplyActions).Actions
	if acts[0].(*openflow.ActionOutput).Port != 9 {
		t.Error("instructions not updated")
	}
	// Strict modify with wrong priority: no-op.
	if n := tbl.Modify(m, 99, true, outputTo(1)); n != 0 {
		t.Errorf("strict modify matched %d", n)
	}
}

func TestTableTimeouts(t *testing.T) {
	clk := netem.NewManualClock()
	tbl := NewTable(0, clk)
	idle := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 1}, IdleTimeout: 10}
	hard := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 2}, HardTimeout: 30}
	forever := &Entry{Priority: 1, Match: &Match{InPortSet: true, InPort: 3}}
	_ = tbl.Add(idle)
	_ = tbl.Add(hard)
	_ = tbl.Add(forever)

	clk.Advance(5 * time.Second)
	// Keep the idle entry alive by hitting it.
	tbl.Lookup(udpKey(1, hostA, hostB, ipA, ipB, 1, 2), 10)
	clk.Advance(6 * time.Second) // idle last hit 6s ago (< 10), hard at 11s
	if removed := tbl.ExpireEntries(); len(removed) != 0 {
		t.Fatalf("premature expiry: %d", len(removed))
	}
	clk.Advance(10 * time.Second) // idle 16s ago -> expire; hard at 21s
	removed := tbl.ExpireEntries()
	if len(removed) != 1 || removed[0].Entry != idle || removed[0].Reason != openflow.FlowRemovedIdleTimeout {
		t.Fatalf("idle expiry: %+v", removed)
	}
	clk.Advance(10 * time.Second) // hard at 31s -> expire
	removed = tbl.ExpireEntries()
	if len(removed) != 1 || removed[0].Entry != hard || removed[0].Reason != openflow.FlowRemovedHardTimeout {
		t.Fatalf("hard expiry: %+v", removed)
	}
	if tbl.Len() != 1 {
		t.Errorf("len %d", tbl.Len())
	}
}

func TestTableVersionBumps(t *testing.T) {
	tbl := NewTable(0, nil)
	v0 := tbl.Version()
	_ = tbl.Add(&Entry{Priority: 1, Match: &Match{}})
	if tbl.Version() == v0 {
		t.Error("Add did not bump version")
	}
	v1 := tbl.Version()
	tbl.Delete(&Match{}, 0, false, openflow.PortAny)
	if tbl.Version() == v1 {
		t.Error("Delete did not bump version")
	}
}

// coveredBy asks of two matches what a non-strict Delete or Modify asks
// of an entry and its request.
func coveredBy(m, r *Match) bool {
	a, b := compile(m), compile(r)
	return a.coveredBy(&b)
}

func TestCoveredBy(t *testing.T) {
	specific := &Match{InPortSet: true, InPort: 1, EthTypeSet: true, EthType: 0x800,
		IPSrcSet: true, IPSrc: pkt.MustIPv4("10.1.2.3"), IPSrcMask: onesIPv4}
	wide := &Match{InPortSet: true, InPort: 1}
	prefix := &Match{IPSrcSet: true, IPSrc: pkt.MustIPv4("10.1.0.0"), IPSrcMask: pkt.MustIPv4("255.255.0.0")}
	all := &Match{}
	if !coveredBy(specific, wide) {
		t.Error("specific should be covered by wide")
	}
	if coveredBy(wide, specific) {
		t.Error("wide should not be covered by specific")
	}
	if !coveredBy(specific, prefix) {
		t.Error("exact IP should be covered by shorter prefix")
	}
	if !coveredBy(specific, all) || !coveredBy(wide, all) {
		t.Error("everything covered by match-all")
	}
	if coveredBy(all, specific) {
		t.Error("match-all not covered by specific")
	}
}

// TestNonStrictActsOnWhatItCovers: for every matchable field, a
// non-strict delete or modify that names one value of it leaves an entry
// with another value — or with the same value under a wider mask — alone.
func TestNonStrictActsOnWhatItCovers(t *testing.T) {
	half, low := pkt.MAC{0xff, 0xff, 0xff, 0, 0, 0}, pkt.MustIPv4("255.255.255.0")
	ip, icmp, arp := pkt.EtherTypeIPv4, pkt.IPProtoICMP, pkt.EtherTypeARP
	fields := []struct {
		name         string
		named, other Match
	}{
		{"in_port", Match{InPortSet: true, InPort: 1}, Match{InPortSet: true, InPort: 2}},
		{"eth_dst", Match{EthDstSet: true, EthDst: hostA, EthDstMask: onesMAC}, Match{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC}},
		{"eth_dst mask", Match{EthDstSet: true, EthDst: hostA, EthDstMask: onesMAC}, Match{EthDstSet: true, EthDst: hostA, EthDstMask: half}},
		{"eth_src", Match{EthSrcSet: true, EthSrc: hostA, EthSrcMask: onesMAC}, Match{EthSrcSet: true, EthSrc: hostB, EthSrcMask: onesMAC}},
		{"eth_src mask", Match{EthSrcSet: true, EthSrc: hostA, EthSrcMask: onesMAC}, Match{EthSrcSet: true, EthSrc: hostA, EthSrcMask: half}},
		{"eth_type", Match{EthTypeSet: true, EthType: ip}, Match{EthTypeSet: true, EthType: arp}},
		{"vlan_vid", Match{VLAN: VLANExact, VLANVID: 10}, Match{VLAN: VLANExact, VLANVID: 20}},
		{"vlan none", Match{VLAN: VLANAbsent}, Match{VLAN: VLANExact}},
		{"vlan_pcp", Match{VLAN: VLANExact, VLANVID: 10, VLANPCPSet: true, VLANPCP: 1}, Match{VLAN: VLANExact, VLANVID: 10, VLANPCPSet: true, VLANPCP: 2}},
		{"ip_proto", Match{EthTypeSet: true, EthType: ip, IPProtoSet: true, IPProto: 6}, Match{EthTypeSet: true, EthType: ip, IPProtoSet: true, IPProto: 17}},
		{"nw_src", Match{IPSrcSet: true, IPSrc: ipA, IPSrcMask: onesIPv4}, Match{IPSrcSet: true, IPSrc: ipB, IPSrcMask: onesIPv4}},
		{"nw_src mask", Match{IPSrcSet: true, IPSrc: ipA, IPSrcMask: onesIPv4}, Match{IPSrcSet: true, IPSrc: ipA, IPSrcMask: low}},
		{"nw_dst", Match{IPDstSet: true, IPDst: ipA, IPDstMask: onesIPv4}, Match{IPDstSet: true, IPDst: ipB, IPDstMask: onesIPv4}},
		{"nw_dst mask", Match{IPDstSet: true, IPDst: ipA, IPDstMask: onesIPv4}, Match{IPDstSet: true, IPDst: ipA, IPDstMask: low}},
		{"tp_src", Match{L4SrcSet: true, L4Src: 53}, Match{L4SrcSet: true, L4Src: 54}},
		{"tp_dst", Match{L4DstSet: true, L4Dst: 53}, Match{L4DstSet: true, L4Dst: 54}},
		{"icmp_type", Match{IPProtoSet: true, IPProto: icmp, ICMPTypeSet: true, ICMPType: 8}, Match{IPProtoSet: true, IPProto: icmp, ICMPTypeSet: true}},
		{"icmp_code", Match{IPProtoSet: true, IPProto: icmp, ICMPCodeSet: true, ICMPCode: 1}, Match{IPProtoSet: true, IPProto: icmp, ICMPCodeSet: true}},
		{"arp_op", Match{EthTypeSet: true, EthType: arp, ARPOpSet: true, ARPOp: 1}, Match{EthTypeSet: true, EthType: arp, ARPOpSet: true, ARPOp: 2}},
		{"arp_spa", Match{ARPSPASet: true, ARPSPA: ipA, ARPSPAMask: onesIPv4}, Match{ARPSPASet: true, ARPSPA: ipB, ARPSPAMask: onesIPv4}},
		{"arp_spa mask", Match{ARPSPASet: true, ARPSPA: ipA, ARPSPAMask: onesIPv4}, Match{ARPSPASet: true, ARPSPA: ipA, ARPSPAMask: low}},
		{"arp_tpa", Match{ARPTPASet: true, ARPTPA: ipA, ARPTPAMask: onesIPv4}, Match{ARPTPASet: true, ARPTPA: ipB, ARPTPAMask: onesIPv4}},
		{"arp_tpa mask", Match{ARPTPASet: true, ARPTPA: ipA, ARPTPAMask: onesIPv4}, Match{ARPTPASet: true, ARPTPA: ipA, ARPTPAMask: low}},
	}
	for _, f := range fields {
		t.Run(f.name, func(t *testing.T) {
			tbl := NewTable(0, nil)
			named, other := &Entry{Priority: 1, Match: &f.named}, &Entry{Priority: 1, Match: &f.other}
			_, _ = tbl.Add(named), tbl.Add(other)
			req := f.named
			if n := tbl.Modify(&req, 0, false, outputTo(9)); n != 1 || len(other.Instrs()) != 0 {
				t.Errorf("modify %s touched %d entries (the other one: %v)", &req, n, len(other.Instrs()) != 0)
			}
			removed := tbl.Delete(&req, 0, false, openflow.PortAny)
			if len(removed) != 1 || removed[0].Entry != named || tbl.Len() != 1 {
				t.Errorf("delete %s removed %d entries, %d left; want only %v gone", &req, len(removed), tbl.Len(), named)
			}
			if coveredBy(&f.other, &f.named) || !coveredBy(&f.named, &f.named) {
				t.Errorf("coveredBy: %s by %s = %v, by itself %v", &f.other, &f.named, coveredBy(&f.other, &f.named), coveredBy(&f.named, &f.named))
			}
		})
	}
}

// flowSum is the hash the datapath hands SelectBucket for a frame with
// key k.
func flowSum(k *pkt.Key) uint64 {
	var f pkt.FlatKey
	k.FlatInto(&f)
	return f.FlowSum()
}

func TestGroupSelectAffinity(t *testing.T) {
	g := &Group{ID: 1, Type: openflow.GroupTypeSelect, Buckets: []openflow.Bucket{
		{Weight: 1}, {Weight: 1}, {Weight: 1},
	}}
	k := udpKey(1, hostA, hostB, ipA, ipB, 1234, 80)
	h := flowSum(k)
	b1 := g.SelectBucket(h)
	for i := 0; i < 10; i++ {
		if g.SelectBucket(h) != b1 {
			t.Fatal("same flow must select the same bucket")
		}
	}
	// Different flows should spread across buckets.
	seen := map[*openflow.Bucket]bool{}
	for p := uint16(1); p <= 200; p++ {
		k := udpKey(1, hostA, hostB, ipA, ipB, p, 80)
		seen[g.SelectBucket(flowSum(k))] = true
	}
	if len(seen) < 2 {
		t.Error("no spreading across buckets")
	}
}

func TestGroupSelectWeights(t *testing.T) {
	g := &Group{ID: 1, Type: openflow.GroupTypeSelect, Buckets: []openflow.Bucket{
		{Weight: 9}, {Weight: 1},
	}}
	counts := [2]int{}
	for i := 0; i < 5000; i++ {
		k := udpKey(1, hostA, hostB, ipA, pkt.IPv4FromUint32(uint32(i)), uint16(i), 80)
		b := g.SelectBucket(flowSum(k))
		if b == &g.Buckets[0] {
			counts[0]++
		} else {
			counts[1]++
		}
	}
	frac := float64(counts[0]) / 5000
	if frac < 0.8 || frac > 0.98 {
		t.Errorf("weight-9 bucket got %.2f of flows, want ~0.9", frac)
	}
}

func TestGroupTableOperations(t *testing.T) {
	gt := NewGroupTable()
	add := &openflow.GroupMod{Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1,
		Buckets: []openflow.Bucket{{Weight: 1}}}
	if err := gt.Apply(add); err != nil {
		t.Fatal(err)
	}
	if err := gt.Apply(add); err == nil {
		t.Error("duplicate add accepted")
	}
	if _, ok := gt.Get(1); !ok {
		t.Error("group missing")
	}
	mod := &openflow.GroupMod{Command: openflow.GroupModify, GroupType: openflow.GroupTypeAll, GroupID: 1}
	if err := gt.Apply(mod); err != nil {
		t.Fatal(err)
	}
	g, _ := gt.Get(1)
	if g.Type != openflow.GroupTypeAll {
		t.Error("modify ignored")
	}
	if err := gt.Apply(&openflow.GroupMod{Command: openflow.GroupModify, GroupID: 77}); err == nil {
		t.Error("modify of unknown group accepted")
	}
	if err := gt.Apply(&openflow.GroupMod{Command: openflow.GroupDelete, GroupID: 1}); err != nil {
		t.Fatal(err)
	}
	if gt.Len() != 0 {
		t.Error("delete ignored")
	}
	// Delete-all.
	_ = gt.Apply(add)
	if err := gt.Apply(&openflow.GroupMod{Command: openflow.GroupDelete, GroupID: openflow.GroupAny}); err != nil {
		t.Fatal(err)
	}
	if gt.Len() != 0 {
		t.Error("delete-all ignored")
	}
}

func TestGroupEmptyAndIndirect(t *testing.T) {
	g := &Group{ID: 2, Type: openflow.GroupTypeSelect}
	if g.SelectBucket(123) != nil {
		t.Error("empty group must return nil")
	}
	gi := &Group{ID: 3, Type: openflow.GroupTypeIndirect, Buckets: []openflow.Bucket{{Weight: 0}}}
	if gi.SelectBucket(9) != &gi.Buckets[0] {
		t.Error("indirect group must return the single bucket")
	}
}

func TestMeterTokenBucket(t *testing.T) {
	clk := netem.NewManualClock()
	mt := NewMeterTable(clk)
	err := mt.Apply(&openflow.MeterMod{
		Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: 1,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 10, BurstSize: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Burst of 5 passes, 6th drops.
	passed := 0
	for i := 0; i < 6; i++ {
		if mt.Pass(1, 100) {
			passed++
		}
	}
	if passed != 5 {
		t.Errorf("burst passed %d, want 5", passed)
	}
	// After 1s, 10 more tokens (capped at burst 5).
	clk.Advance(time.Second)
	passed = 0
	for i := 0; i < 10; i++ {
		if mt.Pass(1, 100) {
			passed++
		}
	}
	if passed != 5 {
		t.Errorf("after refill passed %d, want 5", passed)
	}
	m, _ := mt.Get(1)
	if m.Dropped() == 0 || m.Passed() == 0 {
		t.Error("meter counters not updated")
	}
}

func TestMeterUnknownPassesAll(t *testing.T) {
	mt := NewMeterTable(nil)
	if !mt.Pass(99, 100) {
		t.Error("unknown meter must pass")
	}
}

func TestMeterModValidation(t *testing.T) {
	mt := NewMeterTable(nil)
	bad := &openflow.MeterMod{Command: openflow.MeterAdd, MeterID: 1}
	if err := mt.Apply(bad); err == nil {
		t.Error("meter without bands accepted")
	}
	ok := &openflow.MeterMod{Command: openflow.MeterAdd, MeterID: 1,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 5}}}
	if err := mt.Apply(ok); err != nil {
		t.Fatal(err)
	}
	if err := mt.Apply(ok); err == nil {
		t.Error("duplicate meter accepted")
	}
	del := &openflow.MeterMod{Command: openflow.MeterDelete, MeterID: 1}
	if err := mt.Apply(del); err != nil {
		t.Fatal(err)
	}
}
