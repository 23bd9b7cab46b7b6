package flowtable

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func TestMeterKbpsMode(t *testing.T) {
	clk := netem.NewManualClock()
	mt := NewMeterTable(clk)
	// 8 kbit/s with 8 kbit burst: one 1000-byte packet per second.
	err := mt.Apply(&openflow.MeterMod{
		Command: openflow.MeterAdd, Flags: openflow.MeterFlagKbps, MeterID: 2,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 8, BurstSize: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mt.Pass(2, 1000) {
		t.Error("first 1000B packet should pass (full bucket)")
	}
	if mt.Pass(2, 1000) {
		t.Error("second immediate packet should drop")
	}
	clk.Advance(time.Second)
	if !mt.Pass(2, 1000) {
		t.Error("after 1s refill the packet should pass")
	}
}

func TestMatchStringAllFields(t *testing.T) {
	m := &Match{
		InPortSet: true, InPort: 3,
		EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC,
		EthSrcSet: true, EthSrc: hostA, EthSrcMask: onesMAC,
		EthTypeSet: true, EthType: 0x800,
		VLAN: VLANExact, VLANVID: 42,
		IPProtoSet: true, IPProto: 6,
		IPSrcSet: true, IPSrc: ipA, IPSrcMask: onesIPv4,
		IPDstSet: true, IPDst: ipB, IPDstMask: onesIPv4,
		L4SrcSet: true, L4Src: 1000,
		L4DstSet: true, L4Dst: 80,
		ARPOpSet: true, ARPOp: 1,
	}
	s := m.String()
	for _, want := range []string{"in_port=3", "eth_dst=", "vlan=42", "nw_src=", "tp_dst=80", "arp_op=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
	absent := &Match{VLAN: VLANAbsent}
	if !strings.Contains(absent.String(), "vlan=none") {
		t.Errorf("absent: %s", absent.String())
	}
	// Two matches that differ render differently: every field and every
	// mask is in the text.
	o := &oracle{rng: rand.New(rand.NewSource(3))}
	seen := map[string]Match{}
	for i := 0; i < 5000; i++ {
		m := o.match()
		if prev, ok := seen[m.String()]; ok && prev != *m {
			t.Fatalf("%+v\nand %+v\nboth render as %s", prev, *m, m)
		}
		seen[m.String()] = *m
	}
}

// TestOXMRoundTripEveryMatch: what FLOW_STATS and FLOW_REMOVED report of
// an entry is its match — every field and mask survives ToOXM and back,
// for whatever the oracle's generator draws.
func TestOXMRoundTripEveryMatch(t *testing.T) {
	o := &oracle{rng: rand.New(rand.NewSource(4))}
	for i := 0; i < 5000; i++ {
		m := o.match()
		wire := m.ToOXM()
		back, err := FromOXM(&wire)
		if err != nil || *back != *m {
			t.Fatalf("%s went out as %s and came back %s (%v)", m, &wire, back, err)
		}
	}
	m := &Match{EthSrcSet: true, EthSrc: hostA, EthSrcMask: pkt.MAC{0xff, 0xff, 0xff, 0, 0, 0},
		ICMPCodeSet: true, ICMPCode: 3,
		ARPSPASet: true, ARPSPA: ipA, ARPSPAMask: pkt.MustIPv4("255.255.255.0"),
		ARPTPASet: true, ARPTPA: ipB, ARPTPAMask: pkt.MustIPv4("255.255.0.0")}
	wire := m.ToOXM()
	if back, err := FromOXM(&wire); err != nil || *back != *m {
		t.Fatalf("%s came back %s (%v)", m, back, err)
	}
}

func TestToOXMMaskedAndUDP(t *testing.T) {
	m := &Match{
		EthDstSet: true, EthDst: hostB, EthDstMask: pkt.MAC{0xff, 0xff, 0, 0, 0, 0},
		IPProtoSet: true, IPProto: pkt.IPProtoUDP,
		IPSrcSet: true, IPSrc: ipA, IPSrcMask: pkt.MustIPv4("255.0.0.0"),
		IPDstSet: true, IPDst: ipB, IPDstMask: pkt.MustIPv4("255.255.0.0"),
		L4SrcSet: true, L4Src: 53,
		L4DstSet: true, L4Dst: 53,
		ICMPTypeSet: true, ICMPType: 8,
		ARPSPASet: true, ARPSPA: ipA, ARPSPAMask: onesIPv4,
		ARPTPASet: true, ARPTPA: ipB, ARPTPAMask: onesIPv4,
		ARPOpSet: true, ARPOp: 2,
		VLANPCPSet: true, VLANPCP: 5,
	}
	wire := m.ToOXM()
	// UDP proto must produce udp_src/udp_dst TLVs.
	if wire.Get(openflow.OXMUDPSrc) == nil || wire.Get(openflow.OXMUDPDst) == nil {
		t.Error("UDP ports not encoded as UDP OXMs")
	}
	if o := wire.Get(openflow.OXMEthDst); o == nil || !o.HasMask {
		t.Error("masked eth_dst lost its mask")
	}
	back, err := FromOXM(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if !back.EthDstSet || back.EthDstMask != m.EthDstMask {
		t.Errorf("mask round trip: %+v", back)
	}
	if back.IPSrcMask != m.IPSrcMask || back.IPDstMask != m.IPDstMask {
		t.Error("ip masks lost")
	}
}

func TestFromOXMRejectsUnknownField(t *testing.T) {
	wire := openflow.Match{OXMs: []openflow.OXM{{Field: 77, Value: []byte{1}}}}
	if _, err := FromOXM(&wire); err == nil {
		t.Error("unknown OXM accepted")
	}
}

func TestGroupCounters(t *testing.T) {
	g := &Group{ID: 1, Type: openflow.GroupTypeAll, Buckets: []openflow.Bucket{{}}}
	g.Hit(100)
	g.Hit(50)
	if g.Packets() != 2 {
		t.Errorf("packets: %d", g.Packets())
	}
}

func TestEntryString(t *testing.T) {
	e := &Entry{Priority: 9, Match: &Match{InPortSet: true, InPort: 1}}
	if e.String() == "" {
		t.Error("empty entry string")
	}
}

func TestValidatePrerequisites(t *testing.T) {
	cases := []struct {
		name string
		m    Match
		ok   bool
	}{
		{"empty", Match{}, true},
		{"l2 only", Match{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC}, true},
		{"ip without ethtype", Match{IPDstSet: true, IPDst: ipB, IPDstMask: onesIPv4}, false},
		{"ip with ethtype", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPDstSet: true, IPDst: ipB, IPDstMask: onesIPv4}, true},
		{"proto without ethtype", Match{IPProtoSet: true, IPProto: 6}, false},
		{"proto with ipv6", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv6, IPProtoSet: true, IPProto: 6}, true},
		{"l4 without proto", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, L4DstSet: true, L4Dst: 80}, false},
		{"l4 with icmp proto", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPProtoSet: true, IPProto: 1, L4DstSet: true}, false},
		{"icmp without proto", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, ICMPTypeSet: true}, false},
		{"icmp with proto", Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPProtoSet: true, IPProto: 1, ICMPTypeSet: true}, true},
		{"arp without ethtype", Match{ARPOpSet: true, ARPOp: 1}, false},
		{"arp with ethtype", Match{EthTypeSet: true, EthType: pkt.EtherTypeARP, ARPOpSet: true, ARPOp: 1}, true},
		{"pcp without vid", Match{VLANPCPSet: true, VLANPCP: 3}, false},
		{"pcp with vid", Match{VLAN: VLANExact, VLANVID: 5, VLANPCPSet: true, VLANPCP: 3}, true},
	}
	for _, c := range cases {
		err := c.m.ValidatePrerequisites()
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}
