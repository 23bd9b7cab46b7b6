package harmless

import (
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func TestPlanMigrationDefaults(t *testing.T) {
	p, err := PlanMigration(PlanConfig{Hostname: "sw", NumPorts: 24})
	if err != nil {
		t.Fatal(err)
	}
	if p.TrunkPort != 24 {
		t.Errorf("trunk = %d", p.TrunkPort)
	}
	if len(p.VLANForPort) != 23 {
		t.Errorf("migrated = %d", len(p.VLANForPort))
	}
	if p.VLANForPort[1] != 101 || p.VLANForPort[23] != 123 {
		t.Errorf("vlans: %v", p.VLANForPort)
	}
	if p.LegacySegment {
		t.Error("full migration must not have a legacy segment")
	}
	if got := len(p.TrunkVLANs()); got != 23 {
		t.Errorf("trunk vlans: %d", got)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestPlanMigrationPartial(t *testing.T) {
	p, err := PlanMigration(PlanConfig{Hostname: "sw", NumPorts: 8, AccessPorts: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !p.LegacySegment {
		t.Error("partial migration must keep a legacy segment")
	}
	if p.LegacySegmentPort != 8 {
		t.Errorf("segment port = %d", p.LegacySegmentPort)
	}
	lp := p.LogicalPorts()
	if len(lp) != 4 || lp[3] != 8 {
		t.Errorf("logical ports: %v", lp)
	}
	// Trunk must carry the native VLAN too.
	vlans := p.TrunkVLANs()
	if vlans[0] != 1 {
		t.Errorf("trunk vlans: %v", vlans)
	}
}

func TestPlanMigrationValidation(t *testing.T) {
	cases := []PlanConfig{
		{NumPorts: 1},                                    // too few ports
		{NumPorts: 8, AccessPorts: []int{8}},             // trunk as access
		{NumPorts: 8, AccessPorts: []int{9}},             // out of range
		{NumPorts: 8, AccessPorts: []int{1, 1}},          // duplicate
		{NumPorts: 8, AccessPorts: []int{}},              // nothing to migrate
		{NumPorts: 4000, AccessPorts: []int{3995}},       // VLAN overflow
		{NumPorts: 4000, AccessPorts: []int{3994, 3995}}, // VLAN overflow on 2nd
		{NumPorts: 70000, AccessPorts: []int{65500}},     // VLAN would wrap uint16
	}
	for i, cfg := range cases {
		if _, err := PlanMigration(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTranslatorRulesShape(t *testing.T) {
	p, err := PlanMigration(PlanConfig{Hostname: "sw", NumPorts: 4, AccessPorts: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rules := TranslatorRules(p)
	// 2 per access port + 2 for the legacy segment.
	if len(rules) != 6 {
		t.Fatalf("rules = %d, want 6", len(rules))
	}
	var sawTrunkIn, sawPatchIn, sawUntagged int
	for _, fm := range rules {
		if fm.Command != openflow.FlowAdd || fm.TableID != 0 {
			t.Errorf("rule shape: %s", fm)
		}
		s := fm.String()
		switch {
		case strings.Contains(s, "in_port=1,") || strings.Contains(s, "in_port=1 "):
			sawTrunkIn++
		case strings.Contains(s, "in_port=100"):
			sawPatchIn++
		}
		if strings.Contains(s, "vlan_vid=0") {
			sawUntagged++
		}
	}
	if sawPatchIn != 3 { // two access patches + legacy segment patch
		t.Errorf("patch-ingress rules: %d", sawPatchIn)
	}
}

func TestTranslatorDataplane(t *testing.T) {
	// Build an S4 for 2 access ports, drive SS_1 directly: a frame
	// tagged 101 entering the trunk must exit SS_2's logical port 1
	// untagged, and vice versa.
	plan, err := PlanMigration(PlanConfig{Hostname: "sw", NumPorts: 3, AccessPorts: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := BuildS4(plan, S4Config{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	trunk := netem.NewLink(netem.LinkConfig{})
	defer trunk.Close()
	s4.AttachTrunk(trunk.B())

	// SS_2 forwards logical port 1 <-> 2 directly (stand-in for a
	// controller program).
	m12 := openflow.Match{}
	m12.WithInPort(1)
	if _, err := s4.SS2.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m12, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		t.Fatal(err)
	}

	// Capture what comes back on the trunk.
	var got [][]byte
	trunk.A().SetReceiver(func(f []byte) { got = append(got, f) })

	// A frame from host on access port 1 (VLAN 101 on the trunk).
	payload := pkt.Payload("fig1")
	inner, err := pkt.Serialize(
		&pkt.Ethernet{Src: pkt.MustMAC("02:00:00:00:00:01"), Dst: pkt.MustMAC("02:00:00:00:00:02"), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: pkt.MustIPv4("10.0.0.1"), Dst: pkt.MustIPv4("10.0.0.2")},
		&pkt.UDP{SrcPort: 1, DstPort: 2},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := pkt.PushVLAN(inner, pkt.EtherTypeDot1Q, 101)
	if err != nil {
		t.Fatal(err)
	}
	if err := trunk.A().Send(tagged); err != nil {
		t.Fatal(err)
	}

	if len(got) != 1 {
		t.Fatalf("trunk returned %d frames", len(got))
	}
	vid, ok := pkt.VLANID(got[0])
	if !ok || vid != 102 {
		t.Fatalf("hairpinned frame vid=%d ok=%v, want 102", vid, ok)
	}
	// Payload intact under the new tag.
	stripped, err := pkt.PopVLAN(got[0])
	if err != nil {
		t.Fatal(err)
	}
	p := pkt.DecodeEthernet(stripped)
	if string(p.ApplicationPayload()) != "fig1" {
		t.Errorf("payload: %s", p)
	}
}

func TestTranslatorLegacySegmentUntagged(t *testing.T) {
	plan, err := PlanMigration(PlanConfig{Hostname: "sw", NumPorts: 4, AccessPorts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := BuildS4(plan, S4Config{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	trunk := netem.NewLink(netem.LinkConfig{})
	defer trunk.Close()
	s4.AttachTrunk(trunk.B())

	// SS_2: logical 1 <-> legacy segment (port 4).
	for _, pair := range [][2]uint32{{1, 4}, {4, 1}} {
		m := openflow.Match{}
		m.WithInPort(pair[0])
		if _, err := s4.SS2.ApplyFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowAdd, Priority: 10,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: pair[1], MaxLen: 0xffff}},
			}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	trunk.A().SetReceiver(func(f []byte) { got = append(got, f) })

	// Tagged 101 in -> must come back untagged (to the native VLAN).
	payload := pkt.Payload("seg")
	inner, _ := pkt.Serialize(
		&pkt.Ethernet{Src: pkt.MustMAC("02:00:00:00:00:01"), Dst: pkt.MustMAC("02:00:00:00:00:09"), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: pkt.MustIPv4("10.0.0.1"), Dst: pkt.MustIPv4("10.0.0.9")},
		&pkt.UDP{SrcPort: 5, DstPort: 6},
		&payload,
	)
	tagged, _ := pkt.PushVLAN(inner, pkt.EtherTypeDot1Q, 101)
	_ = trunk.A().Send(tagged)
	if len(got) != 1 {
		t.Fatalf("trunk frames: %d", len(got))
	}
	if pkt.HasVLAN(got[0]) {
		t.Error("legacy-segment egress must be untagged")
	}
	// Untagged in -> back tagged 101 to the migrated port.
	got = nil
	cp := make([]byte, len(inner))
	copy(cp, inner)
	_ = trunk.A().Send(cp)
	if len(got) != 1 {
		t.Fatalf("trunk frames: %d", len(got))
	}
	if vid, ok := pkt.VLANID(got[0]); !ok || vid != 101 {
		t.Errorf("vid=%d ok=%v, want 101", vid, ok)
	}
}

func TestS4PortNumbering(t *testing.T) {
	plan, _ := PlanMigration(PlanConfig{Hostname: "sw", NumPorts: 5, AccessPorts: []int{1, 2, 3}})
	s4, err := BuildS4(plan, S4Config{})
	if err != nil {
		t.Fatal(err)
	}
	// SS_2 exposes exactly the logical ports (incl. legacy segment 5).
	ports := s4.SS2.PortNumbers()
	want := []uint32{1, 2, 3, 5}
	if len(ports) != len(want) {
		t.Fatalf("ports: %v", ports)
	}
	for i := range want {
		if ports[i] != want[i] {
			t.Fatalf("ports: %v, want %v", ports, want)
		}
	}
	if s4.String() == "" {
		t.Error("empty String")
	}
	// SS_1 rules count: 3 ports *2 + segment *2.
	if got := s4.SS1.Table(0).Len(); got != 8 {
		t.Errorf("translator rules: %d", got)
	}
}
