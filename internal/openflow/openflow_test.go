package openflow

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// roundTrip marshals, reparses, and compares via reflect.DeepEqual.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	if m.XID() == 0 {
		m.SetXID(77)
	}
	wire, err := m.Marshal()
	if err != nil {
		t.Fatalf("marshal %T: %v", m, err)
	}
	// Header length must equal the frame length.
	h, err := ParseHeader(wire)
	if err != nil {
		t.Fatal(err)
	}
	if int(h.Length) != len(wire) {
		t.Fatalf("%T: header length %d != %d", m, h.Length, len(wire))
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatalf("parse %T: %v", m, err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("%T round trip mismatch:\n  sent %+v\n  got  %+v", m, m, got)
	}
	return got
}

func TestHelloEchoBarrierRoundTrip(t *testing.T) {
	roundTrip(t, &Hello{})
	roundTrip(t, &EchoRequest{Data: []byte("ping")})
	roundTrip(t, &EchoReply{Data: []byte("pong")})
	roundTrip(t, &BarrierRequest{})
	roundTrip(t, &BarrierReply{})
	roundTrip(t, &FeaturesRequest{})
}

func TestErrorRoundTrip(t *testing.T) {
	e := &Error{ErrType: ErrTypeFlowModFailed, Code: FlowModFailedTableFull, Data: []byte{1, 2, 3}}
	roundTrip(t, e)
	if e.Error() == "" {
		t.Error("Error() empty")
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	roundTrip(t, &FeaturesReply{
		DatapathID:   0x0000020000000001,
		NBuffers:     256,
		NTables:      4,
		Capabilities: CapFlowStats | CapPortStats,
	})
}

func testMatch() Match {
	m := Match{}
	m.WithInPort(3).
		WithEthType(pkt.EtherTypeIPv4).
		WithEthDst(pkt.MustMAC("02:00:00:00:00:02")).
		WithIPProto(pkt.IPProtoTCP).
		WithIPv4SrcMasked(pkt.MustIPv4("10.0.0.0"), pkt.MustIPv4("255.255.255.0")).
		WithTCPDst(80)
	return m
}

func TestFlowModRoundTrip(t *testing.T) {
	fm := &FlowMod{
		Cookie:      0xdeadbeef,
		TableID:     1,
		Command:     FlowAdd,
		IdleTimeout: 30,
		HardTimeout: 300,
		Priority:    1000,
		BufferID:    NoBuffer,
		OutPort:     PortAny,
		OutGroup:    GroupAny,
		Flags:       FlowFlagSendFlowRem,
		Match:       testMatch(),
		Instructions: []Instruction{
			&InstrMeter{MeterID: 5},
			&InstrApplyActions{Actions: []Action{
				&ActionPushVLAN{EtherType: pkt.EtherTypeDot1Q},
				&ActionSetField{OXM: OXM{Field: OXMVLANVID, Value: []byte{0x10, 0x65}}},
				&ActionOutput{Port: 4, MaxLen: 0xffff},
			}},
			&InstrGotoTable{TableID: 2},
		},
	}
	roundTrip(t, fm)
	if fm.String() == "" {
		t.Error("String() empty")
	}
}

func TestFlowModAllCommands(t *testing.T) {
	for _, cmd := range []uint8{FlowAdd, FlowModify, FlowModifyStrict, FlowDelete, FlowDeleteStrict} {
		roundTrip(t, &FlowMod{Command: cmd, BufferID: NoBuffer, OutPort: PortAny, OutGroup: GroupAny})
	}
}

func TestMatchBuildersAndString(t *testing.T) {
	m := &Match{}
	m.WithVLAN(101).WithVLANPCP(3).WithUDPSrc(53).WithUDPDst(53).
		WithICMPType(8).WithARPOp(1).WithARPSPA(pkt.MustIPv4("10.0.0.1")).
		WithARPTPA(pkt.MustIPv4("10.0.0.2")).WithEthSrc(pkt.MustMAC("02:00:00:00:00:01")).
		WithTCPSrc(1234).WithIPv4Src(pkt.MustIPv4("1.2.3.4")).WithIPv4Dst(pkt.MustIPv4("4.3.2.1")).
		WithIPv4DstMasked(pkt.MustIPv4("4.3.2.0"), pkt.MustIPv4("255.255.255.0")).
		WithEthDstMasked(pkt.MustMAC("01:00:00:00:00:00"), pkt.MustMAC("01:00:00:00:00:00"))
	if s := m.String(); s == "" || s == "any" {
		t.Errorf("String: %q", s)
	}
	// Replacing a field must not duplicate it.
	m2 := &Match{}
	m2.WithInPort(1).WithInPort(2)
	if len(m2.OXMs) != 1 {
		t.Errorf("duplicate field: %v", m2.OXMs)
	}
	if got := m2.Get(OXMInPort); got == nil || got.Value[3] != 2 {
		t.Errorf("Get: %+v", got)
	}
	if (&Match{}).String() != "any" {
		t.Error("empty match string")
	}
	// VLAN match must embed the present bit.
	m3 := &Match{}
	m3.WithVLAN(101)
	if v := m3.Get(OXMVLANVID); v == nil || v.Value[0] != 0x10 || v.Value[1] != 101-0x100+0x100 {
		// 0x1000|101 = 0x1065
		if v.Value[0] != 0x10 || v.Value[1] != 0x65 {
			t.Errorf("vlan oxm: %x", v.Value)
		}
	}
}

func TestMatchEqual(t *testing.T) {
	a, b := testMatch(), testMatch()
	if !a.Equal(&b) {
		t.Error("identical matches not equal")
	}
	b.WithInPort(9)
	if a.Equal(&b) {
		t.Error("different matches equal")
	}
	c := Match{}
	if a.Equal(&c) {
		t.Error("different lengths equal")
	}
}

func TestMatchMarshalPadding(t *testing.T) {
	// in_port only: 4+8 = 12 bytes, padded to 16.
	m := &Match{}
	m.WithInPort(1)
	raw, err := m.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw)%8 != 0 {
		t.Errorf("match not 8-aligned: %d", len(raw))
	}
	got := &Match{}
	consumed, err := got.unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(raw) {
		t.Errorf("consumed %d != %d", consumed, len(raw))
	}
	if !got.Equal(m) {
		t.Error("padding round trip failed")
	}
}

func TestMatchRejectsBadOXM(t *testing.T) {
	m := &Match{OXMs: []OXM{{Field: 99, Value: []byte{1}}}}
	if _, err := m.appendTo(nil); err == nil {
		t.Error("unknown field accepted")
	}
	m = &Match{OXMs: []OXM{{Field: OXMInPort, Value: []byte{1}}}}
	if _, err := m.appendTo(nil); err == nil {
		t.Error("short value accepted")
	}
	m = &Match{OXMs: []OXM{{Field: OXMInPort, HasMask: true, Value: []byte{0, 0, 0, 1}, Mask: []byte{1}}}}
	if _, err := m.appendTo(nil); err == nil {
		t.Error("short mask accepted")
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	match := Match{}
	match.WithInPort(7)
	pi := &PacketIn{
		BufferID: NoBuffer,
		TotalLen: 60,
		Reason:   PacketInReasonNoMatch,
		TableID:  0,
		Cookie:   42,
		Match:    match,
		Data:     bytes.Repeat([]byte{0xaa}, 60),
	}
	got := roundTrip(t, pi).(*PacketIn)
	if p, ok := got.InPort(); !ok || p != 7 {
		t.Errorf("InPort: %d %v", p, ok)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	roundTrip(t, &PacketOut{
		BufferID: NoBuffer,
		InPort:   PortController,
		Actions:  []Action{&ActionOutput{Port: PortFlood, MaxLen: 0xffff}},
		Data:     []byte{1, 2, 3, 4},
	})
	// Packet out with no actions (drop) and no data.
	roundTrip(t, &PacketOut{BufferID: 7, InPort: 1})
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	match := Match{}
	match.WithEthDst(pkt.MustMAC("02:00:00:00:00:09"))
	roundTrip(t, &FlowRemoved{
		Cookie: 9, Priority: 100, Reason: FlowRemovedIdleTimeout, TableID: 0,
		DurationSec: 5, IdleTimeout: 10, PacketCount: 3, ByteCount: 180,
		Match: match,
	})
}

func TestPortStatusRoundTrip(t *testing.T) {
	roundTrip(t, &PortStatus{
		Reason: PortReasonAdd,
		Desc: PortDesc{
			PortNo: 3, HWAddr: pkt.MustMAC("02:00:00:00:00:03"),
			Name: "harmless-p3", State: PortStateLive, CurrSpeed: 1000000, MaxSpeed: 1000000,
		},
	})
}

func TestGroupModRoundTrip(t *testing.T) {
	roundTrip(t, &GroupMod{
		Command:   GroupAdd,
		GroupType: GroupTypeSelect,
		GroupID:   1,
		Buckets: []Bucket{
			{Weight: 50, WatchPort: PortAny, WatchGroup: GroupAny,
				Actions: []Action{&ActionSetField{OXM: OXM{Field: OXMIPv4Dst, Value: []byte{10, 0, 0, 1}}}, &ActionOutput{Port: 1, MaxLen: 0xffff}}},
			{Weight: 50, WatchPort: PortAny, WatchGroup: GroupAny,
				Actions: []Action{&ActionSetField{OXM: OXM{Field: OXMIPv4Dst, Value: []byte{10, 0, 0, 2}}}, &ActionOutput{Port: 2, MaxLen: 0xffff}}},
		},
	})
}

func TestMeterModRoundTrip(t *testing.T) {
	roundTrip(t, &MeterMod{
		Command: MeterAdd, Flags: MeterFlagPktps, MeterID: 7,
		Bands: []MeterBand{{Type: MeterBandDrop, Rate: 1000, BurstSize: 100}},
	})
}

func TestMultipartRoundTrips(t *testing.T) {
	match := Match{}
	match.WithEthType(pkt.EtherTypeIPv4)
	roundTrip(t, &MultipartRequest{MPType: MultipartDesc})
	roundTrip(t, &MultipartRequest{MPType: MultipartPortDesc})
	roundTrip(t, &MultipartRequest{MPType: MultipartTable})
	roundTrip(t, &MultipartRequest{MPType: MultipartFlow,
		Flow: &FlowStatsRequest{TableID: TableAll, OutPort: PortAny, OutGroup: GroupAny, Match: match}})
	roundTrip(t, &MultipartRequest{MPType: MultipartPortStats, Port: &PortStatsRequest{PortNo: PortAny}})

	roundTrip(t, &MultipartReply{MPType: MultipartDesc, Desc: &SwitchDesc{
		Manufacturer: "HARMLESS project", Hardware: "softswitch", Software: "0.1",
		SerialNum: "s4-001", Datapath: "SS_2",
	}})
	roundTrip(t, &MultipartReply{MPType: MultipartFlow, Flows: []FlowStats{
		{TableID: 0, Priority: 10, PacketCount: 5, ByteCount: 300, Match: match,
			Instructions: []Instruction{&InstrApplyActions{Actions: []Action{&ActionOutput{Port: 2, MaxLen: 0xffff}}}}},
	}})
	roundTrip(t, &MultipartReply{MPType: MultipartPortStats, Ports: []PortStats{
		{PortNo: 1, RxPackets: 10, TxPackets: 20, RxBytes: 1000, TxBytes: 2000},
	}})
	roundTrip(t, &MultipartReply{MPType: MultipartTable, Tables: []TableStats{
		{TableID: 0, ActiveCount: 5, LookupCount: 100, MatchedCount: 90},
	}})
	roundTrip(t, &MultipartReply{MPType: MultipartPortDesc, PortDescs: []PortDesc{
		{PortNo: 1, HWAddr: pkt.MustMAC("02:00:00:00:00:01"), Name: "p1"},
	}})
}

func TestFlowStatsString(t *testing.T) {
	fs := &FlowStats{TableID: 0, Priority: 5}
	if fs.String() == "" {
		t.Error("empty")
	}
}

func TestActionStrings(t *testing.T) {
	actions := []Action{
		&ActionOutput{Port: 1}, &ActionOutput{Port: PortController},
		&ActionOutput{Port: PortFlood}, &ActionOutput{Port: PortAll}, &ActionOutput{Port: PortInPort},
		&ActionPushVLAN{EtherType: 0x8100}, &ActionPopVLAN{}, &ActionGroup{GroupID: 2},
		&ActionDecNwTTL{}, &ActionSetField{OXM: OXM{Field: OXMVLANVID, Value: []byte{0x10, 0x65}}},
	}
	for _, a := range actions {
		if a.String() == "" {
			t.Errorf("%T empty string", a)
		}
	}
	if actionsString(nil) != "drop" {
		t.Error("nil actions should render drop")
	}
	instrs := []Instruction{
		&InstrGotoTable{TableID: 1}, &InstrApplyActions{}, &InstrWriteActions{},
		&InstrClearActions{}, &InstrMeter{MeterID: 1},
	}
	for _, i := range instrs {
		if i.String() == "" {
			t.Errorf("%T empty string", i)
		}
	}
}

func TestSetFieldRejectsMask(t *testing.T) {
	a := &ActionSetField{OXM: OXM{Field: OXMVLANVID, HasMask: true,
		Value: []byte{0, 1}, Mask: []byte{0, 0xff}}}
	if _, err := a.appendTo(nil); err == nil {
		t.Error("masked set_field accepted")
	}
}

func TestParseRejectsBadFrames(t *testing.T) {
	// Wrong version.
	frame := []byte{0x01, TypeHello, 0, 8, 0, 0, 0, 1}
	if _, err := Parse(frame); err == nil {
		t.Error("version 1 accepted")
	}
	// Length mismatch.
	frame = []byte{Version, TypeHello, 0, 12, 0, 0, 0, 1}
	if _, err := Parse(frame); err == nil {
		t.Error("length mismatch accepted")
	}
	// Unknown type.
	frame = []byte{Version, 99, 0, 8, 0, 0, 0, 1}
	if _, err := Parse(frame); err == nil {
		t.Error("unknown type accepted")
	}
	// Short header.
	if _, err := Parse([]byte{1, 2, 3}); err == nil {
		t.Error("short frame accepted")
	}
}

func TestParseGarbageNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) >= 4 {
			// Force plausible framing so body parsers get exercised.
			data[0] = Version
			data[2] = byte(len(data) >> 8)
			data[3] = byte(len(data))
		}
		_, _ = Parse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestReadWriteMessageFraming(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	peer := NewConn(c2)
	defer peer.Close()
	go func() {
		// Two messages in one transport write, the second cut in two.
		frames, _ := (&EchoRequest{Data: []byte("abc"), xid: xid{Xid: 5}}).Marshal()
		fm := &FlowMod{Command: FlowAdd, BufferID: NoBuffer, OutPort: PortAny, OutGroup: GroupAny, xid: xid{Xid: 6}}
		fm.Match.WithInPort(1)
		frames, _ = fm.AppendTo(frames)
		_, _ = c1.Write(frames[:20])
		_, _ = c1.Write(frames[20:])
	}()
	m1, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := m1.(*EchoRequest); !ok || string(e.Data) != "abc" || e.XID() != 5 {
		t.Errorf("m1: %+v", m1)
	}
	m2, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if fm, ok := m2.(*FlowMod); !ok || fm.XID() != 6 {
		t.Errorf("m2: %+v", m2)
	}
}

func TestConnHandshake(t *testing.T) {
	c1, c2 := net.Pipe()
	ctrl := NewConn(c1)
	sw := NewConn(c2)
	defer ctrl.Close()
	defer sw.Close()

	// Minimal switch-side responder.
	go func() {
		_ = sw.Send(&Hello{})
		for {
			m, err := sw.Recv()
			if err != nil {
				return
			}
			switch m.(type) {
			case *Hello:
			case *FeaturesRequest:
				_ = sw.Send(&FeaturesReply{DatapathID: 0xabc, NTables: 2, xid: xid{Xid: m.XID()}})
				return
			}
		}
	}()

	fr, err := ctrl.Handshake(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fr.DatapathID != 0xabc || fr.NTables != 2 {
		t.Errorf("features: %+v", fr)
	}
}

func TestConnXIDAssignment(t *testing.T) {
	c1, c2 := net.Pipe()
	conn := NewConn(c1)
	defer conn.Close()
	go func() {
		m := &Hello{}
		_ = conn.Send(m)
	}()
	peer := NewConn(c2)
	defer peer.Close()
	m, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.XID() == 0 {
		t.Error("xid not assigned")
	}
}
