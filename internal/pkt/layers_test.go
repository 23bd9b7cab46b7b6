package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	testSrcMAC = MustMAC("02:00:00:00:00:01")
	testDstMAC = MustMAC("02:00:00:00:00:02")
	testSrcIP  = MustIPv4("10.0.0.1")
	testDstIP  = MustIPv4("10.0.0.2")
)

// buildUDPFrame builds a complete Ethernet/IPv4/UDP frame for use
// throughout the package tests.
func buildUDPFrame(t testing.TB, payload []byte) []byte {
	t.Helper()
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 1234, DstPort: 5678},
		(*Payload)(&payload),
	)
	if err != nil {
		t.Fatalf("Serialize: %v", err)
	}
	return frame
}

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeARP}
	raw, err := Serialize(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Ethernet
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Src != e.Src || got.Dst != e.Dst || got.EtherType != e.EtherType {
		t.Errorf("round trip mismatch: got %+v want %+v", got, e)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if err := e.DecodeFromBytes(make([]byte, 13)); err == nil {
		t.Error("expected truncation error for 13-byte frame")
	}
}

func TestDot1QRoundTrip(t *testing.T) {
	f := func(vid uint16, pcp uint8, dei bool) bool {
		vid &= 0x0fff
		pcp &= 0x7
		d := &Dot1Q{VLANID: vid, Priority: pcp, DropEligible: dei, EtherType: EtherTypeIPv4}
		raw, err := Serialize(d)
		if err != nil {
			return false
		}
		var got Dot1Q
		if err := got.DecodeFromBytes(raw); err != nil {
			return false
		}
		return got.VLANID == vid && got.Priority == pcp && got.DropEligible == dei && got.EtherType == EtherTypeIPv4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDot1QRejectsOversizeVID(t *testing.T) {
	d := &Dot1Q{VLANID: 5000}
	if _, err := Serialize(d); err == nil {
		t.Error("expected error for 13-bit VLAN id")
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{
		Op:       ARPRequest,
		SenderHW: testSrcMAC,
		SenderIP: testSrcIP,
		TargetHW: ZeroMAC,
		TargetIP: testDstIP,
	}
	raw, err := Serialize(a)
	if err != nil {
		t.Fatal(err)
	}
	var got ARP
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Op != a.Op || got.SenderHW != a.SenderHW || got.SenderIP != a.SenderIP ||
		got.TargetHW != a.TargetHW || got.TargetIP != a.TargetIP {
		t.Errorf("round trip mismatch: got %+v want %+v", got, a)
	}
	if got.HWType != 1 || got.ProtoType != 0x0800 {
		t.Errorf("wrong HW/proto types: %d/%#x", got.HWType, got.ProtoType)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	payload := Payload(bytes.Repeat([]byte{0xab}, 100))
	ip := &IPv4Header{
		TOS: 0x10, ID: 4242, Flags: IPv4DontFragment, TTL: 63,
		Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP,
	}
	raw, err := Serialize(ip, &payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4Header
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.TTL != 63 || got.Protocol != IPProtoUDP ||
		got.TOS != 0x10 || got.ID != 4242 || got.Flags != IPv4DontFragment {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.TotalLen != uint16(IPv4MinHeaderLen+100) {
		t.Errorf("TotalLen = %d, want %d", got.TotalLen, IPv4MinHeaderLen+100)
	}
	if !got.VerifyChecksum(raw) {
		t.Error("checksum does not verify")
	}
	// Corrupt a byte: checksum must fail.
	raw[15] ^= 0xff
	var bad IPv4Header
	if err := bad.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if bad.VerifyChecksum(raw) {
		t.Error("checksum verified after corruption")
	}
}

func TestIPv4BadVersion(t *testing.T) {
	raw := make([]byte, IPv4MinHeaderLen)
	raw[0] = 0x65 // version 6
	var h IPv4Header
	if err := h.DecodeFromBytes(raw); err == nil {
		t.Error("expected version error")
	}
}

func TestIPv4Fragments(t *testing.T) {
	payload := Payload([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	ip := &IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP, FragOffset: 100, Flags: IPv4MoreFragments}
	raw, err := Serialize(ip, &payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv4Header
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.FragOffset != 100 || got.Flags != IPv4MoreFragments {
		t.Errorf("frag fields: off=%d flags=%d", got.FragOffset, got.Flags)
	}
	frame, err := Serialize(&Ethernet{EtherType: EtherTypeIPv4}, ip, &payload)
	if err != nil {
		t.Fatal(err)
	}
	if p := DecodeEthernet(frame); p.UDP() != nil || !bytes.Equal(p.ApplicationPayload(), payload) {
		t.Errorf("non-first fragment must not decode an L4 header: %s", p)
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	payload := Payload([]byte("hello"))
	ip6 := &IPv6Header{TrafficClass: 7, FlowLabel: 0xbeef, NextHeader: IPProtoUDP, HopLimit: 63,
		Src: IPv6{0xfe, 0x80, 15: 1}, Dst: IPv6{0xfe, 0x80, 15: 2}}
	raw, err := Serialize(ip6, &payload)
	if err != nil {
		t.Fatal(err)
	}
	var got IPv6Header
	if err := got.DecodeFromBytes(raw); err != nil {
		t.Fatal(err)
	}
	if got.Src != ip6.Src || got.Dst != ip6.Dst || got.NextHeader != IPProtoUDP ||
		got.HopLimit != 63 || got.TrafficClass != 7 || got.FlowLabel != 0xbeef {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.PayloadLen != 5 {
		t.Errorf("PayloadLen = %d, want 5", got.PayloadLen)
	}
}

func TestUDPRoundTripWithChecksum(t *testing.T) {
	frame := buildUDPFrame(t, []byte("ping"))
	p := DecodeEthernet(frame)
	if p.Err() != nil {
		t.Fatalf("decode: %v", p.Err())
	}
	u := p.UDP()
	if u == nil {
		t.Fatal("no UDP layer")
	}
	if u.SrcPort != 1234 || u.DstPort != 5678 {
		t.Errorf("ports %d/%d", u.SrcPort, u.DstPort)
	}
	if u.Length != UDPHeaderLen+4 {
		t.Errorf("Length = %d", u.Length)
	}
	if u.Checksum == 0 {
		t.Error("expected computed UDP checksum")
	}
	// Verify the checksum is actually valid per RFC 768.
	ip := p.IPv4()
	seg := append([]byte{}, ip.LayerPayload()...)
	if got := L4Checksum(ip.Src, ip.Dst, IPProtoUDP, seg); got != 0 {
		t.Errorf("UDP checksum verification failed: residual %#x", got)
	}
	if string(p.ApplicationPayload()) != "ping" {
		t.Errorf("payload %q", p.ApplicationPayload())
	}
}

func TestTCPRoundTripWithChecksum(t *testing.T) {
	payload := Payload([]byte("GET / HTTP/1.0\r\n\r\n"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoTCP, Src: testSrcIP, Dst: testDstIP},
		&TCP{SrcPort: 40000, DstPort: 80, Seq: 1000, Ack: 2000, Flags: TCPPsh | TCPAck, Window: 65535},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	tcp := p.TCP()
	if tcp == nil {
		t.Fatalf("no TCP layer in %s", p)
	}
	if tcp.SrcPort != 40000 || tcp.DstPort != 80 || tcp.Seq != 1000 || tcp.Ack != 2000 {
		t.Errorf("fields: %+v", tcp)
	}
	if tcp.Flags != TCPPsh|TCPAck {
		t.Errorf("flags %s", tcp.FlagString())
	}
	ip := p.IPv4()
	if got := L4Checksum(ip.Src, ip.Dst, IPProtoTCP, ip.LayerPayload()); got != 0 {
		t.Errorf("TCP checksum verification failed: residual %#x", got)
	}
}

func TestTCPFlagString(t *testing.T) {
	tcp := &TCP{Flags: TCPSyn | TCPAck}
	if got := tcp.FlagString(); got != "SYN|ACK" {
		t.Errorf("FlagString = %q", got)
	}
	if got := (&TCP{}).FlagString(); got != "none" {
		t.Errorf("FlagString = %q", got)
	}
}

func TestICMPv4RoundTrip(t *testing.T) {
	data := Payload([]byte("abcdefgh"))
	icmp := &ICMPv4{Type: ICMPv4EchoRequest}
	icmp.SetEcho(77, 3)
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoICMP, Src: testSrcIP, Dst: testDstIP},
		icmp, &data,
	)
	if err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	got := p.ICMPv4()
	if got == nil {
		t.Fatalf("no ICMP layer in %s", p)
	}
	if got.Type != ICMPv4EchoRequest || got.ID() != 77 || got.Seq() != 3 {
		t.Errorf("fields: type=%d id=%d seq=%d", got.Type, got.ID(), got.Seq())
	}
	// ICMP checksum covers header+payload; verify residual is zero.
	ip := p.IPv4()
	if Checksum(ip.LayerPayload()) != 0 {
		t.Error("ICMP checksum verification failed")
	}
}

func TestVLANTaggedIPv4Decode(t *testing.T) {
	payload := Payload([]byte("x"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeDot1Q},
		&Dot1Q{VLANID: 101, Priority: 5, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 1, DstPort: 2},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	if p.Err() != nil {
		t.Fatalf("decode: %v", p.Err())
	}
	v := p.VLAN()
	if v == nil || v.VLANID != 101 || v.Priority != 5 {
		t.Fatalf("VLAN layer: %+v", v)
	}
	if p.IPv4() == nil || p.UDP() == nil {
		t.Fatalf("inner layers missing: %s", p)
	}
}

func TestQinQDecode(t *testing.T) {
	payload := Payload([]byte("y"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeQinQ},
		&Dot1Q{VLANID: 200, EtherType: EtherTypeDot1Q},
		&Dot1Q{VLANID: 101, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 1, DstPort: 2},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	p := DecodeEthernet(frame)
	if vlans := p.tags; len(vlans) != 2 || vlans[0].VLANID != 200 || vlans[1].VLANID != 101 {
		t.Fatalf("QinQ stack wrong: %s", p)
	}
}

func TestPacketString(t *testing.T) {
	frame := buildUDPFrame(t, []byte("z"))
	s := DecodeEthernet(frame).String()
	for _, want := range []string{"Ethernet", "IPv4", "UDP"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	// Random short garbage must not panic and must set Err or produce
	// payload-only packets.
	f := func(data []byte) bool {
		p := DecodeEthernet(data)
		_ = p.String()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSerializeBufferGrowth(t *testing.T) {
	b := NewSerializeBuffer()
	// The payload fits the headroom; the UDP header then must grow the
	// buffer, carrying the payload over.
	payload := Payload(bytes.Repeat([]byte{1}, serializeHeadroom-6))
	frame, err := SerializeLayers(b,
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 1, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
		&UDP{SrcPort: 9, DstPort: 10},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	want := EthernetHeaderLen + IPv4MinHeaderLen + UDPHeaderLen + len(payload)
	if len(frame) != want {
		t.Errorf("len = %d, want %d", len(frame), want)
	}
	p := DecodeEthernet(frame)
	if p.Err() != nil || p.UDP() == nil {
		t.Fatalf("grown buffer produced bad frame: %s", p)
	}
	if !bytes.Equal(p.ApplicationPayload(), payload) {
		t.Error("payload not carried over when the buffer grew")
	}
}

func TestSerializeBufferReuse(t *testing.T) {
	b := NewSerializeBuffer()
	for i := 0; i < 3; i++ {
		pl := Payload([]byte{byte(i)})
		frame, err := SerializeLayers(b,
			&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
			&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP},
			&UDP{SrcPort: 5, DstPort: 6},
			&pl,
		)
		if err != nil {
			t.Fatal(err)
		}
		p := DecodeEthernet(frame)
		if got := p.ApplicationPayload(); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("iteration %d: payload %v", i, got)
		}
	}
}

func TestChecksumProperties(t *testing.T) {
	// The Internet checksum of data with its checksum appended must
	// fold to zero.
	f := func(data []byte) bool {
		if len(data)%2 != 0 {
			data = append(data, 0)
		}
		c := Checksum(data)
		full := append(append([]byte{}, data...), byte(c>>8), byte(c))
		return Checksum(full) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIncrementalChecksumMatchesRecompute(t *testing.T) {
	// RFC 1624 incremental update must agree with full recomputation.
	f := func(base [32]byte, old, new uint16) bool {
		data := append([]byte{}, base[:]...)
		data[0], data[1] = byte(old>>8), byte(old)
		// Compute full checksum with field = old, store at end.
		cs := Checksum(data)
		csBytes := []byte{byte(cs >> 8), byte(cs)}
		// Swap field and update incrementally.
		data[0], data[1] = byte(new>>8), byte(new)
		updateChecksum16(csBytes, old, new)
		want := Checksum(data)
		got := uint16(csBytes[0])<<8 | uint16(csBytes[1])
		// One's-complement arithmetic has two representations of zero
		// (0x0000 and 0xffff); both verify identically on the wire.
		if got == want {
			return true
		}
		return (got == 0x0000 || got == 0xffff) && (want == 0x0000 || want == 0xffff)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
