package pkt

import (
	"testing"
)

func TestExtractKeyUDP(t *testing.T) {
	frame := buildUDPFrame(t, []byte("payload"))
	var k Key
	if err := ExtractKey(frame, 7, &k); err != nil {
		t.Fatal(err)
	}
	if k.InPort != 7 {
		t.Errorf("InPort = %d", k.InPort)
	}
	if k.EthSrc != testSrcMAC || k.EthDst != testDstMAC {
		t.Errorf("MACs: %v > %v", k.EthSrc, k.EthDst)
	}
	if k.EthType != EtherTypeIPv4 || k.HasVLAN {
		t.Errorf("EthType=%#x HasVLAN=%v", k.EthType, k.HasVLAN)
	}
	if !k.HasIPv4 || k.IPSrc != testSrcIP || k.IPDst != testDstIP || k.IPProto != IPProtoUDP {
		t.Errorf("IP fields: %+v", k)
	}
	if !k.HasL4 || k.L4Src != 1234 || k.L4Dst != 5678 {
		t.Errorf("L4 fields: %+v", k)
	}
}

func TestExtractKeyVLAN(t *testing.T) {
	base := buildUDPFrame(t, []byte("p"))
	tagged, err := PushVLAN(base, EtherTypeDot1Q, 101)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := ExtractKey(tagged, 1, &k); err != nil {
		t.Fatal(err)
	}
	if !k.HasVLAN || k.VLANID != 101 {
		t.Errorf("VLAN: %+v", k)
	}
	// EtherType must be the inner type, not 0x8100.
	if k.EthType != EtherTypeIPv4 {
		t.Errorf("EthType = %#x", k.EthType)
	}
	if !k.HasIPv4 || !k.HasL4 {
		t.Error("inner layers must still be extracted through the tag")
	}
}

func TestExtractKeyQinQUsesOuterTag(t *testing.T) {
	base := buildUDPFrame(t, []byte("p"))
	inner, _ := PushVLAN(base, EtherTypeDot1Q, 101)
	outer, _ := PushVLAN(inner, EtherTypeQinQ, 300)
	var k Key
	if err := ExtractKey(outer, 1, &k); err != nil {
		t.Fatal(err)
	}
	if k.VLANID != 300 {
		t.Errorf("outer VID = %d, want 300", k.VLANID)
	}
	if !k.HasIPv4 {
		t.Error("must parse through both tags")
	}
}

func TestExtractKeyARP(t *testing.T) {
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: BroadcastMAC, EtherType: EtherTypeARP},
		&ARP{Op: ARPRequest, SenderHW: testSrcMAC, SenderIP: testSrcIP, TargetIP: testDstIP},
	)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := ExtractKey(frame, 2, &k); err != nil {
		t.Fatal(err)
	}
	if !k.HasARP || k.ARPOp != ARPRequest || k.ARPSPA != testSrcIP || k.ARPTPA != testDstIP {
		t.Errorf("ARP key: %+v", k)
	}
	if k.HasIPv4 || k.HasL4 {
		t.Error("ARP frame must not set IP/L4 fields")
	}
}

func TestExtractKeyICMP(t *testing.T) {
	icmp := &ICMPv4{Type: ICMPv4EchoRequest}
	icmp.SetEcho(1, 1)
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoICMP, Src: testSrcIP, Dst: testDstIP},
		icmp,
	)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := ExtractKey(frame, 1, &k); err != nil {
		t.Fatal(err)
	}
	if !k.HasICMP || k.ICMPType != ICMPv4EchoRequest || k.ICMPCode != 0 {
		t.Errorf("ICMP key: %+v", k)
	}
}

func TestExtractKeyIPv6(t *testing.T) {
	pl := Payload([]byte("hi"))
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv6},
		&IPv6Header{NextHeader: IPProtoUDP, HopLimit: 64, Src: IPv6{1}, Dst: IPv6{2}},
		&UDP{SrcPort: 53, DstPort: 53},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := ExtractKey(frame, 1, &k); err != nil {
		t.Fatal(err)
	}
	if !k.HasIPv6 || k.IPProto != IPProtoUDP || !k.HasL4 || k.L4Src != 53 {
		t.Errorf("IPv6 key: %+v", k)
	}
}

func TestExtractKeyTruncatedInner(t *testing.T) {
	frame := buildUDPFrame(t, []byte("p"))
	// Cut into the IP header: Ethernet decodes, IP does not.
	var k Key
	if err := ExtractKey(frame[:EthernetHeaderLen+8], 1, &k); err != nil {
		t.Fatal(err)
	}
	if k.HasIPv4 || k.HasL4 {
		t.Error("truncated IP must leave IP fields unset")
	}
	if k.EthType != EtherTypeIPv4 {
		t.Errorf("EthType = %#x", k.EthType)
	}
	// Too short for Ethernet: error.
	if err := ExtractKey(frame[:10], 1, &k); err == nil {
		t.Error("expected error for sub-Ethernet frame")
	}
}

func TestExtractKeyFragmentNoL4(t *testing.T) {
	pl := Payload([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	frame, err := Serialize(
		&Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: EtherTypeIPv4},
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, Src: testSrcIP, Dst: testDstIP, FragOffset: 64},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	if err := ExtractKey(frame, 1, &k); err != nil {
		t.Fatal(err)
	}
	if !k.HasIPv4 {
		t.Error("IP fields must be set for fragments")
	}
	if k.HasL4 {
		t.Error("non-first fragment must not extract L4 ports")
	}
}

func TestKeyIsComparable(t *testing.T) {
	frame := buildUDPFrame(t, []byte("p"))
	var k1, k2 Key
	if err := ExtractKey(frame, 3, &k1); err != nil {
		t.Fatal(err)
	}
	if err := ExtractKey(frame, 3, &k2); err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("identical frames must produce equal keys")
	}
	m := map[Key]int{k1: 1}
	if m[k2] != 1 {
		t.Error("key must work as map key")
	}
}

func BenchmarkExtractKey(b *testing.B) {
	frame := buildUDPFrame(b, make([]byte, 1000))
	var k Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ExtractKey(frame, 1, &k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFull(b *testing.B) {
	frame := buildUDPFrame(b, make([]byte, 1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := DecodeEthernet(frame)
		if p.Err() != nil {
			b.Fatal(p.Err())
		}
	}
}
