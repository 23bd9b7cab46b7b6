package pkt

import (
	"fmt"
	"testing"
)

// TestDecodeShapes pins what DecodeEthernet makes of each frame shape
// it tells apart: which headers it decodes, in what order, where it
// stops and what error it reports.
func TestDecodeShapes(t *testing.T) {
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	eth := func(et uint16) *Ethernet { return &Ethernet{Src: testSrcMAC, Dst: testDstMAC, EtherType: et} }
	ip := func(proto uint8) *IPv4Header {
		return &IPv4Header{TTL: 64, Protocol: proto, Src: testSrcIP, Dst: testDstIP}
	}
	pl := func(s string) *Payload { p := Payload(s); return &p }

	udp := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP), &UDP{SrcPort: 1234, DstPort: 5678}, pl("hi")))
	tagged := must(PushVLAN(udp, EtherTypeDot1Q, 101))
	qinq := must(PushVLAN(tagged, EtherTypeQinQ, 7))
	arp := must(Serialize(eth(EtherTypeARP),
		&ARP{Op: ARPRequest, SenderHW: testSrcMAC, SenderIP: testSrcIP, TargetIP: testDstIP}))
	arp = append(arp, make([]byte, MinFrameLen-len(arp))...)
	badARP := append([]byte{}, arp...)
	badARP[EthernetHeaderLen+4] = 8 // hlen
	frag := must(Serialize(eth(EtherTypeIPv4),
		&IPv4Header{TTL: 64, Protocol: IPProtoUDP, FragOffset: 185, Src: testSrcIP, Dst: testDstIP}, pl("fragment")))
	icmpv6 := must(Serialize(eth(EtherTypeIPv6), &IPv6Header{NextHeader: 58, HopLimit: 255}, pl("\x80\x00\x00\x00echo")))
	udp6 := must(Serialize(eth(EtherTypeIPv6), &IPv6Header{NextHeader: IPProtoUDP, HopLimit: 64},
		&UDP{SrcPort: 546, DstPort: 547}, pl("dhcp")))
	dnsEmpty := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP), &UDP{SrcPort: 5353, DstPort: 53}))
	dnsBad := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP), &UDP{SrcPort: 53, DstPort: 4000}, pl("\x00\x01\x81")))
	dnsQuery := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP), &UDP{SrcPort: 4000, DstPort: 53},
		&DNS{ID: 9, RD: true, Questions: []DNSQuestion{{Name: "example.org", Type: DNSTypeA, Class: DNSClassIN}}}))
	tcp := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoTCP),
		&TCP{SrcPort: 40000, DstPort: 80, Seq: 1, Flags: TCPSyn}, pl("GET")))
	badTCP := append([]byte{}, tcp...)
	badTCP[EthernetHeaderLen+IPv4MinHeaderLen+12] = 4 << 4 // data offset 16
	icmp := &ICMPv4{Type: ICMPv4EchoRequest}
	icmp.SetEcho(3, 4)
	ping := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoICMP), icmp, pl("ping")))
	ipOnly := must(Serialize(eth(EtherTypeIPv4), ip(IPProtoUDP)))
	badVersion := append([]byte{}, udp...)
	badVersion[EthernetHeaderLen] = 0x65
	lldp := must(Serialize(eth(0x88cc), pl("lldp")))

	for _, c := range []struct {
		name, str, err string
		frame          []byte
	}{
		{"untagged UDP", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=30 / UDP 1234 > 5678 len=10 / Payload", "", udp},
		{"tagged UDP", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x8100 / Dot1Q vid=101 pcp=0 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=30 / UDP 1234 > 5678 len=10 / Payload", "", tagged},
		{"QinQ UDP", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x88a8 / Dot1Q vid=7 pcp=0 type=0x8100 / Dot1Q vid=101 pcp=0 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=30 / UDP 1234 > 5678 len=10 / Payload", "", qinq},
		{"ARP with trailer", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0806 / ARP who-has 10.0.0.2 tell 10.0.0.1 (02:00:00:00:00:01) / Payload", "", arp},
		{"ARP bad hlen", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0806 [decode error: pkt: decoding ARP: unsupported hlen/plen 8/4]", "pkt: decoding ARP: unsupported hlen/plen 8/4", badARP},
		{"truncated tag", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x88a8 [decode error: pkt: decoding Dot1Q: truncated]", "pkt: decoding Dot1Q: truncated", qinq[:EthernetHeaderLen+2]},
		{"non-first fragment", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=28 / Payload", "", frag},
		{"IPv6 ICMPv6", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x86dd / IPv6 0:0:0:0:0:0:0:0 > 0:0:0:0:0:0:0:0 next=58 hlim=255 / Payload", "", icmpv6},
		{"IPv6 UDP", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x86dd / IPv6 0:0:0:0:0:0:0:0 > 0:0:0:0:0:0:0:0 next=17 hlim=64 / UDP 546 > 547 len=12 / Payload", "", udp6},
		{"UDP/53 empty", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=28 / UDP 5353 > 53 len=8", "", dnsEmpty},
		{"UDP/53 malformed DNS", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=31 / UDP 53 > 4000 len=11 [decode error: pkt: decoding DNS: truncated]", "pkt: decoding DNS: truncated", dnsBad},
		{"DNS query", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=57 / UDP 4000 > 53 len=37 / DNS query id=9 rcode=0 example.org", "", dnsQuery},
		{"TCP", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=6 ttl=64 len=43 / TCP 40000 > 80 [SYN] seq=1 ack=0 / Payload", "", tcp},
		{"TCP bad data offset", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=6 ttl=64 len=43 [decode error: pkt: decoding TCP: bad data offset]", "pkt: decoding TCP: bad data offset", badTCP},
		{"ICMP echo", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=1 ttl=64 len=32 / ICMP echo request id=3 seq=4 / Payload", "", ping},
		{"IPv4 header alone", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 / IPv4 10.0.0.1 > 10.0.0.2 proto=17 ttl=64 len=20", "", ipOnly},
		{"IPv4 bad version", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x0800 [decode error: pkt: decoding IPv4: version 6]", "pkt: decoding IPv4: version 6", badVersion},
		{"unknown EtherType", "Ethernet 02:00:00:00:00:01 > 02:00:00:00:00:02 type=0x88cc / Payload", "", lldp},
		{"13-byte frame", " [decode error: pkt: decoding Ethernet: truncated]", "pkt: decoding Ethernet: truncated", udp[:13]},
	} {
		p := DecodeEthernet(c.frame)
		if got := p.String(); got != c.str {
			t.Errorf("%s: String()\n got %q\nwant %q", c.name, got, c.str)
		}
		if got := fmt.Sprint(p.Err()); got != c.err && (p.Err() != nil || c.err != "") {
			t.Errorf("%s: Err() = %s, want %q", c.name, got, c.err)
		}
	}
}
