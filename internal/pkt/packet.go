package pkt

import (
	"fmt"
	"strings"
)

// Packet is a fully decoded frame: each header it carries in a typed
// field, nil where the frame has none. Decoding is eager; a header that
// fails to decode ends the walk, is reported by Err, and leaves the
// headers before it in place.
type Packet struct {
	eth     *Ethernet
	tags    []Dot1Q // outermost first
	arp     *ARP
	ipv4    *IPv4Header
	ipv6    *IPv6Header
	tcp     *TCP
	udp     *UDP
	icmp    *ICMPv4
	dns     *DNS
	payload []byte
	err     error
}

// DecodeEthernet decodes the one header chain a frame can carry:
// Ethernet, any 802.1Q/QinQ tags, ARP, IPv4 or IPv6, then TCP, UDP or
// (over IPv4) ICMPv4, then DNS on UDP port 53. The bytes no header
// claims are the payload. A chain that runs out of bytes at a header
// boundary simply ends there. data is NOT copied; the caller must not
// mutate it while the Packet is in use (the dataplane hands frames over
// by ownership transfer, so this is the gopacket NoCopy model).
func DecodeEthernet(data []byte) *Packet {
	p := &Packet{}
	p.payload, p.err = p.decode(data)
	return p
}

// decode walks the chain, keeping each header as it decodes, and
// returns the bytes left over.
func (p *Packet) decode(data []byte) ([]byte, error) {
	eth := new(Ethernet)
	if err := eth.DecodeFromBytes(data); err != nil {
		return nil, err
	}
	p.eth = eth
	rest, et := data[EthernetHeaderLen:], eth.EtherType
	for et == EtherTypeDot1Q || et == EtherTypeQinQ {
		if len(rest) == 0 {
			return nil, nil
		}
		var tag Dot1Q
		if err := tag.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.tags = append(p.tags, tag)
		rest, et = rest[Dot1QHeaderLen:], tag.EtherType
	}
	if len(rest) == 0 {
		return nil, nil
	}
	var proto uint8 // the transport protocol that follows, 0 for none
	switch et {
	case EtherTypeARP:
		arp := new(ARP)
		if err := arp.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.arp, rest = arp, rest[ARPHeaderLen:]
	case EtherTypeIPv4:
		ip := new(IPv4Header)
		if err := ip.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.ipv4, rest = ip, ip.payload
		if ip.FragOffset == 0 { // later fragments carry no L4 header
			proto = ip.Protocol
		}
	case EtherTypeIPv6:
		ip := new(IPv6Header)
		if err := ip.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.ipv6, rest = ip, ip.payload
		if ip.NextHeader != IPProtoICMP { // ICMPv4 rides on IPv4 only
			proto = ip.NextHeader
		}
	}
	if len(rest) == 0 {
		return nil, nil
	}
	switch proto {
	case IPProtoTCP:
		tcp := new(TCP)
		if err := tcp.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.tcp, rest = tcp, tcp.payload
	case IPProtoUDP:
		udp := new(UDP)
		if err := udp.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.udp, rest = udp, udp.payload
		if len(rest) > 0 && (udp.SrcPort == 53 || udp.DstPort == 53) {
			dns := new(DNS)
			if err := dns.DecodeFromBytes(rest); err != nil {
				return nil, err
			}
			p.dns, rest = dns, nil
		}
	case IPProtoICMP:
		icmp := new(ICMPv4)
		if err := icmp.DecodeFromBytes(rest); err != nil {
			return nil, err
		}
		p.icmp, rest = icmp, icmp.payload
	}
	if len(rest) == 0 {
		return nil, nil
	}
	return rest, nil
}

// Err returns the decode error encountered, if any. Headers decoded
// before the error are still available.
func (p *Packet) Err() error { return p.err }

// Ethernet returns the Ethernet header, or nil.
func (p *Packet) Ethernet() *Ethernet { return p.eth }

// IPv4 returns the IPv4 header, or nil.
func (p *Packet) IPv4() *IPv4Header { return p.ipv4 }

// ARP returns the ARP packet, or nil.
func (p *Packet) ARP() *ARP { return p.arp }

// TCP returns the TCP header, or nil.
func (p *Packet) TCP() *TCP { return p.tcp }

// UDP returns the UDP header, or nil.
func (p *Packet) UDP() *UDP { return p.udp }

// ICMPv4 returns the ICMPv4 header, or nil.
func (p *Packet) ICMPv4() *ICMPv4 { return p.icmp }

// DNS returns the DNS message, or nil.
func (p *Packet) DNS() *DNS { return p.dns }

// ApplicationPayload returns the bytes after the last decoded header,
// or nil if there are none or decoding failed.
func (p *Packet) ApplicationPayload() []byte { return p.payload }

// String renders a one-line-per-header summary in wire order, handy in
// test failures and the capture tooling.
func (p *Packet) String() string {
	var parts []string
	if p.eth != nil {
		parts = append(parts, p.eth.String())
	}
	for i := range p.tags {
		parts = append(parts, p.tags[i].String())
	}
	switch {
	case p.arp != nil:
		parts = append(parts, p.arp.String())
	case p.ipv4 != nil:
		parts = append(parts, p.ipv4.String())
	case p.ipv6 != nil:
		parts = append(parts, p.ipv6.String())
	}
	switch {
	case p.tcp != nil:
		parts = append(parts, p.tcp.String())
	case p.udp != nil:
		parts = append(parts, p.udp.String())
	case p.icmp != nil:
		parts = append(parts, p.icmp.String())
	}
	if p.dns != nil {
		parts = append(parts, p.dns.String())
	}
	if p.payload != nil {
		parts = append(parts, "Payload")
	}
	s := strings.Join(parts, " / ")
	if p.err != nil {
		s += fmt.Sprintf(" [decode error: %v]", p.err)
	}
	return s
}

// decodeError annotates a parse failure with the header that failed.
type decodeError struct {
	header string
	msg    string
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("pkt: decoding %s: %s", e.header, e.msg)
}

func errTruncated(header string) error {
	return &decodeError{header: header, msg: "truncated"}
}
