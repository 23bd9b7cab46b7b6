package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// OXM class and field codes (OpenFlow basic class).
const (
	OXMClassBasic uint16 = 0x8000
)

// OXM field codes within OFPXMC_OPENFLOW_BASIC.
const (
	OXMInPort   uint8 = 0
	OXMEthDst   uint8 = 3
	OXMEthSrc   uint8 = 4
	OXMEthType  uint8 = 5
	OXMVLANVID  uint8 = 6
	OXMVLANPCP  uint8 = 7
	OXMIPProto  uint8 = 10
	OXMIPv4Src  uint8 = 11
	OXMIPv4Dst  uint8 = 12
	OXMTCPSrc   uint8 = 13
	OXMTCPDst   uint8 = 14
	OXMUDPSrc   uint8 = 15
	OXMUDPDst   uint8 = 16
	OXMICMPType uint8 = 19
	OXMICMPCode uint8 = 20
	OXMARPOp    uint8 = 21
	OXMARPSPA   uint8 = 22
	OXMARPTPA   uint8 = 23
)

// OXMVIDPresent is OR-ed into the VLAN_VID value to indicate "a tag is
// present" (OFPVID_PRESENT).
const OXMVIDPresent uint16 = 0x1000

// OXMVIDNone matches only untagged packets (OFPVID_NONE).
const OXMVIDNone uint16 = 0x0000

// oxmValueLen gives the value length of each supported field, 0 for
// the rest.
var oxmValueLen = [256]uint8{
	OXMInPort: 4, OXMEthDst: 6, OXMEthSrc: 6, OXMEthType: 2,
	OXMVLANVID: 2, OXMVLANPCP: 1, OXMIPProto: 1,
	OXMIPv4Src: 4, OXMIPv4Dst: 4,
	OXMTCPSrc: 2, OXMTCPDst: 2, OXMUDPSrc: 2, OXMUDPDst: 2,
	OXMICMPType: 1, OXMICMPCode: 1,
	OXMARPOp: 2, OXMARPSPA: 4, OXMARPTPA: 4,
}

// oxmName maps field codes to display names.
var oxmName = map[uint8]string{
	OXMInPort: "in_port", OXMEthDst: "eth_dst", OXMEthSrc: "eth_src",
	OXMEthType: "eth_type", OXMVLANVID: "vlan_vid", OXMVLANPCP: "vlan_pcp",
	OXMIPProto: "ip_proto", OXMIPv4Src: "ipv4_src", OXMIPv4Dst: "ipv4_dst",
	OXMTCPSrc: "tcp_src", OXMTCPDst: "tcp_dst", OXMUDPSrc: "udp_src",
	OXMUDPDst: "udp_dst", OXMICMPType: "icmpv4_type", OXMICMPCode: "icmpv4_code",
	OXMARPOp: "arp_op", OXMARPSPA: "arp_spa", OXMARPTPA: "arp_tpa",
}

// OXM is one match TLV.
type OXM struct {
	Field   uint8
	HasMask bool
	Value   []byte
	Mask    []byte // nil unless HasMask
}

// String renders the TLV like "eth_dst=02:00:00:00:00:01".
func (o OXM) String() string {
	name, ok := oxmName[o.Field]
	if !ok {
		name = fmt.Sprintf("oxm%d", o.Field)
	}
	v := fmt.Sprintf("%x", o.Value)
	switch o.Field {
	case OXMEthDst, OXMEthSrc:
		var m pkt.MAC
		copy(m[:], o.Value)
		v = m.String()
	case OXMIPv4Src, OXMIPv4Dst, OXMARPSPA, OXMARPTPA:
		var ip pkt.IPv4
		copy(ip[:], o.Value)
		v = ip.String()
	case OXMInPort:
		v = fmt.Sprintf("%d", binary.BigEndian.Uint32(o.Value))
	case OXMEthType, OXMVLANVID, OXMTCPSrc, OXMTCPDst, OXMUDPSrc, OXMUDPDst, OXMARPOp:
		v = fmt.Sprintf("%d", binary.BigEndian.Uint16(o.Value))
	case OXMVLANPCP, OXMIPProto, OXMICMPType, OXMICMPCode:
		v = fmt.Sprintf("%d", o.Value[0])
	}
	if o.HasMask {
		return fmt.Sprintf("%s=%s/%x", name, v, o.Mask)
	}
	return fmt.Sprintf("%s=%s", name, v)
}

// Match is an OpenFlow match: an ordered list of OXM TLVs.
type Match struct {
	OXMs []OXM
}

// Get returns the TLV for a field, or nil.
func (m *Match) Get(field uint8) *OXM {
	for i := range m.OXMs {
		if m.OXMs[i].Field == field {
			return &m.OXMs[i]
		}
	}
	return nil
}

// add appends a field, replacing an existing entry for the same field.
func (m *Match) add(o OXM) *Match {
	for i := range m.OXMs {
		if m.OXMs[i].Field == o.Field {
			m.OXMs[i] = o
			return m
		}
	}
	m.OXMs = append(m.OXMs, o)
	return m
}

// Builder helpers: each sets one field and returns the match for
// chaining, e.g. new(Match).WithInPort(1).WithEthType(0x0800).

// WithInPort matches the ingress port.
func (m *Match) WithInPort(p uint32) *Match {
	v := make([]byte, 4)
	binary.BigEndian.PutUint32(v, p)
	return m.add(OXM{Field: OXMInPort, Value: v})
}

// WithEthDst matches the destination MAC.
func (m *Match) WithEthDst(mac pkt.MAC) *Match {
	return m.add(OXM{Field: OXMEthDst, Value: append([]byte{}, mac[:]...)})
}

// WithEthDstMasked matches a masked destination MAC.
func (m *Match) WithEthDstMasked(mac, mask pkt.MAC) *Match {
	return m.add(OXM{Field: OXMEthDst, HasMask: true,
		Value: append([]byte{}, mac[:]...), Mask: append([]byte{}, mask[:]...)})
}

// WithEthSrc matches the source MAC.
func (m *Match) WithEthSrc(mac pkt.MAC) *Match {
	return m.add(OXM{Field: OXMEthSrc, Value: append([]byte{}, mac[:]...)})
}

// WithEthSrcMasked matches a masked source MAC.
func (m *Match) WithEthSrcMasked(mac, mask pkt.MAC) *Match {
	return m.add(OXM{Field: OXMEthSrc, HasMask: true,
		Value: append([]byte{}, mac[:]...), Mask: append([]byte{}, mask[:]...)})
}

// WithEthType matches the (post-VLAN) EtherType.
func (m *Match) WithEthType(et uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, et)
	return m.add(OXM{Field: OXMEthType, Value: v})
}

// WithVLAN matches a present tag with the given VID.
func (m *Match) WithVLAN(vid uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, vid|OXMVIDPresent)
	return m.add(OXM{Field: OXMVLANVID, Value: v})
}

// WithNoVLAN matches only untagged packets.
func (m *Match) WithNoVLAN() *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, OXMVIDNone)
	return m.add(OXM{Field: OXMVLANVID, Value: v})
}

// WithVLANPCP matches the tag priority.
func (m *Match) WithVLANPCP(pcp uint8) *Match {
	return m.add(OXM{Field: OXMVLANPCP, Value: []byte{pcp}})
}

// WithIPProto matches the IP protocol number.
func (m *Match) WithIPProto(p uint8) *Match {
	return m.add(OXM{Field: OXMIPProto, Value: []byte{p}})
}

// WithIPv4Src matches the exact IPv4 source.
func (m *Match) WithIPv4Src(ip pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMIPv4Src, Value: append([]byte{}, ip[:]...)})
}

// WithIPv4SrcMasked matches a masked IPv4 source.
func (m *Match) WithIPv4SrcMasked(ip, mask pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMIPv4Src, HasMask: true,
		Value: append([]byte{}, ip[:]...), Mask: append([]byte{}, mask[:]...)})
}

// WithIPv4Dst matches the exact IPv4 destination.
func (m *Match) WithIPv4Dst(ip pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMIPv4Dst, Value: append([]byte{}, ip[:]...)})
}

// WithIPv4DstMasked matches a masked IPv4 destination.
func (m *Match) WithIPv4DstMasked(ip, mask pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMIPv4Dst, HasMask: true,
		Value: append([]byte{}, ip[:]...), Mask: append([]byte{}, mask[:]...)})
}

// WithTCPDst matches the TCP destination port (requires ip_proto=6).
func (m *Match) WithTCPDst(p uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, p)
	return m.add(OXM{Field: OXMTCPDst, Value: v})
}

// WithTCPSrc matches the TCP source port.
func (m *Match) WithTCPSrc(p uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, p)
	return m.add(OXM{Field: OXMTCPSrc, Value: v})
}

// WithUDPDst matches the UDP destination port (requires ip_proto=17).
func (m *Match) WithUDPDst(p uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, p)
	return m.add(OXM{Field: OXMUDPDst, Value: v})
}

// WithUDPSrc matches the UDP source port.
func (m *Match) WithUDPSrc(p uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, p)
	return m.add(OXM{Field: OXMUDPSrc, Value: v})
}

// WithICMPType matches the ICMPv4 type.
func (m *Match) WithICMPType(t uint8) *Match {
	return m.add(OXM{Field: OXMICMPType, Value: []byte{t}})
}

// WithICMPCode matches the ICMPv4 code.
func (m *Match) WithICMPCode(c uint8) *Match {
	return m.add(OXM{Field: OXMICMPCode, Value: []byte{c}})
}

// WithARPOp matches the ARP opcode.
func (m *Match) WithARPOp(op uint16) *Match {
	v := make([]byte, 2)
	binary.BigEndian.PutUint16(v, op)
	return m.add(OXM{Field: OXMARPOp, Value: v})
}

// WithARPTPA matches the ARP target protocol address.
func (m *Match) WithARPTPA(ip pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMARPTPA, Value: append([]byte{}, ip[:]...)})
}

// WithARPSPA matches the ARP sender protocol address.
func (m *Match) WithARPSPA(ip pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMARPSPA, Value: append([]byte{}, ip[:]...)})
}

// WithARPTPAMasked matches a masked ARP target protocol address.
func (m *Match) WithARPTPAMasked(ip, mask pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMARPTPA, HasMask: true,
		Value: append([]byte{}, ip[:]...), Mask: append([]byte{}, mask[:]...)})
}

// WithARPSPAMasked matches a masked ARP sender protocol address.
func (m *Match) WithARPSPAMasked(ip, mask pkt.IPv4) *Match {
	return m.add(OXM{Field: OXMARPSPA, HasMask: true,
		Value: append([]byte{}, ip[:]...), Mask: append([]byte{}, mask[:]...)})
}

// String renders the match like "in_port=1,eth_type=2048".
func (m *Match) String() string {
	if m == nil || len(m.OXMs) == 0 {
		return "any"
	}
	var b strings.Builder
	for i, o := range m.OXMs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(o.String())
	}
	return b.String()
}

// appendTo encodes an ofp_match structure including padding to 8 bytes.
func (m *Match) appendTo(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 1, 0, 0) // ofp_match: type OFPMT_OXM (2) | length (2) | oxms | pad to 8
	for _, o := range m.OXMs {
		wantLen := int(oxmValueLen[o.Field])
		if wantLen == 0 {
			return nil, fmt.Errorf("openflow: unsupported OXM field %d", o.Field)
		}
		if len(o.Value) != wantLen {
			return nil, fmt.Errorf("openflow: OXM %s value length %d, want %d",
				oxmName[o.Field], len(o.Value), wantLen)
		}
		hdr := uint32(OXMClassBasic)<<16 | uint32(o.Field)<<9 | uint32(wantLen)
		if o.HasMask {
			if len(o.Mask) != wantLen {
				return nil, fmt.Errorf("openflow: OXM %s mask length %d, want %d",
					oxmName[o.Field], len(o.Mask), wantLen)
			}
			hdr += 1<<8 | uint32(wantLen) // has-mask bit; the payload is value, then mask
		}
		b = binary.BigEndian.AppendUint32(b, hdr)
		b = append(b, o.Value...)
		if o.HasMask {
			b = append(b, o.Mask...)
		}
	}
	putLen16(b, start+2, start)                               // the length excludes the padding,
	return append(b, make([]byte, -(len(b)-start)&7)...), nil // which rounds it up to 8
}

// unmarshal decodes an ofp_match into m and returns the number of bytes
// consumed (including padding). Values and masks are slices of data.
func (m *Match) unmarshal(data []byte) (int, error) {
	if len(data) < 4 {
		return 0, fmt.Errorf("openflow: truncated match")
	}
	mtype := binary.BigEndian.Uint16(data[0:2])
	length := int(binary.BigEndian.Uint16(data[2:4]))
	if mtype != 1 {
		return 0, fmt.Errorf("openflow: unsupported match type %d", mtype)
	}
	if length < 4 || length > len(data) {
		return 0, fmt.Errorf("openflow: bad match length %d", length)
	}
	m.OXMs = nil
	body := data[4:length]
	for len(body) > 0 {
		if len(body) < 4 {
			return 0, fmt.Errorf("openflow: truncated OXM header")
		}
		hdr := binary.BigEndian.Uint32(body[0:4])
		class := uint16(hdr >> 16)
		field := uint8(hdr >> 9 & 0x7f)
		hasMask := hdr&(1<<8) != 0
		plen := int(hdr & 0xff)
		if class != OXMClassBasic {
			return 0, fmt.Errorf("openflow: unsupported OXM class %#x", class)
		}
		if len(body) < 4+plen {
			return 0, fmt.Errorf("openflow: truncated OXM payload")
		}
		wantLen := int(oxmValueLen[field])
		if wantLen == 0 {
			return 0, fmt.Errorf("openflow: unsupported OXM field %d", field)
		}
		o := OXM{Field: field, HasMask: hasMask}
		if hasMask {
			if plen != wantLen*2 {
				return 0, fmt.Errorf("openflow: OXM field %d masked length %d", field, plen)
			}
			o.Mask = body[4+wantLen : 4+2*wantLen : 4+2*wantLen]
		} else if plen != wantLen {
			return 0, fmt.Errorf("openflow: OXM field %d length %d", field, plen)
		}
		o.Value = body[4 : 4+wantLen : 4+wantLen]
		m.OXMs = append(m.OXMs, o)
		body = body[4+plen:]
	}
	consumed := length
	if rem := length % 8; rem != 0 {
		consumed += 8 - rem
	}
	if consumed > len(data) {
		return 0, fmt.Errorf("openflow: match padding exceeds buffer")
	}
	return consumed, nil
}
