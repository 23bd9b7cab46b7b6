package pkt

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Key is the set of OpenFlow-matchable header fields extracted from a
// frame in one pass. It is a comparable value type; the softswitch flow
// cache keys its maps by the packed form, FlatKey.
//
// Fields that are not present in the frame are left at their zero
// values and the corresponding Valid* bit is cleared.
type Key struct {
	InPort uint32 // filled in by the datapath, 0 = unset

	EthDst  MAC
	EthSrc  MAC
	EthType uint16 // EtherType after any VLAN tags

	HasVLAN bool
	VLANID  uint16 // 12-bit VID of the outermost tag
	VLANPCP uint8

	HasIPv4 bool
	IPProto uint8
	IPSrc   IPv4
	IPDst   IPv4

	HasIPv6 bool // IPv6 parsed for proto only; addresses not matched

	HasARP bool
	ARPOp  uint16
	ARPSPA IPv4
	ARPTPA IPv4

	HasL4 bool
	L4Src uint16
	L4Dst uint16

	HasICMP  bool
	ICMPType uint8
	ICMPCode uint8
}

// ExtractKey parses frame headers into k without allocating: ExtractFlat,
// unpacked. It returns an error only for frames too short to carry an
// Ethernet header; deeper truncation simply leaves the affected fields
// unset, matching how a hardware parser degrades.
func ExtractKey(frame []byte, inPort uint32, k *Key) error {
	var f FlatKey
	err := ExtractFlat(frame, inPort, &f)
	f.Unpack(k)
	return err
}

// Presence bits of a packed key: the low byte of word 1.
const (
	flatVLAN = 1 << iota
	flatIPv4
	flatIPv6
	flatARP
	flatL4
	flatICMP
)

// ExtractFlat is the one header parser: it reads frame's headers in one
// pass straight into the packed key f, without allocating. A field is
// set exactly when DecodeEthernet would decode its header: whole
// headers only, ARP for Ethernet/IPv4 addresses, and an IP packet's
// transport header within the length the IP header gives, so Ethernet
// padding is never read as one. It returns an error only for frames
// too short to carry an Ethernet header (f then holds inPort alone);
// deeper truncation leaves the affected fields unset.
func ExtractFlat(frame []byte, inPort uint32, f *FlatKey) error {
	*f = FlatKey{uint64(inPort) << 32}
	if len(frame) < EthernetHeaderLen {
		return errTruncated("Ethernet")
	}
	f[1] = binary.BigEndian.Uint64(frame[0:8]) &^ 0xffff // eth_dst
	f[2] = binary.BigEndian.Uint64(frame[4:12]) << 16    // eth_src
	et := binary.BigEndian.Uint16(frame[12:14])
	off := EthernetHeaderLen
	// Walk VLAN tags; record the outermost, skip inner ones.
	for et == EtherTypeDot1Q || et == EtherTypeQinQ {
		if len(frame) < off+Dot1QHeaderLen {
			return nil // a tag cut short: the type behind it stays unset
		}
		if f[1]&flatVLAN == 0 {
			tci := binary.BigEndian.Uint16(frame[off : off+2])
			f[0] |= uint64(tci & 0x0fff)
			f[1] |= uint64(tci>>13)<<8 | flatVLAN
		}
		et = binary.BigEndian.Uint16(frame[off+2 : off+4])
		off += Dot1QHeaderLen
	}
	f[0] |= uint64(et) << 16
	switch et {
	case EtherTypeIPv4:
		extractIPv4(frame[off:], f)
	case EtherTypeIPv6:
		extractIPv6(frame[off:], f)
	case EtherTypeARP:
		extractARP(frame[off:], f)
	}
	return nil
}

func extractIPv4(b []byte, f *FlatKey) {
	if len(b) < IPv4MinHeaderLen || b[0]>>4 != 4 {
		return
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4MinHeaderLen || len(b) < ihl {
		return
	}
	proto := b[9]
	f[1] |= flatIPv4
	f[2] |= uint64(proto) << 8
	f[3] = binary.BigEndian.Uint64(b[12:20]) // ip_src, ip_dst
	if binary.BigEndian.Uint16(b[6:8])&0x1fff != 0 {
		return // non-first fragment: no L4 header
	}
	// A total length that does not fit what arrived is ignored, as
	// DecodeEthernet tolerates it.
	if end := int(binary.BigEndian.Uint16(b[2:4])); end >= ihl && end <= len(b) {
		b = b[:end]
	}
	l4 := b[ihl:]
	switch proto {
	case IPProtoTCP, IPProtoUDP:
		extractPorts(l4, proto, f)
	case IPProtoICMP:
		if len(l4) >= ICMPv4HeaderLen {
			f[1] |= flatICMP
			f[2] |= uint64(l4[0])
			f[4] = uint64(l4[1])
		}
	}
}

func extractIPv6(b []byte, f *FlatKey) {
	if len(b) < IPv6HeaderLen || b[0]>>4 != 6 {
		return
	}
	proto := b[6]
	f[1] |= flatIPv6
	f[2] |= uint64(proto) << 8
	if end := IPv6HeaderLen + int(binary.BigEndian.Uint16(b[4:6])); end < len(b) {
		b = b[:end]
	}
	extractPorts(b[IPv6HeaderLen:], proto, f)
}

// extractPorts reads the ports of a whole TCP or UDP header; any other
// proto has none.
func extractPorts(l4 []byte, proto uint8, f *FlatKey) {
	switch proto {
	case IPProtoTCP:
		if len(l4) < TCPMinHeaderLen {
			return
		}
		if off := int(l4[12]>>4) * 4; off < TCPMinHeaderLen || off > len(l4) {
			return
		}
	case IPProtoUDP:
		if len(l4) < UDPHeaderLen {
			return
		}
	default:
		return
	}
	f[1] |= flatL4
	f[4] = uint64(binary.BigEndian.Uint32(l4[0:4])) << 32
}

func extractARP(b []byte, f *FlatKey) {
	if len(b) < ARPHeaderLen || b[4] != 6 || b[5] != 4 {
		return
	}
	f[1] |= flatARP
	f[4] = uint64(binary.BigEndian.Uint16(b[6:8])) << 16
	f[5] = uint64(binary.BigEndian.Uint32(b[14:18]))<<32 | uint64(binary.BigEndian.Uint32(b[24:28]))
}

// FlatKey is a Key's matchable fields packed into six words with no
// padding, so a wildcard projection is six ANDs, equality six compares
// and the flow cache's map hashes 48 contiguous bytes:
//
//	0  in_port(32) eth_type(16) vid(16)
//	1  eth_dst(48) pcp(8) presence bits(8)
//	2  eth_src(48) ip_proto(8) icmp_type(8)
//	3  ip_src(32) ip_dst(32)
//	4  l4_src(16) l4_dst(16) arp_op(16) unused(8) icmp_code(8)
//	5  arp_spa(32) arp_tpa(32)
//
// Only this file knows the layout: ExtractFlat writes it, FlatInto packs
// a Key into it and Unpack reverses that. A mask over it is the packed
// form of a Key with all ones under the bits it covers, which is how
// flowtable compiles a match.
type FlatKey [6]uint64

// FlatInto packs k into f.
func (k *Key) FlatInto(f *FlatKey) {
	shape := bit(k.HasVLAN, flatVLAN) | bit(k.HasIPv4, flatIPv4) | bit(k.HasIPv6, flatIPv6) |
		bit(k.HasARP, flatARP) | bit(k.HasL4, flatL4) | bit(k.HasICMP, flatICMP)
	f[0] = uint64(k.InPort)<<32 | uint64(k.EthType)<<16 | uint64(k.VLANID)
	f[1] = mac48(&k.EthDst)<<16 | uint64(k.VLANPCP)<<8 | shape
	f[2] = mac48(&k.EthSrc)<<16 | uint64(k.IPProto)<<8 | uint64(k.ICMPType)
	f[3] = uint64(k.IPSrc.Uint32())<<32 | uint64(k.IPDst.Uint32())
	f[4] = uint64(k.L4Src)<<48 | uint64(k.L4Dst)<<32 | uint64(k.ARPOp)<<16 | uint64(k.ICMPCode)
	f[5] = uint64(k.ARPSPA.Uint32())<<32 | uint64(k.ARPTPA.Uint32())
}

// Unpack sets k to the key f packs: the inverse of FlatInto on every
// key ExtractFlat produces (the unused bits of word 4 and the two top
// presence bits have no field to go to).
func (f *FlatKey) Unpack(k *Key) {
	w0, w1, w2, w4 := f[0], f[1], f[2], f[4]
	k.InPort, k.EthType, k.VLANID = uint32(w0>>32), uint16(w0>>16), uint16(w0)
	putMAC48(&k.EthDst, w1>>16)
	putMAC48(&k.EthSrc, w2>>16)
	k.VLANPCP, k.IPProto, k.ICMPType = uint8(w1>>8), uint8(w2>>8), uint8(w2)
	k.HasVLAN, k.HasIPv4, k.HasIPv6 = w1&flatVLAN != 0, w1&flatIPv4 != 0, w1&flatIPv6 != 0
	k.HasARP, k.HasL4, k.HasICMP = w1&flatARP != 0, w1&flatL4 != 0, w1&flatICMP != 0
	binary.BigEndian.PutUint32(k.IPSrc[:], uint32(f[3]>>32))
	binary.BigEndian.PutUint32(k.IPDst[:], uint32(f[3]))
	k.L4Src, k.L4Dst, k.ARPOp, k.ICMPCode = uint16(w4>>48), uint16(w4>>32), uint16(w4>>16), uint8(w4)
	binary.BigEndian.PutUint32(k.ARPSPA[:], uint32(f[5]>>32))
	binary.BigEndian.PutUint32(k.ARPTPA[:], uint32(f[5]))
}

func bit(set bool, v uint64) uint64 {
	if set {
		return v
	}
	return 0
}

func mac48(m *MAC) uint64 {
	return uint64(binary.BigEndian.Uint32(m[0:4]))<<16 | uint64(binary.BigEndian.Uint16(m[4:6]))
}

func putMAC48(m *MAC, v uint64) {
	binary.BigEndian.PutUint32(m[0:4], uint32(v>>16))
	binary.BigEndian.PutUint16(m[4:6], uint16(v))
}

// And returns f projected onto the field mask m.
func (f *FlatKey) And(m *FlatKey) FlatKey {
	return FlatKey{f[0] & m[0], f[1] & m[1], f[2] & m[2], f[3] & m[3], f[4] & m[4], f[5] & m[5]}
}

// SetAnd sets f to k projected onto the field mask m: And, written in
// place.
func (f *FlatKey) SetAnd(k, m *FlatKey) {
	f[0], f[1], f[2] = k[0]&m[0], k[1]&m[1], k[2]&m[2]
	f[3], f[4], f[5] = k[3]&m[3], k[4]&m[4], k[5]&m[5]
}

// Equal reports whether f and g are the same key: six XORs folded into
// one test.
func (f *FlatKey) Equal(g *FlatKey) bool {
	return (f[0]^g[0])|(f[1]^g[1])|(f[2]^g[2])|(f[3]^g[3])|(f[4]^g[4])|(f[5]^g[5]) == 0
}

// Or returns the union of the masks f and m.
func (f *FlatKey) Or(m *FlatKey) FlatKey {
	return FlatKey{f[0] | m[0], f[1] | m[1], f[2] | m[2], f[3] | m[3], f[4] | m[4], f[5] | m[5]}
}

// Sum hashes the six words: three independent 64x64->128 multiplies of
// word pairs, folded. It picks shards; keys that collide still compare
// unequal, so a collision costs a shared shard, never a wrong hit.
func (f *FlatKey) Sum() uint64 {
	h0, l0 := bits.Mul64(f[0]^0xa0761d6478bd642f, f[1]^0xe7037ed1a0b428db)
	h1, l1 := bits.Mul64(f[2]^0x8ebc6af09c88c6e3, f[3]^0x589965cc75374cc3)
	h2, l2 := bits.Mul64(f[4]^0x1d8e4e27c47d124f, f[5]^0xeb44accab455d165)
	return h0 ^ l0 ^ h1 ^ l1 ^ h2 ^ l2
}

// FlowMask is the one definition of a flow: the packed form of the
// fields that tell flows apart — in_port, both MACs, EtherType, VLAN ID,
// IP protocol and addresses, L4 ports, ICMP type and code. It leaves out
// the presence bits, VLAN PCP and the ARP fields. A parsed key leaves
// every field of an absent header zero, so two frames are one flow
// exactly when their keys agree under it. Telemetry keys its records
// by it; the worker pool's RSS and SELECT groups hash by FlowSum.
var FlowMask = func() FlatKey {
	ones, ip := BroadcastMAC, IPv4{0xff, 0xff, 0xff, 0xff}
	all := Key{InPort: ^uint32(0), EthSrc: ones, EthDst: ones, EthType: 0xffff, VLANID: 0xffff,
		IPProto: 0xff, IPSrc: ip, IPDst: ip, L4Src: 0xffff, L4Dst: 0xffff, ICMPType: 0xff, ICMPCode: 0xff}
	var m FlatKey
	all.FlatInto(&m)
	return m
}()

// FlowSum hashes the flow f belongs to: the Sum of f under FlowMask, so
// every frame of one flow hashes alike.
func (f *FlatKey) FlowSum() uint64 {
	var m FlatKey
	m.SetAnd(f, &FlowMask)
	return m.Sum()
}

// String summarizes the key for diagnostics.
func (k *Key) String() string {
	s := fmt.Sprintf("in=%d %s>%s 0x%04x", k.InPort, k.EthSrc, k.EthDst, k.EthType)
	if k.HasVLAN {
		s += fmt.Sprintf(" vlan=%d", k.VLANID)
	}
	if k.HasIPv4 {
		s += fmt.Sprintf(" %s>%s proto=%d", k.IPSrc, k.IPDst, k.IPProto)
	}
	if k.HasL4 {
		s += fmt.Sprintf(" %d>%d", k.L4Src, k.L4Dst)
	}
	return s
}
