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
	IPTOS   uint8

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

// ExtractKey parses frame headers into k without allocating. It returns
// an error only for frames too short to carry an Ethernet header;
// deeper truncation simply leaves the affected fields unset, matching
// how a hardware parser degrades.
func ExtractKey(frame []byte, inPort uint32, k *Key) error {
	*k = Key{InPort: inPort}
	if len(frame) < EthernetHeaderLen {
		return errTruncated(LayerTypeEthernet)
	}
	copy(k.EthDst[:], frame[0:6])
	copy(k.EthSrc[:], frame[6:12])
	et := binary.BigEndian.Uint16(frame[12:14])
	off := EthernetHeaderLen
	// Walk VLAN tags; record the outermost, skip inner ones.
	for et == EtherTypeDot1Q || et == EtherTypeQinQ {
		if len(frame) < off+Dot1QHeaderLen {
			return nil
		}
		tci := binary.BigEndian.Uint16(frame[off : off+2])
		if !k.HasVLAN {
			k.HasVLAN = true
			k.VLANID = tci & 0x0fff
			k.VLANPCP = uint8(tci >> 13)
		}
		et = binary.BigEndian.Uint16(frame[off+2 : off+4])
		off += Dot1QHeaderLen
	}
	k.EthType = et
	switch et {
	case EtherTypeIPv4:
		extractIPv4Key(frame[off:], k)
	case EtherTypeIPv6:
		extractIPv6Key(frame[off:], k)
	case EtherTypeARP:
		extractARPKey(frame[off:], k)
	}
	return nil
}

func extractIPv4Key(b []byte, k *Key) {
	if len(b) < IPv4MinHeaderLen || b[0]>>4 != 4 {
		return
	}
	ihl := int(b[0]&0xf) * 4
	if ihl < IPv4MinHeaderLen || len(b) < ihl {
		return
	}
	k.HasIPv4 = true
	k.IPTOS = b[1]
	k.IPProto = b[9]
	copy(k.IPSrc[:], b[12:16])
	copy(k.IPDst[:], b[16:20])
	fragOff := binary.BigEndian.Uint16(b[6:8]) & 0x1fff
	if fragOff != 0 {
		return // non-first fragment: no L4 header
	}
	l4 := b[ihl:]
	switch k.IPProto {
	case IPProtoTCP, IPProtoUDP:
		if len(l4) >= 4 {
			k.HasL4 = true
			k.L4Src = binary.BigEndian.Uint16(l4[0:2])
			k.L4Dst = binary.BigEndian.Uint16(l4[2:4])
		}
	case IPProtoICMP:
		if len(l4) >= 2 {
			k.HasICMP = true
			k.ICMPType = l4[0]
			k.ICMPCode = l4[1]
		}
	}
}

func extractIPv6Key(b []byte, k *Key) {
	if len(b) < IPv6HeaderLen || b[0]>>4 != 6 {
		return
	}
	k.HasIPv6 = true
	k.IPProto = b[6]
	l4 := b[IPv6HeaderLen:]
	switch k.IPProto {
	case IPProtoTCP, IPProtoUDP:
		if len(l4) >= 4 {
			k.HasL4 = true
			k.L4Src = binary.BigEndian.Uint16(l4[0:2])
			k.L4Dst = binary.BigEndian.Uint16(l4[2:4])
		}
	}
}

func extractARPKey(b []byte, k *Key) {
	if len(b) < ARPHeaderLen {
		return
	}
	k.HasARP = true
	k.ARPOp = binary.BigEndian.Uint16(b[6:8])
	copy(k.ARPSPA[:], b[14:18])
	copy(k.ARPTPA[:], b[24:28])
}

// Hash returns a well-mixed 64-bit hash of the key's matchable fields,
// cheap enough to call per packet: the sum of its packed form. The
// telemetry table picks a shard with it and the worker pool a worker;
// the flow cache, which also projects the key, packs it itself.
// Flow-affinity hashing (SELECT buckets) is flowtable.FlowHash.
func (k *Key) Hash() uint64 {
	var f FlatKey
	k.FlatInto(&f)
	return f.Sum()
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
// IPTOS, which nothing matches on, is left out. Only FlatInto knows the
// layout: a mask over it is the packed form of a Key with all ones under
// the bits it covers, which is how flowtable compiles a match.
type FlatKey [6]uint64

// FlatInto packs k into f.
//
//harmless:hotpath
func (k *Key) FlatInto(f *FlatKey) {
	shape := bit(k.HasVLAN, 1) | bit(k.HasIPv4, 2) | bit(k.HasIPv6, 4) | bit(k.HasARP, 8) | bit(k.HasL4, 16) | bit(k.HasICMP, 32)
	f[0] = uint64(k.InPort)<<32 | uint64(k.EthType)<<16 | uint64(k.VLANID)
	f[1] = mac48(&k.EthDst)<<16 | uint64(k.VLANPCP)<<8 | shape
	f[2] = mac48(&k.EthSrc)<<16 | uint64(k.IPProto)<<8 | uint64(k.ICMPType)
	f[3] = uint64(k.IPSrc.Uint32())<<32 | uint64(k.IPDst.Uint32())
	f[4] = uint64(k.L4Src)<<48 | uint64(k.L4Dst)<<32 | uint64(k.ARPOp)<<16 | uint64(k.ICMPCode)
	f[5] = uint64(k.ARPSPA.Uint32())<<32 | uint64(k.ARPTPA.Uint32())
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
