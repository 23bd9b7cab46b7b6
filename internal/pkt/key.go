package pkt

import (
	"encoding/binary"
	"fmt"
)

// Key is the set of OpenFlow-matchable header fields extracted from a
// frame in one pass. It is a comparable value type so it can serve
// directly as a map key (the softswitch flow cache relies on this).
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

// Hash returns a well-mixed 64-bit hash of the key, cheap enough to
// call per packet. The softswitch flow cache uses it to pick a
// shard; flow-affinity hashing (group SELECT buckets) has its own hash
// in internal/flowtable. Only the fields that commonly differ between
// flows are mixed in — two keys that collide here still compare
// unequal, so collisions only cost a shared shard, never a wrong hit.
func (k *Key) Hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix32 := func(v uint32) {
		h = (h ^ uint64(v)) * prime
	}
	mix32(k.InPort)
	mix32(binary.BigEndian.Uint32(k.EthDst[0:4]))
	mix32(uint32(k.EthDst[4])<<8 | uint32(k.EthDst[5]))
	mix32(binary.BigEndian.Uint32(k.EthSrc[0:4]))
	mix32(uint32(k.EthSrc[4])<<8 | uint32(k.EthSrc[5]))
	mix32(uint32(k.EthType)<<16 | uint32(k.VLANID))
	mix32(binary.BigEndian.Uint32(k.IPSrc[:]))
	mix32(binary.BigEndian.Uint32(k.IPDst[:]))
	mix32(uint32(k.IPProto)<<16 | uint32(k.ICMPType)<<8 | uint32(k.ICMPCode))
	mix32(uint32(k.L4Src)<<16 | uint32(k.L4Dst))
	mix32(binary.BigEndian.Uint32(k.ARPSPA[:]) ^ binary.BigEndian.Uint32(k.ARPTPA[:]))
	// Finish with a splitmix64-style scrambler so the low bits (used
	// for shard selection) avalanche properly.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
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
