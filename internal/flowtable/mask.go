package flowtable

import (
	"strings"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// MatchMask is the field-level wildcard algebra shared by the table's
// lookup index (index.go) and the softswitch flow cache: a bitmask with
// one bit per matchable header field. It answers
// the question "which fields can influence a lookup decision?" without
// carrying the per-bit precision of a full OXM mask — a field matched
// through a prefix (e.g. nw_dst=10.0.0.0/8) sets the whole field's
// bit, which is coarser but always sound: a MatchMask may claim a
// field is consulted when only part of it is, never the reverse.
//
// The three operations are the whole algebra:
//
//   - Union merges the fields of several matches (e.g. every entry of
//     a table, or every table of a pipeline walk);
//   - Covers orders masks by wildcard breadth;
//   - Words projects a packed pkt.Key onto a mask, zeroing every field
//     the mask does not consult. Two keys with equal projections are
//     indistinguishable to any match whose fields are within the mask,
//     which is the soundness property megaflow caching rests on.
type MatchMask uint32

// Field bits. MaskVLAN covers the whole VLAN constraint — tag
// presence and VID together — because Match treats them as one field
// (VLANAbsent and VLANExact both constrain it).
const (
	MaskInPort MatchMask = 1 << iota
	MaskEthDst
	MaskEthSrc
	MaskEthType
	MaskVLAN
	MaskVLANPCP
	MaskIPProto
	MaskIPSrc
	MaskIPDst
	MaskL4Src
	MaskL4Dst
	MaskICMPType
	MaskICMPCode
	MaskARPOp
	MaskARPSPA
	MaskARPTPA
)

// maskNames orders the bit names for String (LSB first, matching the
// constant declaration order).
var maskNames = [...]string{
	"in_port", "eth_dst", "eth_src", "eth_type", "vlan", "vlan_pcp",
	"ip_proto", "nw_src", "nw_dst", "tp_src", "tp_dst",
	"icmp_type", "icmp_code", "arp_op", "arp_spa", "arp_tpa",
}

// MaskOf returns the set of fields the match consults. Masked MAC/IP
// constraints conservatively claim the whole field.
func MaskOf(m *Match) MatchMask {
	var mm MatchMask
	if m.InPortSet {
		mm |= MaskInPort
	}
	if m.EthDstSet {
		mm |= MaskEthDst
	}
	if m.EthSrcSet {
		mm |= MaskEthSrc
	}
	if m.EthTypeSet {
		mm |= MaskEthType
	}
	if m.VLAN != VLANAnyMode {
		mm |= MaskVLAN
	}
	if m.VLANPCPSet {
		mm |= MaskVLANPCP
	}
	if m.IPProtoSet {
		mm |= MaskIPProto
	}
	if m.IPSrcSet {
		mm |= MaskIPSrc
	}
	if m.IPDstSet {
		mm |= MaskIPDst
	}
	if m.L4SrcSet {
		mm |= MaskL4Src
	}
	if m.L4DstSet {
		mm |= MaskL4Dst
	}
	if m.ICMPTypeSet {
		mm |= MaskICMPType
	}
	if m.ICMPCodeSet {
		mm |= MaskICMPCode
	}
	if m.ARPOpSet {
		mm |= MaskARPOp
	}
	if m.ARPSPASet {
		mm |= MaskARPSPA
	}
	if m.ARPTPASet {
		mm |= MaskARPTPA
	}
	return mm
}

// Union returns the mask consulting every field either operand does.
func (mm MatchMask) Union(o MatchMask) MatchMask { return mm | o }

// Covers reports whether every field o consults is also consulted by
// mm, i.e. mm is at least as specific as o.
func (mm MatchMask) Covers(o MatchMask) bool { return mm&o == o }

// Words returns the mask over a pkt.FlatKey: all ones under every field
// mm consults, and under the presence bits (HasVLAN, HasIPv4, ...)
// always — Match prerequisites branch on packet shape even for
// wildcarded fields, so keys of one equivalence class must agree on
// shape, not only on the consulted values. ANDing a flat key with it
// (FlatKey.And) projects the key onto the mask.
//
// The projection is canonical for the packet's class under this mask:
// for any Match m with mm.Covers(MaskOf(&m)), and any two keys a, b
// whose projections are equal, m.Matches(a) == m.Matches(b).
func (mm MatchMask) Words() pkt.FlatKey {
	// The packed form of a key with every consulted field all ones, so
	// the layout stays pkt's alone.
	k := pkt.Key{
		HasVLAN: true, HasIPv4: true, HasIPv6: true, HasARP: true, HasL4: true, HasICMP: true,
		InPort:   ones(mm, MaskInPort, ^uint32(0)),
		EthDst:   ones(mm, MaskEthDst, onesMAC),
		EthSrc:   ones(mm, MaskEthSrc, onesMAC),
		EthType:  ones(mm, MaskEthType, ^uint16(0)),
		VLANID:   ones(mm, MaskVLAN, ^uint16(0)),
		VLANPCP:  ones(mm, MaskVLANPCP, ^uint8(0)),
		IPProto:  ones(mm, MaskIPProto, ^uint8(0)),
		IPSrc:    ones(mm, MaskIPSrc, onesIPv4),
		IPDst:    ones(mm, MaskIPDst, onesIPv4),
		L4Src:    ones(mm, MaskL4Src, ^uint16(0)),
		L4Dst:    ones(mm, MaskL4Dst, ^uint16(0)),
		ICMPType: ones(mm, MaskICMPType, ^uint8(0)),
		ICMPCode: ones(mm, MaskICMPCode, ^uint8(0)),
		ARPOp:    ones(mm, MaskARPOp, ^uint16(0)),
		ARPSPA:   ones(mm, MaskARPSPA, onesIPv4),
		ARPTPA:   ones(mm, MaskARPTPA, onesIPv4),
	}
	var w pkt.FlatKey
	k.FlatInto(&w)
	return w
}

// ones returns all (a field's all-ones value) when mm consults the
// field, its zero value otherwise.
func ones[T any](mm, field MatchMask, all T) (none T) {
	if mm&field != 0 {
		return all
	}
	return none
}

// String renders the consulted field names for diagnostics.
func (mm MatchMask) String() string {
	if mm == 0 {
		return "any"
	}
	var parts []string
	for i, name := range maskNames {
		if mm&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, ",")
}
