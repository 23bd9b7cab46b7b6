package flowtable

import (
	"strings"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// MatchMask is the field-level wildcard algebra shared by the table's
// lookup index (index.go) and the softswitch megaflow cache: a bitmask with one bit per matchable header field. It answers
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
//   - Apply projects a pkt.Key onto a mask, zeroing every field the
//     mask does not consult. Two keys with equal projections are
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

// Apply projects a key onto the mask: value fields outside the mask
// are zeroed, value fields inside it are copied verbatim. The
// presence bits (HasVLAN, HasIPv4, ...) are always retained — Match
// prerequisites branch on packet shape even for wildcarded fields, so
// keys of one equivalence class must agree on shape, not only on the
// consulted values. (IPTOS has no matchable field and is always
// projected away.)
//
// The resulting key is canonical for the packet's class under this
// mask: for any Match m with mm.Covers(MaskOf(&m)), and any two keys
// a, b with mm.Apply(a) == mm.Apply(b), m.Matches(a) == m.Matches(b).
func (mm MatchMask) Apply(k *pkt.Key) pkt.Key {
	var p pkt.Key
	p.HasVLAN = k.HasVLAN
	p.HasIPv4 = k.HasIPv4
	p.HasIPv6 = k.HasIPv6
	p.HasARP = k.HasARP
	p.HasL4 = k.HasL4
	p.HasICMP = k.HasICMP
	if mm&MaskInPort != 0 {
		p.InPort = k.InPort
	}
	if mm&MaskEthDst != 0 {
		p.EthDst = k.EthDst
	}
	if mm&MaskEthSrc != 0 {
		p.EthSrc = k.EthSrc
	}
	if mm&MaskEthType != 0 {
		p.EthType = k.EthType
	}
	if mm&MaskVLAN != 0 {
		p.VLANID = k.VLANID
	}
	if mm&MaskVLANPCP != 0 {
		p.VLANPCP = k.VLANPCP
	}
	if mm&MaskIPProto != 0 {
		p.IPProto = k.IPProto
	}
	if mm&MaskIPSrc != 0 {
		p.IPSrc = k.IPSrc
	}
	if mm&MaskIPDst != 0 {
		p.IPDst = k.IPDst
	}
	if mm&MaskL4Src != 0 {
		p.L4Src = k.L4Src
	}
	if mm&MaskL4Dst != 0 {
		p.L4Dst = k.L4Dst
	}
	if mm&MaskICMPType != 0 {
		p.ICMPType = k.ICMPType
	}
	if mm&MaskICMPCode != 0 {
		p.ICMPCode = k.ICMPCode
	}
	if mm&MaskARPOp != 0 {
		p.ARPOp = k.ARPOp
	}
	if mm&MaskARPSPA != 0 {
		p.ARPSPA = k.ARPSPA
	}
	if mm&MaskARPTPA != 0 {
		p.ARPTPA = k.ARPTPA
	}
	return p
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
