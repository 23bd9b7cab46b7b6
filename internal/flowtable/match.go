// Package flowtable implements the OpenFlow 1.3 table semantics the
// software switch executes: priority-ordered flow tables with
// idle/hard timeouts and counters, a multi-table pipeline, and group
// and meter tables. A table answers lookups from a tuple-space
// classifier it keeps with every flow-mod — each match compiled to a
// (value, mask) pair over the packed packet key, one hash table per
// distinct mask — and returns what a scan of its priority-ordered
// entries would (see index.go).
//
// Every Table (and the GroupTable) carries a revision counter, bumped
// on each flow-mod, group-mod, and expiry. The softswitch flow cache
// records the revisions its decisions were derived from and
// revalidates on every use, which is what keeps cached forwarding
// coherent with the rules (see DESIGN.md for the invalidation rules).
//
// The package separates protocol encoding (internal/openflow) from
// matching semantics: Match here is the evaluated form, convertible
// to/from the OXM TLV lists that travel on the wire.
package flowtable

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// VLANMode describes how a match constrains VLAN presence.
type VLANMode uint8

// VLAN match modes.
const (
	// VLANAnyMode: field not constrained.
	VLANAnyMode VLANMode = iota
	// VLANAbsent matches only untagged frames (OFPVID_NONE).
	VLANAbsent
	// VLANExact matches a present tag with the exact VID.
	VLANExact
)

// Match is the semantic form of an OpenFlow match, evaluated against a
// pkt.Key. The zero value matches every packet.
type Match struct {
	InPortSet bool
	InPort    uint32

	EthDstSet  bool
	EthDst     pkt.MAC
	EthDstMask pkt.MAC // all-ones when unmasked

	EthSrcSet  bool
	EthSrc     pkt.MAC
	EthSrcMask pkt.MAC

	EthTypeSet bool
	EthType    uint16

	VLAN    VLANMode
	VLANVID uint16

	VLANPCPSet bool
	VLANPCP    uint8

	IPProtoSet bool
	IPProto    uint8

	IPSrcSet  bool
	IPSrc     pkt.IPv4
	IPSrcMask pkt.IPv4

	IPDstSet  bool
	IPDst     pkt.IPv4
	IPDstMask pkt.IPv4

	L4SrcSet bool
	L4Src    uint16

	L4DstSet bool
	L4Dst    uint16

	ICMPTypeSet bool
	ICMPType    uint8
	ICMPCodeSet bool
	ICMPCode    uint8

	ARPOpSet   bool
	ARPOp      uint16
	ARPSPASet  bool
	ARPSPA     pkt.IPv4
	ARPSPAMask pkt.IPv4
	ARPTPASet  bool
	ARPTPA     pkt.IPv4
	ARPTPAMask pkt.IPv4
}

var onesMAC = pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
var onesIPv4 = pkt.IPv4{0xff, 0xff, 0xff, 0xff}

func macMasked(v, m, want, wantMask pkt.MAC) bool {
	for i := 0; i < 6; i++ {
		if v[i]&wantMask[i] != want[i]&wantMask[i] {
			return false
		}
	}
	_ = m
	return true
}

func ipMasked(v, want, wantMask pkt.IPv4) bool {
	for i := 0; i < 4; i++ {
		if v[i]&wantMask[i] != want[i]&wantMask[i] {
			return false
		}
	}
	return true
}

// Matches reports whether the key satisfies every constraint.
func (m *Match) Matches(k *pkt.Key) bool {
	if m.InPortSet && k.InPort != m.InPort {
		return false
	}
	if m.EthDstSet && !macMasked(k.EthDst, onesMAC, m.EthDst, m.EthDstMask) {
		return false
	}
	if m.EthSrcSet && !macMasked(k.EthSrc, onesMAC, m.EthSrc, m.EthSrcMask) {
		return false
	}
	if m.EthTypeSet && k.EthType != m.EthType {
		return false
	}
	switch m.VLAN {
	case VLANAbsent:
		if k.HasVLAN {
			return false
		}
	case VLANExact:
		if !k.HasVLAN || k.VLANID != m.VLANVID {
			return false
		}
	}
	if m.VLANPCPSet && (!k.HasVLAN || k.VLANPCP != m.VLANPCP) {
		return false
	}
	if m.IPProtoSet {
		if !k.HasIPv4 && !k.HasIPv6 {
			return false
		}
		if k.IPProto != m.IPProto {
			return false
		}
	}
	if m.IPSrcSet && (!k.HasIPv4 || !ipMasked(k.IPSrc, m.IPSrc, m.IPSrcMask)) {
		return false
	}
	if m.IPDstSet && (!k.HasIPv4 || !ipMasked(k.IPDst, m.IPDst, m.IPDstMask)) {
		return false
	}
	if m.L4SrcSet && (!k.HasL4 || k.L4Src != m.L4Src) {
		return false
	}
	if m.L4DstSet && (!k.HasL4 || k.L4Dst != m.L4Dst) {
		return false
	}
	if m.ICMPTypeSet && (!k.HasICMP || k.ICMPType != m.ICMPType) {
		return false
	}
	if m.ICMPCodeSet && (!k.HasICMP || k.ICMPCode != m.ICMPCode) {
		return false
	}
	if m.ARPOpSet && (!k.HasARP || k.ARPOp != m.ARPOp) {
		return false
	}
	if m.ARPSPASet && (!k.HasARP || !ipMasked(k.ARPSPA, m.ARPSPA, m.ARPSPAMask)) {
		return false
	}
	if m.ARPTPASet && (!k.HasARP || !ipMasked(k.ARPTPA, m.ARPTPA, m.ARPTPAMask)) {
		return false
	}
	return true
}

// FromOXM populates the match from wire TLVs.
func FromOXM(wire *openflow.Match) (*Match, error) {
	m := &Match{}
	for _, o := range wire.OXMs {
		switch o.Field {
		case openflow.OXMInPort:
			m.InPortSet = true
			m.InPort = binary.BigEndian.Uint32(o.Value)
		case openflow.OXMEthDst:
			m.EthDstSet = true
			copy(m.EthDst[:], o.Value)
			m.EthDstMask = onesMAC
			if o.HasMask {
				copy(m.EthDstMask[:], o.Mask)
			}
		case openflow.OXMEthSrc:
			m.EthSrcSet = true
			copy(m.EthSrc[:], o.Value)
			m.EthSrcMask = onesMAC
			if o.HasMask {
				copy(m.EthSrcMask[:], o.Mask)
			}
		case openflow.OXMEthType:
			m.EthTypeSet = true
			m.EthType = binary.BigEndian.Uint16(o.Value)
		case openflow.OXMVLANVID:
			v := binary.BigEndian.Uint16(o.Value)
			if v == openflow.OXMVIDNone {
				m.VLAN = VLANAbsent
			} else {
				m.VLAN = VLANExact
				m.VLANVID = v &^ openflow.OXMVIDPresent
			}
		case openflow.OXMVLANPCP:
			m.VLANPCPSet = true
			m.VLANPCP = o.Value[0]
		case openflow.OXMIPProto:
			m.IPProtoSet = true
			m.IPProto = o.Value[0]
		case openflow.OXMIPv4Src:
			m.IPSrcSet = true
			copy(m.IPSrc[:], o.Value)
			m.IPSrcMask = onesIPv4
			if o.HasMask {
				copy(m.IPSrcMask[:], o.Mask)
			}
		case openflow.OXMIPv4Dst:
			m.IPDstSet = true
			copy(m.IPDst[:], o.Value)
			m.IPDstMask = onesIPv4
			if o.HasMask {
				copy(m.IPDstMask[:], o.Mask)
			}
		case openflow.OXMTCPSrc, openflow.OXMUDPSrc:
			m.L4SrcSet = true
			m.L4Src = binary.BigEndian.Uint16(o.Value)
		case openflow.OXMTCPDst, openflow.OXMUDPDst:
			m.L4DstSet = true
			m.L4Dst = binary.BigEndian.Uint16(o.Value)
		case openflow.OXMICMPType:
			m.ICMPTypeSet = true
			m.ICMPType = o.Value[0]
		case openflow.OXMICMPCode:
			m.ICMPCodeSet = true
			m.ICMPCode = o.Value[0]
		case openflow.OXMARPOp:
			m.ARPOpSet = true
			m.ARPOp = binary.BigEndian.Uint16(o.Value)
		case openflow.OXMARPSPA:
			m.ARPSPASet = true
			copy(m.ARPSPA[:], o.Value)
			m.ARPSPAMask = onesIPv4
			if o.HasMask {
				copy(m.ARPSPAMask[:], o.Mask)
			}
		case openflow.OXMARPTPA:
			m.ARPTPASet = true
			copy(m.ARPTPA[:], o.Value)
			m.ARPTPAMask = onesIPv4
			if o.HasMask {
				copy(m.ARPTPAMask[:], o.Mask)
			}
		default:
			return nil, fmt.Errorf("flowtable: unsupported OXM field %d", o.Field)
		}
	}
	return m, nil
}

// ToOXM converts the match back to wire TLVs; a mask other than all
// ones travels with its field.
func (m *Match) ToOXM() openflow.Match {
	w := openflow.Match{}
	mac := func(set bool, v, mask pkt.MAC, exact func(pkt.MAC) *openflow.Match, masked func(_, _ pkt.MAC) *openflow.Match) {
		if set && mask == onesMAC {
			exact(v)
		} else if set {
			masked(v, mask)
		}
	}
	ip := func(set bool, v, mask pkt.IPv4, exact func(pkt.IPv4) *openflow.Match, masked func(_, _ pkt.IPv4) *openflow.Match) {
		if set && mask == onesIPv4 {
			exact(v)
		} else if set {
			masked(v, mask)
		}
	}
	if m.InPortSet {
		w.WithInPort(m.InPort)
	}
	mac(m.EthDstSet, m.EthDst, m.EthDstMask, w.WithEthDst, w.WithEthDstMasked)
	mac(m.EthSrcSet, m.EthSrc, m.EthSrcMask, w.WithEthSrc, w.WithEthSrcMasked)
	if m.EthTypeSet {
		w.WithEthType(m.EthType)
	}
	switch m.VLAN {
	case VLANAbsent:
		w.WithNoVLAN()
	case VLANExact:
		w.WithVLAN(m.VLANVID)
	}
	if m.VLANPCPSet {
		w.WithVLANPCP(m.VLANPCP)
	}
	if m.IPProtoSet {
		w.WithIPProto(m.IPProto)
	}
	ip(m.IPSrcSet, m.IPSrc, m.IPSrcMask, w.WithIPv4Src, w.WithIPv4SrcMasked)
	ip(m.IPDstSet, m.IPDst, m.IPDstMask, w.WithIPv4Dst, w.WithIPv4DstMasked)
	if m.L4SrcSet {
		if m.IPProto == pkt.IPProtoUDP {
			w.WithUDPSrc(m.L4Src)
		} else {
			w.WithTCPSrc(m.L4Src)
		}
	}
	if m.L4DstSet {
		if m.IPProto == pkt.IPProtoUDP {
			w.WithUDPDst(m.L4Dst)
		} else {
			w.WithTCPDst(m.L4Dst)
		}
	}
	if m.ICMPTypeSet {
		w.WithICMPType(m.ICMPType)
	}
	if m.ICMPCodeSet {
		w.WithICMPCode(m.ICMPCode)
	}
	if m.ARPOpSet {
		w.WithARPOp(m.ARPOp)
	}
	ip(m.ARPSPASet, m.ARPSPA, m.ARPSPAMask, w.WithARPSPA, w.WithARPSPAMasked)
	ip(m.ARPTPASet, m.ARPTPA, m.ARPTPAMask, w.WithARPTPA, w.WithARPTPAMasked)
	return w
}

// Equal reports exact match equality (used by strict flow-mod ops).
func (m *Match) Equal(o *Match) bool { return *m == *o }

// String renders the match for diagnostics: every constrained field,
// a mask other than all ones after a slash.
func (m *Match) String() string {
	var parts []string
	add := func(set bool, format string, args ...any) {
		if set {
			parts = append(parts, fmt.Sprintf(format, args...))
		}
	}
	mac := func(set bool, name string, v, mask pkt.MAC) {
		add(set && mask == onesMAC, "%s=%s", name, v)
		add(set && mask != onesMAC, "%s=%s/%s", name, v, mask)
	}
	ip := func(set bool, name string, v, mask pkt.IPv4) {
		add(set && mask == onesIPv4, "%s=%s", name, v)
		add(set && mask != onesIPv4, "%s=%s/%s", name, v, mask)
	}
	add(m.InPortSet, "in_port=%d", m.InPort)
	mac(m.EthDstSet, "eth_dst", m.EthDst, m.EthDstMask)
	mac(m.EthSrcSet, "eth_src", m.EthSrc, m.EthSrcMask)
	add(m.EthTypeSet, "eth_type=%#x", m.EthType)
	add(m.VLAN == VLANAbsent, "vlan=none")
	add(m.VLAN == VLANExact, "vlan=%d", m.VLANVID)
	add(m.VLANPCPSet, "vlan_pcp=%d", m.VLANPCP)
	add(m.IPProtoSet, "ip_proto=%d", m.IPProto)
	ip(m.IPSrcSet, "nw_src", m.IPSrc, m.IPSrcMask)
	ip(m.IPDstSet, "nw_dst", m.IPDst, m.IPDstMask)
	add(m.L4SrcSet, "tp_src=%d", m.L4Src)
	add(m.L4DstSet, "tp_dst=%d", m.L4Dst)
	add(m.ICMPTypeSet, "icmp_type=%d", m.ICMPType)
	add(m.ICMPCodeSet, "icmp_code=%d", m.ICMPCode)
	add(m.ARPOpSet, "arp_op=%d", m.ARPOp)
	ip(m.ARPSPASet, "arp_spa", m.ARPSPA, m.ARPSPAMask)
	ip(m.ARPTPASet, "arp_tpa", m.ARPTPA, m.ARPTPAMask)
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}

// ValidatePrerequisites enforces the OXM prerequisite rules of the
// OpenFlow 1.3 spec (§7.2.3.8): L3 fields require the matching
// eth_type, L4 fields require the matching ip_proto, VLAN PCP requires
// a present tag, and ARP fields require eth_type=0x0806. Real switches
// reject flow-mods violating these with OFPET_BAD_MATCH; so does the
// softswitch.
func (m *Match) ValidatePrerequisites() error {
	if m.IPSrcSet || m.IPDstSet {
		if !m.EthTypeSet || m.EthType != pkt.EtherTypeIPv4 {
			return fmt.Errorf("flowtable: ipv4 match requires eth_type=0x0800")
		}
	}
	if m.IPProtoSet {
		if !m.EthTypeSet || (m.EthType != pkt.EtherTypeIPv4 && m.EthType != pkt.EtherTypeIPv6) {
			return fmt.Errorf("flowtable: ip_proto match requires eth_type=0x0800 or 0x86dd")
		}
	}
	if m.L4SrcSet || m.L4DstSet {
		if !m.IPProtoSet || (m.IPProto != pkt.IPProtoTCP && m.IPProto != pkt.IPProtoUDP) {
			return fmt.Errorf("flowtable: tcp/udp port match requires ip_proto=6 or 17")
		}
	}
	if m.ICMPTypeSet || m.ICMPCodeSet {
		if !m.IPProtoSet || m.IPProto != pkt.IPProtoICMP {
			return fmt.Errorf("flowtable: icmp match requires ip_proto=1")
		}
	}
	if m.ARPOpSet || m.ARPSPASet || m.ARPTPASet {
		if !m.EthTypeSet || m.EthType != pkt.EtherTypeARP {
			return fmt.Errorf("flowtable: arp match requires eth_type=0x0806")
		}
	}
	if m.VLANPCPSet && m.VLAN != VLANExact {
		return fmt.Errorf("flowtable: vlan_pcp match requires a vlan_vid match")
	}
	return nil
}
