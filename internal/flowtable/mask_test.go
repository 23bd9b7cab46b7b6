package flowtable

import (
	"math/rand"
	"testing"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func TestMaskOf(t *testing.T) {
	cases := []struct {
		name string
		m    Match
		want MatchMask
	}{
		{"match-all", Match{}, 0},
		{"in-port", Match{InPortSet: true, InPort: 3}, MaskInPort},
		{
			"l2",
			Match{EthDstSet: true, EthDstMask: onesMAC, EthSrcSet: true, EthSrcMask: onesMAC, EthTypeSet: true},
			MaskEthDst | MaskEthSrc | MaskEthType,
		},
		{
			// A prefix constraint still claims the whole field:
			// conservative, never under-reports.
			"masked-ip-prefix",
			Match{IPDstSet: true, IPDst: pkt.IPv4{10, 0, 0, 0}, IPDstMask: pkt.IPv4{255, 0, 0, 0}},
			MaskIPDst,
		},
		{"vlan-exact", Match{VLAN: VLANExact, VLANVID: 5}, MaskVLAN},
		{"vlan-absent", Match{VLAN: VLANAbsent}, MaskVLAN},
		{"vlan-pcp", Match{VLANPCPSet: true, VLANPCP: 3}, MaskVLANPCP},
		{
			"five-tuple",
			Match{
				EthTypeSet: true, IPProtoSet: true,
				IPSrcSet: true, IPSrcMask: onesIPv4, IPDstSet: true, IPDstMask: onesIPv4,
				L4SrcSet: true, L4DstSet: true,
			},
			MaskEthType | MaskIPProto | MaskIPSrc | MaskIPDst | MaskL4Src | MaskL4Dst,
		},
		{
			"arp",
			Match{ARPOpSet: true, ARPSPASet: true, ARPSPAMask: onesIPv4, ARPTPASet: true, ARPTPAMask: onesIPv4},
			MaskARPOp | MaskARPSPA | MaskARPTPA,
		},
		{"icmp", Match{ICMPTypeSet: true, ICMPCodeSet: true}, MaskICMPType | MaskICMPCode},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MaskOf(&tc.m); got != tc.want {
				t.Fatalf("MaskOf(%s) = %v, want %v", tc.m.String(), got, tc.want)
			}
		})
	}
}

func TestMaskUnionCovers(t *testing.T) {
	cases := []struct {
		name      string
		a, b      MatchMask
		union     MatchMask
		aCoversB  bool
		bCoversA  bool
		unionBoth bool // union covers both operands
	}{
		{"disjoint", MaskInPort, MaskIPDst, MaskInPort | MaskIPDst, false, false, true},
		{"subset", MaskInPort | MaskEthType, MaskEthType, MaskInPort | MaskEthType, true, false, true},
		{"equal", MaskL4Dst, MaskL4Dst, MaskL4Dst, true, true, true},
		{"empty", 0, MaskIPSrc, MaskIPSrc, false, true, true},
		{"both-empty", 0, 0, 0, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Union(tc.b); got != tc.union {
				t.Fatalf("Union = %v, want %v", got, tc.union)
			}
			if got := tc.a.Covers(tc.b); got != tc.aCoversB {
				t.Fatalf("a.Covers(b) = %v, want %v", got, tc.aCoversB)
			}
			if got := tc.b.Covers(tc.a); got != tc.bCoversA {
				t.Fatalf("b.Covers(a) = %v, want %v", got, tc.bCoversA)
			}
			u := tc.a.Union(tc.b)
			if u.Covers(tc.a) != tc.unionBoth || u.Covers(tc.b) != tc.unionBoth {
				t.Fatalf("union does not cover operands")
			}
		})
	}
}

// Apply is the reference projection the packed one (Words, FlatKey.And)
// is checked against, field by field on the struct key: value fields
// outside the mask are zeroed, value fields inside it are copied
// verbatim, the presence bits are always retained and IPTOS, which has
// no matchable field, is always projected away.
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

func TestMaskApply(t *testing.T) {
	full := pkt.Key{
		InPort: 7,
		EthDst: pkt.MAC{2, 0, 0, 0, 0, 1}, EthSrc: pkt.MAC{2, 0, 0, 0, 0, 2},
		EthType: pkt.EtherTypeIPv4,
		HasVLAN: true, VLANID: 100, VLANPCP: 3,
		HasIPv4: true, IPProto: pkt.IPProtoUDP, IPTOS: 0x2e,
		IPSrc: pkt.IPv4{10, 1, 0, 1}, IPDst: pkt.IPv4{10, 2, 0, 1},
		HasL4: true, L4Src: 4242, L4Dst: 53,
	}

	t.Run("zero-mask-keeps-shape-only", func(t *testing.T) {
		p := MatchMask(0).Apply(&full)
		if !p.HasVLAN || !p.HasIPv4 || !p.HasL4 {
			t.Fatalf("presence bits must survive projection: %+v", p)
		}
		if p.InPort != 0 || p.IPDst != (pkt.IPv4{}) || p.L4Dst != 0 || p.VLANID != 0 || p.IPTOS != 0 {
			t.Fatalf("value fields must be zeroed: %+v", p)
		}
	})

	t.Run("selected-fields-survive", func(t *testing.T) {
		mm := MaskInPort | MaskIPDst | MaskL4Dst
		p := mm.Apply(&full)
		if p.InPort != 7 || p.IPDst != (pkt.IPv4{10, 2, 0, 1}) || p.L4Dst != 53 {
			t.Fatalf("masked fields must be copied: %+v", p)
		}
		if p.IPSrc != (pkt.IPv4{}) || p.L4Src != 0 || p.EthDst != (pkt.MAC{}) {
			t.Fatalf("unmasked fields must be zeroed: %+v", p)
		}
	})

	t.Run("projection-idempotent", func(t *testing.T) {
		mm := MaskEthType | MaskIPProto | MaskL4Dst
		p := mm.Apply(&full)
		q := mm.Apply(&p)
		if p != q {
			t.Fatalf("Apply not idempotent:\n p=%+v\n q=%+v", p, q)
		}
	})

	// The soundness property megaflow caching relies on: if the mask
	// covers a match's fields, keys with equal projections evaluate
	// identically against that match.
	t.Run("class-mates-match-identically", func(t *testing.T) {
		m := Match{
			InPortSet: true, InPort: 7,
			EthTypeSet: true, EthType: pkt.EtherTypeIPv4,
			IPDstSet: true, IPDst: pkt.IPv4{10, 2, 0, 0}, IPDstMask: pkt.IPv4{255, 255, 0, 0},
		}
		mm := MaskOf(&m).Union(MaskL4Dst) // wider than the match: still sound
		other := full
		other.EthSrc = pkt.MAC{2, 9, 9, 9, 9, 9} // outside the mask
		other.L4Src = 9999
		other.IPSrc = pkt.IPv4{172, 16, 0, 1}
		if mm.Apply(&full) != mm.Apply(&other) {
			t.Fatalf("keys differing only outside the mask must project equally")
		}
		if m.Matches(&full) != m.Matches(&other) {
			t.Fatalf("class mates must match identically")
		}
		if !m.Matches(&full) {
			t.Fatalf("sanity: match should accept the key")
		}
	})
}

// randKey draws a key of the given presence-bit shape (bit i of shape is
// the i-th Has* flag) with every value field random.
func randKey(rng *rand.Rand, shape int) pkt.Key {
	k := pkt.Key{
		InPort: rng.Uint32(), EthType: uint16(rng.Uint32()),
		HasVLAN: shape&1 != 0, HasIPv4: shape&2 != 0, HasIPv6: shape&4 != 0,
		HasARP: shape&8 != 0, HasL4: shape&16 != 0, HasICMP: shape&32 != 0,
		VLANID: uint16(rng.Intn(4096)), VLANPCP: uint8(rng.Intn(8)),
		IPProto: uint8(rng.Uint32()), IPTOS: uint8(rng.Uint32()),
		ARPOp: uint16(rng.Uint32()), L4Src: uint16(rng.Uint32()), L4Dst: uint16(rng.Uint32()),
		ICMPType: uint8(rng.Uint32()), ICMPCode: uint8(rng.Uint32()),
	}
	rng.Read(k.EthDst[:])
	rng.Read(k.EthSrc[:])
	rng.Read(k.IPSrc[:])
	rng.Read(k.IPDst[:])
	rng.Read(k.ARPSPA[:])
	rng.Read(k.ARPTPA[:])
	return k
}

// flipField changes the one value field bit names (IPTOS for bit 0).
func flipField(k *pkt.Key, bit MatchMask) {
	switch bit {
	case 0:
		k.IPTOS ^= 0x04
	case MaskInPort:
		k.InPort ^= 1 << 31
	case MaskEthDst:
		k.EthDst[0] ^= 0x80
	case MaskEthSrc:
		k.EthSrc[5] ^= 1
	case MaskEthType:
		k.EthType ^= 1 << 15
	case MaskVLAN:
		k.VLANID ^= 1 << 11
	case MaskVLANPCP:
		k.VLANPCP ^= 4
	case MaskIPProto:
		k.IPProto ^= 0x80
	case MaskIPSrc:
		k.IPSrc[0] ^= 0x80
	case MaskIPDst:
		k.IPDst[3] ^= 1
	case MaskL4Src:
		k.L4Src ^= 1 << 15
	case MaskL4Dst:
		k.L4Dst ^= 1
	case MaskICMPType:
		k.ICMPType ^= 0x80
	case MaskICMPCode:
		k.ICMPCode ^= 1
	case MaskARPOp:
		k.ARPOp ^= 1 << 15
	case MaskARPSPA:
		k.ARPSPA[0] ^= 0x80
	case MaskARPTPA:
		k.ARPTPA[3] ^= 1
	}
}

// TestFlatProjectionMatchesApply: the six-AND projection of the packed
// key is the struct projection, for every packet shape under random
// masks — Apply(k) packed equals k packed AND Words(); a one-field
// change separates two keys through the one iff through the other; and
// IPTOS or a field outside the mask never does.
func TestFlatProjectionMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	flat := func(k pkt.Key) (f pkt.FlatKey) { k.FlatInto(&f); return f }
	for shape := 0; shape < 64; shape++ {
		for round := 0; round < 32; round++ {
			mm := MatchMask(rng.Intn(1 << len(maskNames)))
			words := mm.Words()
			k := randKey(rng, shape)
			fk := flat(k)
			if got, want := fk.And(&words), flat(mm.Apply(&k)); got != want {
				t.Fatalf("mask %v shape %06b: packed projection %x, Apply packed %x", mm, shape, got, want)
			}
			for bit := MatchMask(0); bit < 1<<len(maskNames); bit = max(1, bit<<1) {
				o := k
				flipField(&o, bit)
				fo := flat(o)
				viaApply := mm.Apply(&k) == mm.Apply(&o)
				if viaWords := fk.And(&words) == fo.And(&words); viaWords != viaApply {
					t.Fatalf("mask %v, %v flipped: equal through Apply %v, through the words %v", mm, bit, viaApply, viaWords)
				}
				if viaApply != (mm&bit == 0) {
					t.Fatalf("mask %v, %v flipped: projections equal = %v", mm, bit, viaApply)
				}
			}
			// A different shape is a different class whatever the mask.
			o := randKey(rand.New(rand.NewSource(int64(round))), shape^(1<<rng.Intn(6)))
			if fo := flat(o); fk.And(&words) == fo.And(&words) || mm.Apply(&k) == mm.Apply(&o) {
				t.Fatalf("mask %v: shapes %06b and another project equal", mm, shape)
			}
		}
	}
}

func TestMaskString(t *testing.T) {
	if got := MatchMask(0).String(); got != "any" {
		t.Fatalf("zero mask String = %q", got)
	}
	if got := (MaskInPort | MaskIPDst).String(); got != "in_port,nw_dst" {
		t.Fatalf("String = %q", got)
	}
}

func TestTableConsultMask(t *testing.T) {
	tab := NewTable(0, netem.RealClock{})
	if got := tab.ConsultMask(); got != 0 {
		t.Fatalf("empty table ConsultMask = %v, want any", got)
	}
	add := func(m Match, prio uint16) {
		t.Helper()
		if err := tab.Add(&Entry{Priority: prio, Match: &m}); err != nil {
			t.Fatal(err)
		}
	}
	add(Match{InPortSet: true, InPort: 1}, 10)
	if got := tab.ConsultMask(); got != MaskInPort {
		t.Fatalf("ConsultMask = %v, want in_port", got)
	}
	// Cached value must refresh after a revision bump.
	add(Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPDstSet: true,
		IPDst: pkt.IPv4{10, 0, 0, 0}, IPDstMask: pkt.IPv4{255, 0, 0, 0}}, 20)
	want := MaskInPort | MaskEthType | MaskIPDst
	if got := tab.ConsultMask(); got != want {
		t.Fatalf("ConsultMask after add = %v, want %v", got, want)
	}
	// Deleting back down narrows it again.
	tab.Delete(&Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPDstSet: true,
		IPDst: pkt.IPv4{10, 0, 0, 0}, IPDstMask: pkt.IPv4{255, 0, 0, 0}}, 20, true, 0xffffffff)
	if got := tab.ConsultMask(); got != MaskInPort {
		t.Fatalf("ConsultMask after delete = %v, want in_port", got)
	}
}
