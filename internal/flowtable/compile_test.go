package flowtable

import (
	"math/rand"
	"testing"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

const ones16 = ^uint16(0)

// TestMaskOf pins the mask each kind of match compiles to, written as
// the packet key with all ones under the bits it covers. (The name
// predates the compiled form; it is a recorded test id.)
func TestMaskOf(t *testing.T) {
	cases := []struct {
		name string
		m    Match
		want pkt.Key
	}{
		{"match-all", Match{}, pkt.Key{}},
		{"in-port", Match{InPortSet: true, InPort: 3}, pkt.Key{InPort: ^uint32(0)}},
		{
			"l2",
			Match{EthDstSet: true, EthDstMask: onesMAC, EthSrcSet: true, EthSrcMask: onesMAC, EthTypeSet: true},
			pkt.Key{EthDst: onesMAC, EthSrc: onesMAC, EthType: ones16},
		},
		{
			// A prefix claims its own bits and the header they sit in.
			"masked-ip-prefix",
			Match{IPDstSet: true, IPDst: pkt.IPv4{10, 0, 0, 0}, IPDstMask: pkt.IPv4{255, 0, 0, 0}},
			pkt.Key{HasIPv4: true, IPDst: pkt.IPv4{255, 0, 0, 0}},
		},
		{"vlan-exact", Match{VLAN: VLANExact, VLANVID: 5}, pkt.Key{HasVLAN: true, VLANID: ones16}},
		{"vlan-absent", Match{VLAN: VLANAbsent}, pkt.Key{HasVLAN: true}},
		{"vlan-pcp", Match{VLANPCPSet: true, VLANPCP: 3}, pkt.Key{HasVLAN: true, VLANPCP: 0xff}},
		{
			"five-tuple",
			Match{
				EthTypeSet: true, IPProtoSet: true,
				IPSrcSet: true, IPSrcMask: onesIPv4, IPDstSet: true, IPDstMask: onesIPv4,
				L4SrcSet: true, L4DstSet: true,
			},
			pkt.Key{EthType: ones16, HasIPv4: true, IPProto: 0xff, IPSrc: onesIPv4, IPDst: onesIPv4,
				HasL4: true, L4Src: ones16, L4Dst: ones16},
		},
		{
			"arp",
			Match{ARPOpSet: true, ARPSPASet: true, ARPSPAMask: onesIPv4, ARPTPASet: true, ARPTPAMask: pkt.IPv4{255, 255, 255, 240}},
			pkt.Key{HasARP: true, ARPOp: ones16, ARPSPA: onesIPv4, ARPTPA: pkt.IPv4{255, 255, 255, 240}},
		},
		{"icmp", Match{ICMPTypeSet: true, ICMPCodeSet: true}, pkt.Key{HasICMP: true, ICMPType: 0xff, ICMPCode: 0xff}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := compile(&tc.m); got.mask != flatOf(&tc.want) || got.never {
				t.Fatalf("%s compiles to mask %x (never %v), want %x", tc.m.String(), got.mask, got.never, flatOf(&tc.want))
			}
		})
	}
}

// TestMaskUnionCovers: a table consults the union of its entries' masks
// (and the shape bits), and of two matches that agree wherever both
// constrain, one is covered by the other exactly when its mask contains
// the other's.
func TestMaskUnionCovers(t *testing.T) {
	inPort := Match{InPortSet: true, InPort: 1}
	ipDst := Match{IPDstSet: true, IPDst: ipB, IPDstMask: onesIPv4}
	ethType := Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4}
	both := Match{InPortSet: true, InPort: 1, EthTypeSet: true, EthType: pkt.EtherTypeIPv4}
	l4 := Match{L4DstSet: true, L4Dst: 53}
	cases := []struct {
		name               string
		a, b               Match
		aCoversB, bCoversA bool
	}{
		{"disjoint", inPort, ipDst, false, false},
		{"subset", both, ethType, true, false},
		{"equal", l4, l4, true, true},
		{"empty", Match{}, ipDst, false, true},
		{"both-empty", Match{}, Match{}, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := coveredBy(&tc.a, &tc.b); got != tc.aCoversB {
				t.Fatalf("a's mask contains b's = %v, want %v", got, tc.aCoversB)
			}
			if got := coveredBy(&tc.b, &tc.a); got != tc.bCoversA {
				t.Fatalf("b's mask contains a's = %v, want %v", got, tc.bCoversA)
			}
			tbl := NewTable(0, nil)
			_ = tbl.Add(&Entry{Priority: 1, Match: &tc.a})
			_ = tbl.Add(&Entry{Priority: 2, Match: &tc.b})
			a, b := compile(&tc.a).mask, compile(&tc.b).mask
			union := a.Or(&b)
			if got := *tbl.ConsultMask(); got != union.Or(&shapeBits) {
				t.Fatalf("ConsultMask = %x, want the union %x and the shape bits", got, union)
			}
			if union.And(&a) != a || union.And(&b) != b {
				t.Fatalf("union does not contain its operands")
			}
		})
	}
}

// andKeys is the reference projection: k under the mask w, field by
// field on the struct key.
func andKeys(k, w *pkt.Key) pkt.Key {
	mac := func(a, b pkt.MAC) (o pkt.MAC) {
		for i := range o {
			o[i] = a[i] & b[i]
		}
		return o
	}
	ip := func(a, b pkt.IPv4) (o pkt.IPv4) {
		for i := range o {
			o[i] = a[i] & b[i]
		}
		return o
	}
	return pkt.Key{
		InPort: k.InPort & w.InPort, EthDst: mac(k.EthDst, w.EthDst), EthSrc: mac(k.EthSrc, w.EthSrc),
		EthType: k.EthType & w.EthType,
		HasVLAN: k.HasVLAN && w.HasVLAN, VLANID: k.VLANID & w.VLANID, VLANPCP: k.VLANPCP & w.VLANPCP,
		HasIPv4: k.HasIPv4 && w.HasIPv4, IPProto: k.IPProto & w.IPProto,
		IPSrc: ip(k.IPSrc, w.IPSrc), IPDst: ip(k.IPDst, w.IPDst),
		HasIPv6: k.HasIPv6 && w.HasIPv6,
		HasARP:  k.HasARP && w.HasARP, ARPOp: k.ARPOp & w.ARPOp,
		ARPSPA: ip(k.ARPSPA, w.ARPSPA), ARPTPA: ip(k.ARPTPA, w.ARPTPA),
		HasL4: k.HasL4 && w.HasL4, L4Src: k.L4Src & w.L4Src, L4Dst: k.L4Dst & w.L4Dst,
		HasICMP: k.HasICMP && w.HasICMP, ICMPType: k.ICMPType & w.ICMPType, ICMPCode: k.ICMPCode & w.ICMPCode,
	}
}

// TestMaskApply: what a table's consult mask keeps of a key.
func TestMaskApply(t *testing.T) {
	full := pkt.Key{
		InPort: 7,
		EthDst: pkt.MAC{2, 0, 0, 0, 0, 1}, EthSrc: pkt.MAC{2, 0, 0, 0, 0, 2},
		EthType: pkt.EtherTypeIPv4,
		HasVLAN: true, VLANID: 100, VLANPCP: 3,
		HasIPv4: true, IPProto: pkt.IPProtoUDP,
		IPSrc: pkt.IPv4{10, 1, 0, 1}, IPDst: pkt.IPv4{10, 2, 0, 1},
		HasL4: true, L4Src: 4242, L4Dst: 53,
	}
	shape := pkt.Key{HasVLAN: true, HasIPv4: true, HasL4: true}
	tbl := NewTable(0, nil)
	project := func(k *pkt.Key) pkt.FlatKey {
		f := flatOf(k)
		return f.And(tbl.ConsultMask())
	}

	t.Run("zero-mask-keeps-shape-only", func(t *testing.T) {
		if got := project(&full); got != flatOf(&shape) {
			t.Fatalf("an empty table keeps %x of the key, want its presence bits %x", got, flatOf(&shape))
		}
	})

	_ = tbl.Add(&Entry{Priority: 10, Match: &Match{
		InPortSet: true, InPort: 7, EthTypeSet: true, EthType: pkt.EtherTypeIPv4,
		IPDstSet: true, IPDst: pkt.IPv4{10, 2, 0, 0}, IPDstMask: pkt.IPv4{255, 255, 0, 0},
	}})
	_ = tbl.Add(&Entry{Priority: 5, Match: &Match{L4DstSet: true, L4Dst: 53}})

	t.Run("selected-fields-survive", func(t *testing.T) {
		want := shape
		want.InPort, want.EthType, want.IPDst, want.L4Dst = 7, pkt.EtherTypeIPv4, pkt.IPv4{10, 2, 0, 0}, 53
		if got := project(&full); got != flatOf(&want) {
			t.Fatalf("projection %x, want in_port, eth_type, 16 bits of nw_dst, tp_dst and the shape: %x", got, flatOf(&want))
		}
	})

	t.Run("projection-idempotent", func(t *testing.T) {
		p := project(&full)
		if q := p.And(tbl.ConsultMask()); p != q {
			t.Fatalf("projecting twice: %x then %x", p, q)
		}
	})

	// The soundness property megaflow caching relies on: keys with equal
	// projections select the same entry.
	t.Run("class-mates-match-identically", func(t *testing.T) {
		other := full
		other.EthSrc = pkt.MAC{2, 9, 9, 9, 9, 9} // outside the mask
		other.L4Src = 9999
		other.IPSrc = pkt.IPv4{172, 16, 0, 1}
		other.IPDst = pkt.IPv4{10, 2, 77, 77} // inside the /16
		if project(&full) != project(&other) {
			t.Fatalf("keys differing only outside the mask must project equally")
		}
		if a, b := tbl.Lookup(&full, 64), tbl.Lookup(&other, 64); a != b || a == nil || a.Priority != 10 {
			t.Fatalf("class mates selected %v and %v", a, b)
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
		VLANID: uint16(rng.Uint32()), VLANPCP: uint8(rng.Uint32()),
		IPProto: uint8(rng.Uint32()),
		ARPOp:   uint16(rng.Uint32()), L4Src: uint16(rng.Uint32()), L4Dst: uint16(rng.Uint32()),
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

// TestFlatProjectionMatchesApply: what compile rests on — packing a key
// and a mask key separately and ANDing the words is masking field by
// field. For every packet shape, under random masks from dense down to
// a bit or two: the six-AND projection is the packed struct projection,
// and two keys project alike through the words iff they do field by
// field — no bit of a matchable field is lost or shared in the packing.
func TestFlatProjectionMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for shape := 0; shape < 64; shape++ {
		for round := 0; round < 64; round++ {
			k, o, w := randKey(rng, shape), randKey(rng, rng.Intn(64)), randKey(rng, 63)
			for thin := rng.Intn(9); thin > 0; thin-- {
				r := randKey(rng, rng.Intn(64))
				w = andKeys(&w, &r)
			}
			fk, fo, fw := flatOf(&k), flatOf(&o), flatOf(&w)
			pk, po := andKeys(&k, &w), andKeys(&o, &w)
			if got := fk.And(&fw); got != flatOf(&pk) {
				t.Fatalf("shape %06b: packed projection %x, field by field %x\nkey  %+v\nmask %+v", shape, got, flatOf(&pk), k, w)
			}
			if viaWords, viaFields := fk.And(&fw) == fo.And(&fw), pk == po; viaWords != viaFields {
				t.Fatalf("projections equal through the words %v, field by field %v\nkeys %+v\n     %+v\nmask %+v",
					viaWords, viaFields, k, o, w)
			}
		}
	}
}

// TestCompiledAcceptsWhatMatchesDoes: for random (m, k), the classifier
// holding m alone answers k iff m.Matches(k) — keys from the oracle's
// value space, which hit, and keys of every shape with random values,
// which exercise the presence bits.
func TestCompiledAcceptsWhatMatchesDoes(t *testing.T) {
	o := &oracle{rng: rand.New(rand.NewSource(22))}
	hits := 0
	for i := 0; i < 4000; i++ {
		m := o.match()
		tbl := NewTable(0, nil)
		_ = tbl.Add(&Entry{Match: m})
		for j := 0; j < 24; j++ {
			k := o.key()
			if j%3 == 0 {
				rk := randKey(o.rng, o.rng.Intn(64))
				k = &rk
			}
			want := m.Matches(k)
			if got := tbl.Lookup(k, 64) != nil; got != want {
				t.Fatalf("%s compiled to %+v\naccepts %+v: %v, Matches says %v", m, compile(m), *k, got, want)
			}
			if want {
				hits++
			}
		}
	}
	if hits < 4000 {
		t.Errorf("vacuous: %d of 96000 keys matched", hits)
	}
}

// TestEqualProjectionsSelectTheSameEntry is the per-table step of the
// flow cache's soundness argument: whatever two packed keys differ in
// outside ConsultMask, the table answers them alike.
func TestEqualProjectionsSelectTheSameEntry(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		clk := netem.NewManualClock()
		o := &oracle{t: t, rng: rand.New(rand.NewSource(seed)), clk: clk, tbl: NewTable(0, clk)}
		for i := 0; i < 30; i++ {
			o.step()
		}
		mask := *o.tbl.ConsultMask()
		for i := 0; i < 200; i++ {
			f, noise := flatOf(o.key()), flatOf(o.key())
			if i%2 == 0 {
				rk := randKey(o.rng, 63)
				noise = flatOf(&rk)
			}
			g := f
			for w := range g {
				g[w] = f[w]&mask[w] | noise[w]&^mask[w]
			}
			if a, b := o.tbl.Find(&f), o.tbl.Find(&g); a != b {
				t.Fatalf("seed %d: keys %x and %x agree under the consult mask %x, yet select\n%v\n%v", seed, f, g, mask, a, b)
			}
		}
	}
}

func TestTableConsultMask(t *testing.T) {
	tab := NewTable(0, netem.RealClock{})
	want := func(k pkt.Key) pkt.FlatKey {
		f := flatOf(&k)
		return f.Or(&shapeBits)
	}
	if got := *tab.ConsultMask(); got != shapeBits {
		t.Fatalf("empty table ConsultMask = %x, want the shape bits", got)
	}
	add := func(m Match, prio uint16) {
		t.Helper()
		if err := tab.Add(&Entry{Priority: prio, Match: &m}); err != nil {
			t.Fatal(err)
		}
	}
	add(Match{InPortSet: true, InPort: 1}, 10)
	if got := *tab.ConsultMask(); got != want(pkt.Key{InPort: ^uint32(0)}) {
		t.Fatalf("ConsultMask = %x, want in_port", got)
	}
	// The published mask must follow the revision bump.
	slash8 := Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPDstSet: true,
		IPDst: pkt.IPv4{10, 0, 0, 0}, IPDstMask: pkt.IPv4{255, 0, 0, 0}}
	add(slash8, 20)
	if got := *tab.ConsultMask(); got != want(pkt.Key{InPort: ^uint32(0), EthType: ones16, IPDst: pkt.IPv4{255, 0, 0, 0}}) {
		t.Fatalf("ConsultMask after add = %x, want in_port, eth_type and 8 bits of nw_dst", got)
	}
	// An entry that can match nothing is read by no lookup.
	add(Match{VLAN: VLANAbsent, VLANPCPSet: true, VLANPCP: 1}, 30)
	if got := *tab.ConsultMask(); got != want(pkt.Key{InPort: ^uint32(0), EthType: ones16, IPDst: pkt.IPv4{255, 0, 0, 0}}) {
		t.Fatalf("ConsultMask after a never-matching add = %x", got)
	}
	// Deleting back down narrows it again.
	tab.Delete(&slash8, 20, true, 0xffffffff)
	if got := *tab.ConsultMask(); got != want(pkt.Key{InPort: ^uint32(0)}) {
		t.Fatalf("ConsultMask after delete = %x, want in_port", got)
	}
}
