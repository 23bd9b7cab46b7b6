package flowtable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// scan is the reference the index must be indistinguishable from: the
// first match in a walk of the priority-ordered entries.
func scan(t *Table, k *pkt.Key) *Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if e.Match.Matches(k) {
			return e
		}
	}
	return nil
}

// lookupBoth looks k up and fails the test unless the index returned
// the very entry the scan does.
func lookupBoth(t *testing.T, tbl *Table, k *pkt.Key) *Entry {
	t.Helper()
	want := scan(tbl, k)
	got := tbl.Lookup(k, 64)
	if got != want {
		t.Fatalf("lookup %+v:\n index: %v\n  scan: %v", *k, got, want)
	}
	return got
}

// translatorEntries is the SS_1 program for n access ports: trunk
// ingress rows keyed by (in_port, vlan), patch ingress rows by in_port.
func translatorEntries(n int) []*Entry {
	const trunkPort = 1
	var out []*Entry
	for i := 0; i < n; i++ {
		vid, patch := uint16(101+i), uint32(2+i)
		out = append(out,
			&Entry{
				Priority: 100,
				Match:    &Match{InPortSet: true, InPort: trunkPort, VLAN: VLANExact, VLANVID: vid},
				Instructions: []openflow.Instruction{&openflow.InstrApplyActions{Actions: []openflow.Action{
					&openflow.ActionPopVLAN{}, &openflow.ActionOutput{Port: patch, MaxLen: 0xffff},
				}}},
			},
			&Entry{
				Priority: 100,
				Match:    &Match{InPortSet: true, InPort: patch},
				Instructions: []openflow.Instruction{&openflow.InstrApplyActions{Actions: []openflow.Action{
					&openflow.ActionPushVLAN{EtherType: pkt.EtherTypeDot1Q}, &openflow.ActionOutput{Port: trunkPort, MaxLen: 0xffff},
				}}},
			})
	}
	return out
}

// TestIndexShape pins how entries of each shape are filed — into how
// many tuples — and that probes of every kind (a hit in a hashed tuple,
// in a tuple of one value, a miss) select what the scan selects. Where a
// case name says template, read tuple: the names are recorded test ids
// and predate the tuple list.
func TestIndexShape(t *testing.T) {
	arp := &pkt.Key{InPort: 1, EthType: pkt.EtherTypeARP, HasARP: true, ARPOp: 1}
	icmp := &pkt.Key{EthType: pkt.EtherTypeIPv4, HasIPv4: true, IPProto: pkt.IPProtoICMP, HasICMP: true, ICMPType: 8}
	udp := udpKey(1, hostA, hostB, ipA, ipB, 1, 2)
	type probe struct {
		key  *pkt.Key
		prio int // priority of the entry selected; -1 = table miss
	}
	cases := []struct {
		name    string
		entries []*Entry
		tuples  int
		probes  []probe
	}{
		{
			name:    "translator: (in_port,vlan) and (in_port), no default",
			entries: translatorEntries(8),
			tuples:  2,
			probes: []probe{
				{vlanKey(1, 103), 100},                         // trunk ingress, tagged 103
				{udpKey(5, hostA, hostB, ipA, ipB, 1, 2), 100}, // patch ingress
				{vlanKey(1, 999), -1},                          // unknown vlan on the trunk
			},
		},
		{
			name: "L2 with table-miss default",
			entries: []*Entry{
				{Priority: 100, Match: &Match{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC}},
				{Priority: 0, Match: &Match{}},
			},
			tuples: 2,
			probes: []probe{{udp, 100}, {udpKey(1, hostB, hostA, ipA, ipB, 1, 2), 0}},
		},
		{
			name: "winner sits in the template of lower top priority",
			entries: []*Entry{
				{Priority: 200, Match: &Match{InPortSet: true, InPort: 1, EthTypeSet: true, EthType: pkt.EtherTypeARP}},
				{Priority: 100, Match: &Match{InPortSet: true, InPort: 1}},
			},
			tuples: 2,
			probes: []probe{{udp, 100}, {arp, 200}},
		},
		{
			name: "icmp and arp templates",
			entries: []*Entry{
				{Priority: 50, Match: &Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4,
					IPProtoSet: true, IPProto: pkt.IPProtoICMP, ICMPTypeSet: true, ICMPType: 8}},
				{Priority: 40, Match: &Match{EthTypeSet: true, EthType: pkt.EtherTypeARP, ARPOpSet: true, ARPOp: 1}},
			},
			tuples: 2,
			probes: []probe{{icmp, 50}, {arp, 40}, {udp, -1}},
		},
		{
			name: "a masked entry is one more tuple",
			entries: []*Entry{
				{Priority: 5, Match: &Match{IPSrcSet: true, IPSrc: pkt.MustIPv4("10.0.0.0"), IPSrcMask: pkt.MustIPv4("255.0.0.0")}},
				{Priority: 9, Match: &Match{InPortSet: true, InPort: 1}},
			},
			tuples: 2,
			probes: []probe{{udp, 9}, {udpKey(2, hostA, hostB, ipA, ipB, 1, 2), 5}, {arp, 9}},
		},
		{
			name: "no field is rare: four tuples",
			entries: []*Entry{
				{Priority: 1, Match: &Match{VLAN: VLANExact, VLANVID: 7, VLANPCPSet: true, VLANPCP: 3}},
				{Priority: 1, Match: &Match{ICMPCodeSet: true, ICMPCode: 1}},
				{Priority: 1, Match: &Match{ARPSPASet: true, ARPSPA: ipA, ARPSPAMask: onesIPv4}},
				{Priority: 1, Match: &Match{ARPTPASet: true, ARPTPA: ipA, ARPTPAMask: onesIPv4}},
			},
			tuples: 4,
			probes: []probe{
				{&pkt.Key{HasVLAN: true, VLANID: 7, VLANPCP: 3}, 1},
				{&pkt.Key{HasVLAN: true, VLANID: 7, VLANPCP: 2}, -1},
				{&pkt.Key{HasARP: true, ARPTPA: ipA}, 1},
			},
		},
		{
			name: "two match-alls: the higher priority answers",
			entries: []*Entry{
				{Priority: 1, Match: &Match{}},
				{Priority: 2, Match: &Match{}},
			},
			tuples: 1,
			probes: []probe{{udp, 2}},
		},
		{
			name: "one value at two priorities: the lower is shadowed until the higher goes",
			entries: []*Entry{
				{Priority: 10, Match: &Match{InPortSet: true, InPort: 1}},
				{Priority: 20, Match: &Match{InPortSet: true, InPort: 1}},
			},
			tuples: 1,
			probes: []probe{{udp, 20}},
		},
		{
			name: "equal priorities across templates: install order decides, not template order",
			entries: []*Entry{
				{Priority: 10, Match: &Match{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC}},
				{Priority: 10, Match: &Match{InPortSet: true, InPort: 1}},
				{Priority: 20, Match: &Match{InPortSet: true, InPort: 2}}, // lifts (in_port) to the front
			},
			tuples: 2,
			probes: []probe{{udp, 10}},
		},
		{
			name: "vlan absent, vlan exact: 2 tuples",
			entries: []*Entry{
				{Priority: 7, Match: &Match{VLAN: VLANAbsent}},
				{Priority: 8, Match: &Match{VLAN: VLANExact, VLANVID: 0}},
			},
			tuples: 2,
			probes: []probe{{udp, 7}, {vlanKey(1, 0), 8}, {vlanKey(1, 5), -1}},
		},
		{
			name: "ip_proto alone takes an IPv4 or an IPv6 packet, and no other",
			entries: []*Entry{
				{Priority: 3, Match: &Match{IPProtoSet: true, IPProto: pkt.IPProtoUDP}},
				{Priority: 2, Match: &Match{IPProtoSet: true}},
			},
			tuples: 1,
			probes: []probe{
				{udp, 3},
				{&pkt.Key{EthType: pkt.EtherTypeIPv6, HasIPv6: true, IPProto: pkt.IPProtoUDP}, 3},
				{&pkt.Key{IPProto: pkt.IPProtoUDP}, -1},
				{arp, -1}, // ip_proto reads 0 in a packet that has none
			},
		},
		{
			name: "vlan_pcp on an untagged match answers nothing and is filed nowhere",
			entries: []*Entry{
				{Priority: 9, Match: &Match{VLAN: VLANAbsent, VLANPCPSet: true}},
			},
			probes: []probe{{udp, -1}, {vlanKey(1, 0), -1}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tbl := NewTable(0, nil)
			for _, e := range c.entries {
				if err := tbl.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if len(tbl.tuples) != c.tuples {
				t.Errorf("filed as %d tuples, want %d", len(tbl.tuples), c.tuples)
			}
			for _, p := range c.probes {
				got := -1
				if e := lookupBoth(t, tbl, p.key); e != nil {
					got = int(e.Priority)
				}
				if got != p.prio {
					t.Errorf("lookup %+v selected priority %d, want %d", *p.key, got, p.prio)
				}
			}
		})
	}
}

// TestIndexFollowsFlowMods: an added entry answers the very next
// lookup, a deleted one stops answering and uncovers what it shadowed.
func TestIndexFollowsFlowMods(t *testing.T) {
	tbl := NewTable(0, nil)
	for _, e := range translatorEntries(2) {
		_ = tbl.Add(e)
	}
	k := udpKey(99, hostA, hostB, ipA, ipB, 1, 2)
	if e := lookupBoth(t, tbl, k); e != nil {
		t.Fatalf("port 99 matched %v before any entry names it", e)
	}
	low := &Entry{Priority: 50, Match: &Match{InPortSet: true, InPort: 99}}
	high := &Entry{Priority: 60, Match: &Match{InPortSet: true, InPort: 99}}
	_ = tbl.Add(low)
	if e := lookupBoth(t, tbl, k); e != low {
		t.Fatalf("after add: %v", e)
	}
	_ = tbl.Add(high)
	if e := lookupBoth(t, tbl, k); e != high {
		t.Fatalf("after higher-priority add: %v", e)
	}
	tbl.Delete(high.Match, 60, true, openflow.PortAny)
	if e := lookupBoth(t, tbl, k); e != low {
		t.Fatalf("after deleting the shadowing entry: %v", e)
	}
}

// TestLookupTieBreakIsInstallOrder: of overlapping entries at one
// priority the first installed wins, whichever tuple holds it.
func TestLookupTieBreakIsInstallOrder(t *testing.T) {
	matches := []*Match{
		{InPortSet: true, InPort: 1},
		{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC},
		{EthTypeSet: true, EthType: pkt.EtherTypeIPv4},
	}
	k := udpKey(1, hostA, hostB, ipA, ipB, 1, 2)
	for i := 0; i < 200; i++ {
		tbl := NewTable(0, nil)
		var first *Entry
		for j := range matches {
			e := &Entry{Priority: 10, Match: matches[(i+j)%len(matches)]}
			if first == nil {
				first = e
			}
			_ = tbl.Add(e)
		}
		if got := tbl.Lookup(k, 64); got != first {
			t.Fatalf("table %d: %v won over the first installed %v", i, got, first)
		}
	}
}

// TestLookupDuringFlowMods: lookups from several goroutines while
// another adds, replaces and deletes — for the race detector, and every
// answer is an entry that matches.
func TestLookupDuringFlowMods(t *testing.T) {
	tbl := NewTable(0, nil)
	_ = tbl.Add(&Entry{Priority: 0, Match: &Match{}})
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := vlanKey(1, uint16(101+i%8))
				if e := tbl.Lookup(k, 64); e == nil || !e.Match.Matches(k) {
					t.Errorf("lookup %+v returned %v", *k, e)
					return
				}
				tbl.ConsultMask()
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		for _, e := range translatorEntries(8) {
			_ = tbl.Add(e)
		}
		tbl.Delete(&Match{InPortSet: true, InPort: 1}, 0, false, openflow.PortAny)
	}
	close(stop)
	wg.Wait()
}

// oracle drives one table through random flow-mods and lookups and
// holds everything observable to the reference scan.
type oracle struct {
	t   *testing.T
	rng *rand.Rand
	clk *netem.ManualClock
	tbl *Table

	lookups, matched uint64
	packets, bytes   map[*Entry]uint64
}

var (
	fuzzMACs = []pkt.MAC{hostA, hostB}
	fuzzIPs  = []pkt.IPv4{{10, 0, 0, 1}, {10, 0, 1, 1}, {10, 1, 0, 1}, {11, 0, 0, 1}}
	// Prefixes on and off byte boundaries, and two masks with holes.
	fuzzMasks = []pkt.IPv4{{255, 0, 0, 0}, {255, 255, 0, 0}, {255, 255, 240, 0}, {255, 255, 255, 0},
		{255, 255, 255, 240}, onesIPv4, {255, 0, 255, 0}, {0, 255, 0, 1}}
	fuzzMACMasks = []pkt.MAC{onesMAC, onesMAC, {0xff, 0xff, 0xff, 0, 0, 0}, {0, 0, 0, 0, 0, 0x0f}}
	fuzzPrios    = []uint16{0, 5, 10, 10, 10, 20}
)

func pick[T any](r *rand.Rand, from []T) T { return from[r.Intn(len(from))] }

// match draws a match from a small value space, so that entries overlap
// and keys hit: exact fields in any combination, prefix and holed masks
// on addresses and MACs, VLAN absent or exact (vlan_pcp with either: on
// absent it can match nothing), IPv6-shaped entries, and the match-all.
func (o *oracle) match() *Match {
	r, m := o.rng, &Match{}
	if r.Intn(8) == 0 {
		return m
	}
	if r.Intn(2) == 0 {
		m.InPortSet, m.InPort = true, uint32(1+r.Intn(3))
	}
	if r.Intn(3) == 0 {
		m.EthDstSet, m.EthDst, m.EthDstMask = true, pick(r, fuzzMACs), pick(r, fuzzMACMasks)
	}
	if r.Intn(4) == 0 {
		m.EthSrcSet, m.EthSrc, m.EthSrcMask = true, pick(r, fuzzMACs), pick(r, fuzzMACMasks)
	}
	switch r.Intn(4) {
	case 0:
		m.VLAN = VLANAbsent
	case 1:
		m.VLAN, m.VLANVID = VLANExact, uint16(10*(1+r.Intn(2)))
	}
	if m.VLAN != VLANAnyMode && r.Intn(4) == 0 {
		m.VLANPCPSet, m.VLANPCP = true, uint8(r.Intn(2))
	}
	switch r.Intn(5) {
	case 4: // IPv6: matched on ip_proto and ports only
		if r.Intn(2) == 0 {
			m.EthTypeSet, m.EthType = true, pkt.EtherTypeIPv6
		}
		m.IPProtoSet, m.IPProto = true, pkt.IPProtoUDP
		if r.Intn(2) == 0 {
			m.L4DstSet, m.L4Dst = true, uint16(53+r.Intn(2))
		}
	case 0: // IPv4, down to L4 or ICMP
		m.EthTypeSet, m.EthType = true, pkt.EtherTypeIPv4
		if r.Intn(2) == 0 {
			m.IPSrcSet, m.IPSrc, m.IPSrcMask = true, pick(r, fuzzIPs), pick(r, fuzzMasks)
		}
		if r.Intn(2) == 0 {
			m.IPDstSet, m.IPDst, m.IPDstMask = true, pick(r, fuzzIPs), pick(r, fuzzMasks)
		}
		switch r.Intn(4) {
		case 0:
			m.IPProtoSet, m.IPProto = true, pkt.IPProtoUDP
			if r.Intn(2) == 0 {
				m.L4DstSet, m.L4Dst = true, uint16(53+r.Intn(2))
			}
			if r.Intn(4) == 0 {
				m.L4SrcSet, m.L4Src = true, uint16(53+r.Intn(2))
			}
		case 1:
			m.IPProtoSet, m.IPProto = true, pkt.IPProtoICMP
			if r.Intn(2) == 0 {
				m.ICMPTypeSet, m.ICMPType = true, uint8(8*r.Intn(2))
			}
			if r.Intn(4) == 0 {
				m.ICMPCodeSet, m.ICMPCode = true, uint8(r.Intn(2))
			}
		}
	case 2: // a zero-valued field without its prerequisites: only the
		// packet's presence bits keep it from matching every packet
		// that lacks the header
		switch r.Intn(6) {
		case 0:
			m.IPProtoSet = true
		case 1:
			m.IPSrcSet, m.IPSrcMask = true, onesIPv4
		case 2:
			m.IPDstSet, m.IPDstMask = true, onesIPv4
		case 3:
			m.L4SrcSet = r.Intn(2) == 0
			m.L4DstSet = !m.L4SrcSet || r.Intn(2) == 0
		case 4:
			m.ICMPTypeSet = true
		case 5:
			m.ARPOpSet = true
		}
	case 1: // ARP
		m.EthTypeSet, m.EthType = true, pkt.EtherTypeARP
		if r.Intn(2) == 0 {
			m.ARPOpSet, m.ARPOp = true, uint16(1+r.Intn(2))
		}
		if r.Intn(4) == 0 {
			m.ARPTPASet, m.ARPTPA, m.ARPTPAMask = true, pick(r, fuzzIPs), pick(r, fuzzMasks)
		}
		if r.Intn(4) == 0 {
			m.ARPSPASet, m.ARPSPA, m.ARPSPAMask = true, pick(r, fuzzIPs), onesIPv4
		}
	}
	return m
}

// key draws a packet key from the same value space.
func (o *oracle) key() *pkt.Key {
	r := o.rng
	k := &pkt.Key{InPort: uint32(1 + r.Intn(3)), EthDst: pick(r, fuzzMACs), EthSrc: pick(r, fuzzMACs)}
	if r.Intn(2) == 0 {
		k.HasVLAN, k.VLANID, k.VLANPCP = true, uint16(10*(1+r.Intn(2))), uint8(r.Intn(2))
	}
	switch r.Intn(5) {
	case 0:
		k.EthType, k.HasARP, k.ARPOp = pkt.EtherTypeARP, true, uint16(1+r.Intn(2))
		k.ARPSPA, k.ARPTPA = pick(r, fuzzIPs), pick(r, fuzzIPs)
	case 1:
		k.EthType = 0x88cc // neither IP nor ARP
	case 2:
		k.EthType, k.HasIPv6, k.IPProto = pkt.EtherTypeIPv6, true, pkt.IPProtoUDP
		if r.Intn(3) != 0 {
			k.HasL4, k.L4Src, k.L4Dst = true, uint16(53+r.Intn(2)), uint16(53+r.Intn(2))
		}
	default:
		k.EthType, k.HasIPv4 = pkt.EtherTypeIPv4, true
		k.IPSrc, k.IPDst = pick(r, fuzzIPs), pick(r, fuzzIPs)
		if r.Intn(3) == 0 {
			k.IPProto, k.HasICMP, k.ICMPType, k.ICMPCode = pkt.IPProtoICMP, true, uint8(8*r.Intn(2)), uint8(r.Intn(2))
		} else {
			k.IPProto, k.HasL4, k.L4Src, k.L4Dst = pkt.IPProtoUDP, true, uint16(53+r.Intn(2)), uint16(53+r.Intn(2))
		}
	}
	return k
}

// step applies one random flow-mod or lets time pass.
func (o *oracle) step() {
	r, tbl := o.rng, o.tbl
	// Requests name an installed entry half the time, so strict
	// operations find something to act on.
	request := func() (*Match, uint16) {
		if es := tbl.Entries(); len(es) > 0 && r.Intn(2) == 0 {
			e := pick(r, es)
			return e.Match, e.Priority
		}
		return o.match(), pick(r, fuzzPrios)
	}
	switch n := r.Intn(21); {
	case n == 20:
		// One address under four prefix lengths at one priority, in a
		// random order: every key they share goes to the first installed.
		field, ip, prio := r.Intn(2), pick(r, fuzzIPs), pick(r, fuzzPrios)
		for _, i := range r.Perm(4) {
			m := &Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4}
			if field == 0 {
				m.IPSrcSet, m.IPSrc, m.IPSrcMask = true, ip, fuzzMasks[i]
			} else {
				m.IPDstSet, m.IPDst, m.IPDstMask = true, ip, fuzzMasks[i]
			}
			if err := tbl.Add(&Entry{Priority: prio, Match: m, Instructions: outputTo(uint32(1 + i))}); err != nil {
				o.t.Fatal(err)
			}
		}
	case n < 11:
		m, prio := request() // an installed pair replaces; else a fresh add
		if r.Intn(4) != 0 {
			m, prio = o.match(), pick(r, fuzzPrios)
		}
		e := &Entry{Priority: prio, Match: m, Instructions: outputTo(uint32(1 + r.Intn(3))),
			IdleTimeout: uint16(r.Intn(3)), HardTimeout: uint16(2 * r.Intn(3))}
		if err := tbl.Add(e); err != nil {
			o.t.Fatal(err)
		}
	case n < 13:
		m, prio := request()
		strict, instrs, before := r.Intn(2) == 0, outputTo(9), tbl.Entries()
		tbl.Modify(m, prio, strict, instrs)
		if !strict {
			o.judge(m, before, openflow.PortAny, func(e *Entry) bool { return &e.Instrs()[0] == &instrs[0] })
		}
	case n < 16:
		m, prio := request()
		outPort := uint32(openflow.PortAny)
		if r.Intn(3) == 0 {
			outPort = uint32(1 + r.Intn(3))
		}
		strict, before, gone := r.Intn(2) == 0, tbl.Entries(), map[*Entry]bool{}
		for _, rm := range tbl.Delete(m, prio, strict, outPort) {
			gone[rm.Entry] = true
		}
		if !strict {
			o.judge(m, before, outPort, func(e *Entry) bool { return gone[e] })
		}
	case n < 18:
		o.clk.Advance(time.Duration(r.Intn(1500)) * time.Millisecond)
		tbl.ExpireEntries()
	default:
		o.clk.Advance(time.Duration(r.Intn(700)) * time.Millisecond)
	}
}

// judge holds a non-strict flow-mod to what non-strict means, by a
// definition that shares nothing with coveredBy: whatever an entry it
// acted on matches, the request matches — no sampled key says otherwise —
// and an entry whose match is the request's own, or any entry under the
// match-all, is acted on (given it outputs to outPort). Both halves are
// sound whatever the sample holds; the sample only decides how much the
// first one sees.
func (o *oracle) judge(req *Match, before []*Entry, outPort uint32, acted func(*Entry) bool) {
	keys := make([]*pkt.Key, 256)
	for i := range keys {
		keys[i] = o.key()
	}
	for _, e := range before {
		if !acted(e) {
			if (e.Match.Equal(req) || *req == Match{}) && e.outputsTo(outPort) {
				o.t.Fatalf("non-strict %s spared %v", req, e)
			}
			continue
		}
		for _, k := range keys {
			if e.Match.Matches(k) && !req.Matches(k) {
				o.t.Fatalf("non-strict %s acted on %v, which it does not cover: %+v matches the entry only", req, e, *k)
			}
		}
	}
}

// check looks a few keys up and compares everything a caller can see
// with the scan's account of it.
func (o *oracle) check() {
	t, tbl := o.t, o.tbl
	for i := 0; i < 6; i++ {
		k, size := o.key(), 64+o.rng.Intn(1400)
		want := scan(tbl, k)
		if got := tbl.Lookup(k, size); got != want {
			t.Fatalf("lookup %+v:\n index: %v\n  scan: %v\ntable:\n%v", *k, got, want, tbl.Entries())
		}
		o.lookups++
		if want != nil {
			o.matched++
			o.packets[want]++
			o.bytes[want] += uint64(size)
			if want.Packets() != o.packets[want] || want.Bytes() != o.bytes[want] {
				t.Fatalf("%v counts %d pkts / %d bytes, want %d / %d",
					want, want.Packets(), want.Bytes(), o.packets[want], o.bytes[want])
			}
		}
	}
	if lookups, matched := tbl.Stats(); lookups != o.lookups || matched != o.matched {
		t.Fatalf("Stats = %d/%d, want %d/%d", lookups, matched, o.lookups, o.matched)
	}
	consult, indexed := shapeBits, 0
	for _, e := range tbl.Entries() {
		if c := compile(e.Match); !c.never {
			consult = consult.Or(&c.mask)
		}
	}
	for _, tp := range tbl.tuples {
		indexed += max(len(tp.entries), 1)
	}
	if got := *tbl.ConsultMask(); got != consult {
		t.Fatalf("ConsultMask = %x, want %x", got, consult)
	}
	if indexed > tbl.Len() {
		t.Fatalf("index holds %d entries of a table of %d", indexed, tbl.Len())
	}
}

// FuzzLookupMatchesScan: seed → a random table under a random
// interleaving of Add / Modify / Delete (strict, non-strict, out_port) /
// ExpireEntries on a manual clock. After every step the entry Lookup
// returns, Stats, the entry counters and ConsultMask are the reference
// scan's, and every non-strict flow-mod acted on what it covers.
func FuzzLookupMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		clk := netem.NewManualClock()
		o := &oracle{
			t: t, rng: rand.New(rand.NewSource(seed)), clk: clk, tbl: NewTable(0, clk),
			packets: map[*Entry]uint64{}, bytes: map[*Entry]uint64{},
		}
		for i := 0; i < 120; i++ {
			o.step()
			o.check()
		}
	})
}

// BenchmarkLookup times a hit in the middle of an N-rule table: exact
// rules (one tuple), /24 prefixes (one tuple: the same probe), exact
// rules under a few masked ones with a table-miss default (three), and
// the tuple space's worst case — every rule a mask of its own, all at
// one priority, so that no tuple is spared: N compares, what a scan
// costs. Rows are rules=N/<shape> so that benchdiff pairs the shapes of
// one N (masked must stay within 4x of exact, same run).
func BenchmarkLookup(b *testing.B) {
	exact := func(i int) *Match {
		return &Match{InPortSet: true, InPort: 1, VLAN: VLANExact, VLANVID: uint16(i%4094 + 1)}
	}
	masked := func(i int) *Match {
		return &Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4,
			IPDstSet: true, IPDst: pkt.IPv4{10, byte(i >> 8), byte(i), 0}, IPDstMask: pkt.IPv4{255, 255, 255, 0}}
	}
	// scattered rule i: the upper half of nw_dst names the rule, the lower
	// half is masked by a pattern no other rule uses.
	scattered := func(i int) *Match {
		m := &Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4, IPDstSet: true}
		binary.BigEndian.PutUint32(m.IPDst[:], uint32(0x0a00+i)<<16|0xffff)
		binary.BigEndian.PutUint32(m.IPDstMask[:], 0xffff0000|uint32(i+1))
		return m
	}
	shapes := []struct {
		name  string
		build func(tbl *Table, n int) *pkt.Key
	}{
		{"exact", func(tbl *Table, n int) *pkt.Key {
			for i := 0; i < n; i++ {
				_ = tbl.Add(&Entry{Priority: 100, Match: exact(i), Instructions: outputTo(2)})
			}
			return vlanKey(1, uint16(n/2%4094+1))
		}},
		{"masked", func(tbl *Table, n int) *pkt.Key {
			for i := 0; i < n; i++ {
				_ = tbl.Add(&Entry{Priority: 100, Match: masked(i), Instructions: outputTo(2)})
			}
			return udpKey(1, hostA, hostB, ipA, pkt.IPv4{10, byte(n / 2 >> 8), byte(n / 2), 9}, 1, 2)
		}},
		{"mixed", func(tbl *Table, n int) *pkt.Key {
			for i := 0; i < 4; i++ {
				_ = tbl.Add(&Entry{Priority: 200, Match: masked(100 + i), Instructions: outputTo(2)})
			}
			for i := 0; i < n; i++ {
				_ = tbl.Add(&Entry{Priority: 100, Match: exact(i), Instructions: outputTo(2)})
			}
			_ = tbl.Add(&Entry{Priority: 0, Match: &Match{}, Instructions: outputTo(openflow.PortController)})
			return vlanKey(1, uint16(n/2%4094+1))
		}},
		{"scattered", func(tbl *Table, n int) *pkt.Key {
			for i := 0; i < n; i++ {
				_ = tbl.Add(&Entry{Priority: 100, Match: scattered(i), Instructions: outputTo(2)})
			}
			return udpKey(1, hostA, hostB, ipA, scattered(n/2).IPDst, 1, 2)
		}},
	}
	for _, n := range []int{16, 256, 4096} {
		for _, shape := range shapes {
			b.Run(fmt.Sprintf("rules=%d/%s", n, shape.name), func(b *testing.B) {
				tbl := NewTable(0, nil)
				k := shape.build(tbl, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if e := tbl.Lookup(k, 64); e == nil {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}

// TestAddReplacesWhatItsTupleFiles covers what Add's probe of the tuple
// rests on: an entry with an equal match is filed at the new entry's
// value or shadowed there, so "something filed" sends Add to the scan
// that finds it, wherever it sits.
func TestAddReplacesWhatItsTupleFiles(t *testing.T) {
	k := udpKey(1, hostA, hostB, ipA, ipB, 1, 2)
	inPort := func() *Match { return &Match{InPortSet: true, InPort: 1} }

	t.Run("replace keeps scan position and resets counters", func(t *testing.T) {
		tbl := NewTable(0, nil)
		first := &Entry{Priority: 10, Match: inPort(), Instructions: outputTo(1)}
		others := []*Entry{
			{Priority: 10, Match: &Match{EthDstSet: true, EthDst: hostB, EthDstMask: onesMAC}},
			{Priority: 10, Match: &Match{EthTypeSet: true, EthType: pkt.EtherTypeIPv4}},
		}
		for _, e := range append([]*Entry{first}, others...) {
			_ = tbl.Add(e)
		}
		if got := tbl.Lookup(k, 64); got != first || first.Packets() != 1 {
			t.Fatalf("lookup = %v, %d packets; want the first installed, 1", got, first.Packets())
		}
		again := &Entry{Priority: 10, Match: inPort(), Instructions: outputTo(2)}
		_ = tbl.Add(again)
		if got := tbl.Entries(); len(got) != 3 || got[0] != again || got[1] != others[0] || got[2] != others[1] {
			t.Fatalf("entries after the replacement: %v", got)
		}
		if again.Packets() != 0 {
			t.Errorf("the replacement starts at %d packets", again.Packets())
		}
		if got := tbl.Lookup(k, 64); got != again {
			t.Errorf("lookup = %v, want the replacement in the first's place", got)
		}
	})

	t.Run("a shadowed entry is found and replaced", func(t *testing.T) {
		for _, prios := range [][2]uint16{{10, 5}, {5, 10}} {
			tbl := NewTable(0, nil)
			_ = tbl.Add(&Entry{Priority: prios[0], Match: inPort()})
			_ = tbl.Add(&Entry{Priority: prios[1], Match: inPort()})
			low := &Entry{Priority: 5, Match: inPort(), Instructions: outputTo(3)}
			_ = tbl.Add(low) // at 5: shadowed by the one at 10, in the same bucket
			got := tbl.Entries()
			if len(got) != 2 || got[1] != low || got[0].Priority != 10 {
				t.Fatalf("installed at %v then 5 again: entries %v", prios, got)
			}
			if hit := tbl.Lookup(k, 64); hit != got[0] {
				t.Errorf("lookup = %v, want the entry at priority 10", hit)
			}
			// With the shadowing entry gone the replacement is what answers.
			tbl.Delete(inPort(), 10, true, openflow.PortAny)
			if hit := tbl.Lookup(k, 64); hit != low {
				t.Errorf("lookup after the delete = %v, want the replacement", hit)
			}
		}
	})

	t.Run("a never-matching entry added twice is one entry", func(t *testing.T) {
		tbl := NewTable(0, nil)
		never := func() *Match { return &Match{VLAN: VLANAbsent, VLANPCPSet: true, VLANPCP: 3} }
		_ = tbl.Add(&Entry{Priority: 7, Match: never()})
		second := &Entry{Priority: 7, Match: never()}
		_ = tbl.Add(second)
		if got := tbl.Entries(); len(got) != 1 || got[0] != second {
			t.Fatalf("entries: %v", got)
		}
	})

	t.Run("new values are new entries", func(t *testing.T) {
		tbl := NewTable(0, nil)
		for i := uint32(1); i <= 100; i++ {
			_ = tbl.Add(&Entry{Priority: 10, Match: &Match{InPortSet: true, InPort: i}})
		}
		if tbl.Len() != 100 {
			t.Fatalf("Len = %d after 100 distinct matches", tbl.Len())
		}
	})
}

// BenchmarkAdd times OFPFC_ADD of a match the table does not hold — what
// every reactive flow set-up does — against tables already holding N
// entries at the same priority in the same tuple. Rows are new/at=N so
// that benchdiff pairs the sizes (at=4096 must stay within 4x of at=16,
// same run): the add probes its tuple and appends, it does not compare
// the new match with every entry. The table is cut back to N every 16
// adds, off the clock.
func BenchmarkAdd(b *testing.B) {
	const batch = 16
	for _, n := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("new/at=%d", n), func(b *testing.B) {
			tbl := NewTable(0, nil)
			for i := 0; i < n; i++ {
				_ = tbl.Add(&Entry{Priority: 100, Match: &Match{InPortSet: true, InPort: 1, VLAN: VLANExact, VLANVID: uint16(i)}})
			}
			fresh := &Match{InPortSet: true, InPort: 2} // covers the timed adds and no other
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := &Entry{Priority: 100, Match: &Match{InPortSet: true, InPort: 2, VLAN: VLANExact, VLANVID: uint16(i % batch)}}
				if err := tbl.Add(e); err != nil {
					b.Fatal(err)
				}
				if i%batch == batch-1 {
					b.StopTimer()
					if tbl.Delete(fresh, 0, false, openflow.PortAny); tbl.Len() != n {
						b.Fatalf("table holds %d entries, want %d", tbl.Len(), n)
					}
					b.StartTimer()
				}
			}
		})
	}
}
