package telemetry

import (
	"math/rand/v2"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// mkKey builds a distinct extracted packet key for flow i.
func mkKey(i int) pkt.Key {
	return pkt.Key{
		InPort:  1,
		EthSrc:  pkt.MAC{0x02, 0x10, 0, 0, byte(i >> 8), byte(i)},
		EthDst:  pkt.MAC{0x02, 0x20, 0, 0, byte(i >> 8), byte(i)},
		EthType: pkt.EtherTypeIPv4,
		HasIPv4: true,
		IPProto: pkt.IPProtoUDP,
		IPSrc:   pkt.IPv4{10, 1, byte(i >> 8), byte(i)},
		IPDst:   pkt.IPv4{10, 2, 0, 1},
		HasL4:   true,
		L4Src:   uint16(1024 + i),
		L4Dst:   80,
	}
}

// mkFlat is mkKey packed, as the datapath parses it.
func mkFlat(i int) pkt.FlatKey {
	k := mkKey(i)
	var f pkt.FlatKey
	k.FlatInto(&f)
	return f
}

// observe accounts one packet of size bytes: a batch of one.
func observe(tab *Table, k pkt.FlatKey, size int, out uint32, now int64) {
	tab.ObserveBatch([]pkt.FlatKey{k}, []bool{false}, [][]byte{make([]byte, size)}, []uint32{out}, now)
}

// drainRing empties the table's export ring, returning flow snapshots
// and samples separately.
func drainRing(t *Table) (flows, samples []Export) {
	for {
		e, ok := t.Ring().Pop()
		if !ok {
			return
		}
		if e.Kind == ExportSample {
			samples = append(samples, e)
		} else {
			flows = append(flows, e)
		}
	}
}

func TestKeyFromPacket(t *testing.T) {
	k := mkKey(3)
	fk := KeyFromPacket(&k)
	if fk.IPSrc != k.IPSrc || fk.L4Src != k.L4Src || fk.Proto != pkt.IPProtoUDP || fk.InPort != 1 {
		t.Fatalf("bad key mapping: %+v", fk)
	}
	icmp := pkt.Key{InPort: 2, EthType: pkt.EtherTypeIPv4, HasIPv4: true, IPProto: pkt.IPProtoICMP,
		HasICMP: true, ICMPType: 8, ICMPCode: 0}
	fi := KeyFromPacket(&icmp)
	if fi.L4Dst != 8<<8 {
		t.Fatalf("ICMP type/code not folded into L4Dst: %d", fi.L4Dst)
	}
}

func TestObserveAccounting(t *testing.T) {
	tab := NewTable(Config{})
	k := mkFlat(1)
	now := time.Now().UnixNano()
	observe(tab, k, 100, 2, now)
	observe(tab, k, 50, 2, now+1)
	snaps := tab.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("snapshot len = %d", len(snaps))
	}
	s := snaps[0]
	if s.Packets != 2 || s.Bytes != 150 || s.OutPort != 2 || s.First != now || s.Last != now+1 {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if c := tab.Counters(); c.FlowsCreated.Load() != 1 {
		t.Fatalf("FlowsCreated = %d", c.FlowsCreated.Load())
	}
}

func TestIdleExpiryAndRevival(t *testing.T) {
	tab := NewTable(Config{IdleTimeout: time.Second, SweepInterval: time.Millisecond})
	k := mkFlat(1)
	observe(tab, k, 64, 0, 1e9)
	// Idle for > IdleTimeout: the sweep exports a final record and
	// forgets the flow.
	tab.Sweep(3e9)
	flows, _ := drainRing(tab)
	if len(flows) != 1 || flows[0].EndReason != EndIdle || flows[0].Packets != 1 {
		t.Fatalf("idle export = %+v", flows)
	}
	if tab.Len() != 0 {
		t.Fatalf("table len = %d after idle expiry", tab.Len())
	}
	if tab.Counters().FlowsExpired.Load() != 1 {
		t.Fatal("FlowsExpired not counted")
	}
	// The flow's next packet starts a fresh record and window; nothing
	// is lost.
	observe(tab, k, 64, 0, 4e9)
	if tab.Len() != 1 {
		t.Fatal("flow not revived")
	}
	snaps := tab.Snapshot()
	if snaps[0].Packets != 1 || snaps[0].First != 4e9 {
		t.Fatalf("revived window wrong: %+v", snaps[0])
	}
}

func TestActiveTimeoutDelta(t *testing.T) {
	tab := NewTable(Config{ActiveTimeout: time.Second, IdleTimeout: time.Hour, SweepInterval: time.Millisecond})
	k := mkFlat(1)
	observe(tab, k, 100, 0, 1e9)
	observe(tab, k, 100, 0, 2e9)
	tab.Sweep(2_500_000_000) // window open 1.5s > active timeout
	flows, _ := drainRing(tab)
	if len(flows) != 1 || flows[0].EndReason != EndActive || flows[0].Packets != 2 || flows[0].Bytes != 200 {
		t.Fatalf("active export = %+v", flows)
	}
	if tab.Len() != 1 {
		t.Fatal("active export must keep the flow")
	}
	// Next window accumulates independently; totals add up.
	observe(tab, k, 100, 0, 3e9)
	tab.FlushAll(4e9)
	flows, _ = drainRing(tab)
	if len(flows) != 1 || flows[0].Packets != 1 || flows[0].First != 3e9 {
		t.Fatalf("second window = %+v", flows)
	}
}

func TestEvictionExportsVictim(t *testing.T) {
	tab := NewTable(Config{MaxFlows: 2})
	var total uint64
	for i := 0; i < 3; i++ {
		observe(tab, mkFlat(i), 64, 0, int64(i+1))
		total += 64
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d, want cap 2", tab.Len())
	}
	if tab.Counters().FlowsEvicted.Load() != 1 {
		t.Fatalf("FlowsEvicted = %d", tab.Counters().FlowsEvicted.Load())
	}
	// Exactness: exported + live == observed.
	flows, _ := drainRing(tab)
	var exported uint64
	for _, e := range flows {
		exported += e.Bytes
	}
	var live uint64
	for _, s := range tab.Snapshot() {
		live += s.Bytes
	}
	if exported+live != total {
		t.Fatalf("exported %d + live %d != observed %d", exported, live, total)
	}
}

func TestSampler(t *testing.T) {
	tab := NewTable(Config{SampleRate: 4})
	k := mkKey(1)
	for i := 0; i < 16; i++ {
		observe(tab, mkFlat(1), 64, 3, int64(i+1))
	}
	_, samples := drainRing(tab)
	if len(samples) != 4 {
		t.Fatalf("samples = %d, want 4 (1-in-4 of 16)", len(samples))
	}
	if samples[0].Packets != 1 || samples[0].Bytes != 64 || samples[0].Key != KeyFromPacket(&k) {
		t.Fatalf("bad sample: %+v", samples[0])
	}
	if tab.Counters().SamplesQueued.Load() != 4 {
		t.Fatal("SamplesQueued miscounted")
	}
}

func TestRingOverflowCounted(t *testing.T) {
	tab := NewTable(Config{RingSize: 2})
	for i := 0; i < 8; i++ {
		observe(tab, mkFlat(i), 64, 0, int64(i+1))
	}
	tab.FlushAll(100)
	c := tab.Counters()
	if got := c.RecordsQueued.Load(); got != 2 {
		t.Fatalf("RecordsQueued = %d, want 2 (ring cap)", got)
	}
	if got := c.RecordsLost.Load(); got != 6 {
		t.Fatalf("RecordsLost = %d, want 6", got)
	}
}

func TestSnapshotTopTalkersOrder(t *testing.T) {
	tab := NewTable(Config{Shards: 4})
	for i := 0; i < 8; i++ {
		observe(tab, mkFlat(i), 64*(i+1), 0, int64(i+1))
	}
	snaps := tab.Snapshot()
	if len(snaps) != 8 {
		t.Fatalf("len = %d", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Bytes > snaps[i-1].Bytes {
			t.Fatalf("snapshot not sorted by bytes desc at %d", i)
		}
	}
}

func TestObserveBatchMultiShard(t *testing.T) {
	tab := NewTable(Config{Shards: 4})
	const n = 64
	frames := make([][]byte, n)
	keys := make([]pkt.FlatKey, n)
	skip := make([]bool, n)
	outs := make([]uint32, n)
	for i := 0; i < n; i++ {
		frames[i] = make([]byte, 60+i)
		keys[i] = mkFlat(i % 8)
		outs[i] = 2
	}
	// An unclassified frame must be skipped.
	skip[5] = true
	tab.ObserveBatch(keys, skip, frames, outs, 1e9)
	var pkts, bytes uint64
	for _, s := range tab.Snapshot() {
		pkts += s.Packets
		bytes += s.Bytes
	}
	var want uint64
	for i := 0; i < n; i++ {
		if i == 5 {
			continue
		}
		want += uint64(60 + i)
	}
	if pkts != n-1 || bytes != want {
		t.Fatalf("pkts=%d bytes=%d, want %d/%d", pkts, bytes, n-1, want)
	}
}

// TestOneFlowOneRecordAcrossShards: frames of one flow that differ only
// outside pkt.FlowMask — ARP requests from one host for eight different
// targets, as a pinging host sends them — land in one shard and one
// record, however many shards the table has.
func TestOneFlowOneRecordAcrossShards(t *testing.T) {
	tab := NewTable(Config{Shards: 4})
	src, ip := pkt.MAC{2, 0, 0, 0, 0, 1}, pkt.IPv4{10, 0, 0, 1}
	const n = 8
	keys := make([]pkt.FlatKey, n)
	frames := make([][]byte, n)
	for i := range frames {
		b, err := pkt.Serialize(
			&pkt.Ethernet{Src: src, Dst: pkt.BroadcastMAC, EtherType: pkt.EtherTypeARP},
			&pkt.ARP{Op: 1, SenderHW: src, SenderIP: ip, TargetIP: pkt.IPv4{10, 0, 0, byte(2 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		if err := pkt.ExtractFlat(b, 1, &keys[i]); err != nil {
			t.Fatal(err)
		}
		frames[i] = b
	}
	tab.ObserveBatch(keys, make([]bool, n), frames, make([]uint32, n), 1)
	if got := tab.Counters().FlowsCreated.Load(); got != 1 || tab.Len() != 1 {
		t.Fatalf("one ARP flow opened %d records (%d live), want 1", got, tab.Len())
	}
	tab.FlushAll(2)
	if flows, _ := drainRing(tab); len(flows) != 1 || flows[0].Packets != n {
		t.Fatalf("flushed %+v, want one record of %d packets", flows, n)
	}
}

// TestSamplesLeaveRoomForRecords: samples fill at most half the drain
// ring, so a flow's final record still finds room when every packet is
// sampled and nothing drains the ring.
func TestSamplesLeaveRoomForRecords(t *testing.T) {
	tab := NewTable(Config{RingSize: 8, SampleRate: 1})
	for i := 0; i < 16; i++ {
		observe(tab, mkFlat(1), 64, 2, int64(i+1))
	}
	tab.FlushAll(100)
	c := tab.Counters()
	if c.RecordsLost.Load() != 0 || c.RecordsQueued.Load() != 1 {
		t.Fatalf("RecordsQueued=%d RecordsLost=%d, want 1 and 0", c.RecordsQueued.Load(), c.RecordsLost.Load())
	}
	if q, l := c.SamplesQueued.Load(), c.SamplesLost.Load(); q != 4 || l != 12 {
		t.Fatalf("SamplesQueued=%d SamplesLost=%d, want 4 (half the ring) and 12", q, l)
	}
}

// TestConcurrentObserveFlushSnapshot exercises the shard mutexes under
// the race detector: observers on distinct flows, a flusher, and a
// snapshotter all running concurrently.
func TestConcurrentObserveFlushSnapshot(t *testing.T) {
	iters := 2000
	if testing.Short() {
		iters = 200
	}
	tab := NewTable(Config{Shards: 4, SampleRate: 8, RingSize: 1 << 16})
	done := make(chan uint64)
	for g := 0; g < 4; g++ {
		go func(g int) {
			var sent uint64
			for i := 0; i < iters; i++ {
				observe(tab, mkFlat(g*16+i%16), 64, 0, int64(i+1))
				sent++
			}
			done <- sent
		}(g)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				tab.FlushAll(50)
				tab.Snapshot()
				tab.Sweep(60)
			}
		}
	}()
	var total uint64
	for g := 0; g < 4; g++ {
		total += <-done
	}
	close(stop)
	tab.FlushAll(100)
	flows, _ := drainRing(tab)
	var exported uint64
	for _, e := range flows {
		exported += e.Packets
	}
	lost := tab.Counters().RecordsLost.Load()
	if lost != 0 {
		t.Fatalf("ring overflow (%d lost) — ring sized too small for the test", lost)
	}
	if exported != total {
		t.Fatalf("exported %d packets, observed %d", exported, total)
	}
}

// TestObserveBatchEvictsWithinBatch: a burst that alternates two flows
// through a one-record shard evicts on every change of flow, inside the
// batch's one lock hold, and every eviction exports the victim's window
// first — per-flow totals stay exact and one record stays live.
func TestObserveBatchEvictsWithinBatch(t *testing.T) {
	tab := NewTable(Config{MaxFlows: 1, RingSize: 256})
	const n = 64
	frames := make([][]byte, n)
	keys := make([]pkt.FlatKey, n)
	skip := make([]bool, n)
	outs := make([]uint32, n)
	flowKeys := [2]FlowKey{}
	for f := range flowKeys {
		k := mkKey(f)
		flowKeys[f] = KeyFromPacket(&k)
	}
	skip[7] = true
	var wantPkts, wantBytes [2]uint64
	changes, last := uint64(0), -1
	for i := 0; i < n; i++ {
		frames[i] = make([]byte, 60+i)
		keys[i] = mkFlat(i % 2)
		if skip[i] {
			continue
		}
		wantPkts[i%2]++
		wantBytes[i%2] += uint64(60 + i)
		if last >= 0 && last != i%2 {
			changes++
		}
		last = i % 2
	}
	tab.ObserveBatch(keys, skip, frames, outs, 1e9)
	// Frame 7 is skipped, so its neighbours (both flow 0) are one run.
	if got := tab.Counters().FlowsEvicted.Load(); got != changes {
		t.Fatalf("FlowsEvicted = %d, want %d (one per change of flow)", got, changes)
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d, want 1", tab.Len())
	}
	tab.FlushAll(2e9)
	flows, _ := drainRing(tab)
	var pkts, bytes [2]uint64
	for _, e := range flows {
		for f, fk := range flowKeys {
			if e.Key == fk {
				pkts[f] += e.Packets
				bytes[f] += e.Bytes
			}
		}
	}
	if pkts != wantPkts || bytes != wantBytes {
		t.Fatalf("exported packets %v bytes %v, want %v / %v", pkts, bytes, wantPkts, wantBytes)
	}
	if lost := tab.Counters().RecordsLost.Load(); lost != 0 {
		t.Fatalf("%d records lost", lost)
	}
}

// TestFlushWhereSelective flushes only the matching flows.
func TestFlushWhereSelective(t *testing.T) {
	tab := NewTable(Config{})
	for i := 0; i < 4; i++ {
		observe(tab, mkFlat(i), 64, 0, int64(i+1))
	}
	tab.FlushWhere(func(f *pkt.FlatKey) bool { return *f == mkFlat(1) }, 10)
	flows, _ := drainRing(tab)
	if len(flows) != 1 || flows[0].Key.L4Src != 1025 {
		t.Fatalf("selective flush exported %+v", flows)
	}
	if tab.Len() != 3 {
		t.Fatalf("live flows = %d, want 3 untouched", tab.Len())
	}
}

// TestFlowMaskIsFlowKey: two parsed keys agree under pkt.FlowMask exactly
// when their FlowKeys are equal, so the record maps hold one record per
// FlowKey. The named frames pair up what KeyFromPacket drops (VLAN PCP,
// a VID-0 tag, the ARP fields); the random ones draw each field from two
// values, so pairs of one shape agree in some fields and differ in others.
func TestFlowMaskIsFlowKey(t *testing.T) {
	macs := [2]pkt.MAC{{2, 0, 0, 0, 0, 1}, {2, 0, 0, 0, 0, 2}}
	ips := [2]pkt.IPv4{{10, 0, 0, 1}, {10, 0, 0, 2}}
	eth := func(et uint16) *pkt.Ethernet { return &pkt.Ethernet{Src: macs[0], Dst: macs[1], EtherType: et} }
	ip := func(proto uint8) *pkt.IPv4Header {
		return &pkt.IPv4Header{TTL: 64, Protocol: proto, Src: ips[0], Dst: ips[1]}
	}
	udp := func() *pkt.UDP { return &pkt.UDP{SrcPort: 5000, DstPort: 80} }
	tag := func(pcp uint8, vid uint16) *pkt.Dot1Q {
		return &pkt.Dot1Q{Priority: pcp, VLANID: vid, EtherType: pkt.EtherTypeIPv4}
	}
	arp := func(op uint16) *pkt.ARP {
		return &pkt.ARP{Op: op, SenderHW: macs[0], SenderIP: ips[0], TargetIP: ips[1]}
	}
	named := [][]pkt.SerializableLayer{
		{eth(pkt.EtherTypeIPv4), ip(pkt.IPProtoUDP), udp()},
		{eth(pkt.EtherTypeIPv4), ip(pkt.IPProtoICMP), &pkt.ICMPv4{Type: 8}},
		{eth(pkt.EtherTypeIPv4), ip(pkt.IPProtoICMP), &pkt.ICMPv4{Type: 0}},
		{eth(pkt.EtherTypeDot1Q), tag(0, 7), ip(pkt.IPProtoUDP), udp()},
		{eth(pkt.EtherTypeDot1Q), tag(3, 7), ip(pkt.IPProtoUDP), udp()},
		{eth(pkt.EtherTypeDot1Q), tag(3, 0), ip(pkt.IPProtoUDP), udp()},
		{eth(pkt.EtherTypeARP), arp(1)},
		{eth(pkt.EtherTypeARP), arp(2)},
	}
	r := rand.New(rand.NewPCG(7, 32))
	pick := func() int { return r.IntN(2) }
	random := make([][]pkt.SerializableLayer, 300)
	ports := make([]uint32, len(random))
	for i := range random {
		ports[i] = uint32(1 + pick())
		et := [...]uint16{pkt.EtherTypeIPv4, pkt.EtherTypeARP, 0x88cc}[r.IntN(3)]
		e := &pkt.Ethernet{Src: macs[pick()], Dst: macs[pick()], EtherType: et}
		ls := []pkt.SerializableLayer{e}
		if pick() == 0 {
			e.EtherType = pkt.EtherTypeDot1Q
			ls = append(ls, &pkt.Dot1Q{Priority: uint8(pick()), VLANID: uint16(pick()), EtherType: et})
		}
		switch et {
		case pkt.EtherTypeIPv4:
			proto := [...]uint8{pkt.IPProtoUDP, pkt.IPProtoTCP, pkt.IPProtoICMP}[r.IntN(3)]
			ls = append(ls, &pkt.IPv4Header{TTL: 64, Protocol: proto, Src: ips[pick()], Dst: ips[pick()]})
			switch proto {
			case pkt.IPProtoUDP:
				ls = append(ls, &pkt.UDP{SrcPort: uint16(pick()), DstPort: uint16(pick())})
			case pkt.IPProtoTCP:
				ls = append(ls, &pkt.TCP{SrcPort: uint16(pick()), DstPort: uint16(pick())})
			default:
				ls = append(ls, &pkt.ICMPv4{Type: uint8(pick()), Code: uint8(pick())})
			}
		case pkt.EtherTypeARP:
			ls = append(ls, &pkt.ARP{Op: uint16(1 + pick()), SenderHW: macs[pick()],
				SenderIP: ips[pick()], TargetIP: ips[pick()]})
		}
		random[i] = ls
	}
	// agreeing counts the pairs of frames whose FlowKeys are equal, and
	// fails on any pair where that and agreement under pkt.FlowMask differ.
	agreeing := func(frames [][]pkt.SerializableLayer, ports []uint32) int {
		masked := make([]pkt.FlatKey, len(frames))
		fks := make([]FlowKey, len(frames))
		for i, ls := range frames {
			b, err := pkt.Serialize(ls...)
			if err != nil {
				t.Fatal(err)
			}
			var f pkt.FlatKey
			if err := pkt.ExtractFlat(b, ports[i], &f); err != nil {
				t.Fatal(err)
			}
			var k pkt.Key
			f.Unpack(&k)
			masked[i], fks[i] = f.And(&pkt.FlowMask), KeyFromPacket(&k)
		}
		n := 0
		for i := range frames {
			for j := i + 1; j < len(frames); j++ {
				if same := fks[i] == fks[j]; same != (masked[i] == masked[j]) {
					t.Fatalf("frames %d and %d: FlowKeys equal %v, masked keys equal %v\n %+v\n %+v",
						i, j, same, !same, fks[i], fks[j])
				} else if same {
					n++
				}
			}
		}
		return n
	}
	// The named pairs that agree: the two VID-7 tags, untagged vs
	// VID-0-tagged UDP and the two ARPs.
	if n := agreeing(named, make([]uint32, len(named))); n != 3 {
		t.Fatalf("%d named pairs share a FlowKey, want 3", n)
	}
	if n := agreeing(random, ports); n == 0 {
		t.Fatal("no two random frames share a FlowKey: the draw tests nothing")
	}
}
