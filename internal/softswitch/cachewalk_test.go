package softswitch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// The differential oracle for the flow cache and the burst machinery
// around it: cached and batched ≡ the uncached per-frame walk. A seed
// makes a small random pipeline and 512 flows; the same traffic,
// flow-mods, group-mods and expiry sweeps then run through a switch
// with the cache, in vectors, and a twin without, frame by frame, and
// after every step everything the cache, the run memo, the per-burst
// credit and the per-run replay must not change has to agree: counters,
// and the frames each port sent, byte for byte and in order. The
// programs rewrite frames and the streams repeat flows back to back, so
// runs form, get cut by the vector's end and lose frames from their
// middle. Each twin feeds a telemetry table
// of its own, and what the two export per flow has to agree as well, and
// add up to the frames sent.

const (
	walkTables = 4
	walkFlows  = 512
	walkGroup  = 1
	walkMeter  = 1

	// Flows with an entry of their own at the top of table 0 (the random
	// entries stay below priority 100), told apart by UDP destination
	// port: one every step sends runs of, whose 5 s idle timeout must
	// therefore never fire; one whose entry meters, so that its runs are
	// cut where the meter runs dry; and ten that together credit more
	// distinct entries in a burst than the credit accumulator has slots.
	walkBusyPort   = 9999
	walkMeterPort  = 9998
	walkSpreadPort = 7000
	walkSpread     = 10
	walkBusyCookie = 0xb5
)

var (
	walkInPorts  = []uint32{1, 2}
	walkOutPorts = []uint32{10, 11, 12}
	walkMACs     = []pkt.MAC{macA, macB, {0x02, 0, 0, 0, 0, 0x0c}, {0x02, 0, 0, 0, 0, 0x0d}}
	walkDports   = []uint16{53, 80, 443, 8080}
)

// walkIP draws an address from a pool small enough that random prefixes
// of it catch some flows and miss others.
func walkIP(rng *rand.Rand) pkt.IPv4 {
	return pkt.IPv4{10, byte(rng.Intn(2)), byte(rng.Intn(3)), byte(1 + rng.Intn(6))}
}

// walkMatch draws a match over a random subset of the fields the flows
// vary in, prefixes from /8 to /32, /20 and /28 among them.
func walkMatch(rng *rand.Rand) openflow.Match {
	var m openflow.Match
	if rng.Intn(3) == 0 {
		m.WithInPort(walkInPorts[rng.Intn(len(walkInPorts))])
	}
	if rng.Intn(4) == 0 {
		m.WithEthDst(walkMACs[rng.Intn(len(walkMACs))])
	}
	prefix := func() (mask pkt.IPv4) {
		bits := []int{8, 16, 20, 24, 28, 32}[rng.Intn(6)]
		binary.BigEndian.PutUint32(mask[:], ^uint32(0)<<(32-bits))
		return mask
	}
	l3 := rng.Intn(2) == 0
	if l3 {
		m.WithEthType(pkt.EtherTypeIPv4)
		if rng.Intn(2) == 0 {
			m.WithIPv4DstMasked(walkIP(rng), prefix())
		}
		if rng.Intn(3) == 0 {
			m.WithIPv4SrcMasked(walkIP(rng), prefix())
		}
		if rng.Intn(3) == 0 {
			m.WithIPProto(pkt.IPProtoUDP).WithUDPDst(walkDports[rng.Intn(len(walkDports))])
		}
	}
	return m
}

// walkRewrites draws the frame-local rewrites an action list makes
// before its output, none half the time: VLAN push and pop, set-field on
// eth_dst, vlan_vid and ipv4_dst, and dec-TTL. Some drop the frame they
// meet — a pop or a vlan_vid set on an untagged frame, a dec-TTL on TTL
// 1 — and a push grows it, so that a credit further on sees other bytes.
func walkRewrites(rng *rand.Rand) []openflow.Action {
	if rng.Intn(2) == 0 {
		return nil
	}
	acts := make([]openflow.Action, 1+rng.Intn(3))
	for i := range acts {
		switch rng.Intn(6) {
		case 0:
			acts[i] = &openflow.ActionPushVLAN{EtherType: pkt.EtherTypeDot1Q}
		case 1:
			acts[i] = &openflow.ActionPopVLAN{}
		case 2:
			mac := walkMACs[rng.Intn(len(walkMACs))]
			acts[i] = &openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMEthDst, Value: mac[:]}}
		case 3:
			vid := openflow.OXMVIDPresent | uint16(1+rng.Intn(4094))
			acts[i] = &openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMVLANVID, Value: []byte{byte(vid >> 8), byte(vid)}}}
		case 4:
			ip := walkIP(rng)
			acts[i] = &openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMIPv4Dst, Value: ip[:]}}
		default:
			acts[i] = &openflow.ActionDecNwTTL{}
		}
	}
	return acts
}

// walkInstrs draws what an entry of the given table does: maybe a meter,
// then either a goto further down the pipeline (maybe after rewrites,
// with or without a written output) or a terminal action — a port after
// rewrites, the SELECT group, the controller, or nothing at all.
func walkInstrs(rng *rand.Rand, table uint8) []openflow.Instruction {
	var instrs []openflow.Instruction
	if rng.Intn(8) == 0 {
		instrs = append(instrs, &openflow.InstrMeter{MeterID: walkMeter})
	}
	port := out(walkOutPorts[rng.Intn(len(walkOutPorts))])
	if table < walkTables-1 && rng.Intn(2) == 0 {
		if acts := walkRewrites(rng); len(acts) > 0 {
			instrs = append(instrs, apply(acts...))
		}
		if rng.Intn(3) == 0 {
			instrs = append(instrs, &openflow.InstrWriteActions{Actions: append(walkRewrites(rng), port)})
		}
		next := table + 1 + uint8(rng.Intn(int(walkTables-1-table)))
		return append(instrs, &openflow.InstrGotoTable{TableID: next})
	}
	switch rng.Intn(8) {
	case 0:
		return instrs // drop
	case 1:
		return append(instrs, apply(&openflow.ActionGroup{GroupID: walkGroup}))
	case 2:
		return append(instrs, apply(&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 64}))
	}
	return append(instrs, apply(append(walkRewrites(rng), port)...))
}

func walkAdd(rng *rand.Rand) *openflow.FlowMod {
	table := uint8(rng.Intn(walkTables))
	fm := flowMod(openflow.FlowAdd, table, uint16(rng.Intn(100)), walkMatch(rng), walkInstrs(rng, table)...)
	fm.IdleTimeout = []uint16{0, 0, 3, 10}[rng.Intn(4)]
	fm.HardTimeout = []uint16{0, 0, 0, 20}[rng.Intn(4)]
	return fm
}

func walkGroupMod(rng *rand.Rand, cmd uint16) *openflow.GroupMod {
	gm := &openflow.GroupMod{Command: cmd, GroupType: openflow.GroupTypeSelect, GroupID: walkGroup}
	for i := 0; i < 1+rng.Intn(3); i++ {
		gm.Buckets = append(gm.Buckets, openflow.Bucket{
			Weight: 1, Actions: []openflow.Action{out(walkOutPorts[rng.Intn(len(walkOutPorts))])},
		})
	}
	return gm
}

// walkFixed returns the flow-adds of the fixed entries.
func walkFixed() []*openflow.FlowMod {
	udpDst := func(port uint16) openflow.Match {
		var m openflow.Match
		m.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(port)
		return m
	}
	busy := flowMod(openflow.FlowAdd, 0, 300, udpDst(walkBusyPort), apply(out(walkOutPorts[0])))
	busy.IdleTimeout, busy.Cookie, busy.Flags = 5, walkBusyCookie, openflow.FlowFlagSendFlowRem
	fms := []*openflow.FlowMod{busy, flowMod(openflow.FlowAdd, 0, 299, udpDst(walkMeterPort),
		&openflow.InstrMeter{MeterID: walkMeter}, apply(out(walkOutPorts[1])))}
	for i := 0; i < walkSpread; i++ {
		fms = append(fms, flowMod(openflow.FlowAdd, 0, uint16(200+i), udpDst(uint16(walkSpreadPort+i)),
			apply(out(walkOutPorts[i%len(walkOutPorts)]))))
	}
	return fms
}

// creditOrder holds a switch to "counters before frames": whenever an
// egress vector of a dispatch is delivered, table 0 — which every frame
// that leaves has matched — has been credited with at least the frames
// the dispatch has delivered so far.
type creditOrder struct {
	t         *testing.T
	sw        *Switch
	matched   uint64 // table 0's matched count when the dispatch began
	delivered uint64 // frames the dispatch has delivered
}

func (o *creditOrder) arm() {
	_, o.matched = o.sw.Table(0).Stats()
	o.delivered = 0
}

// deliver checks one egress vector of n frames against the credits.
func (o *creditOrder) deliver(n int) {
	o.delivered += uint64(n)
	if _, matched := o.sw.Table(0).Stats(); matched-o.matched < o.delivered {
		o.t.Errorf("%d frames of a dispatch delivered with only %d credited to table 0", o.delivered, matched-o.matched)
	}
}

// walkPort is an output port of a twin: it holds each delivery to the
// twin's creditOrder and keeps the frames, in the order they left.
type walkPort struct {
	order  *creditOrder
	frames [][]byte
}

func (p *walkPort) TransmitBatch(frames [][]byte) {
	p.order.deliver(len(frames))
	p.frames = append(p.frames, frames...)
}

// walkSwitch builds one of the two twins on the shared clock, with an
// agent (no controller attached) so packet-ins are counted as such.
func walkSwitch(t *testing.T, clk netem.Clock, opts ...Option) (*Switch, *creditOrder, map[uint32]*walkPort) {
	sw := New("walk", 0xd1ff, append(opts, WithClock(clk), WithNumTables(walkTables))...)
	order := &creditOrder{t: t, sw: sw}
	ports := make(map[uint32]*walkPort)
	for _, p := range walkOutPorts {
		ports[p] = &walkPort{order: order}
		sw.AttachPort(p, "out", ports[p])
	}
	t.Cleanup(sw.NewAgent(controlplane.Config{}, 0).Stop)
	return sw, order, ports
}

// walkSnapshot flattens what the cache must leave exactly as a walk
// would: egress per port, drops, packet-ins, table and entry counters.
func walkSnapshot(sw *Switch) map[string]uint64 {
	snap := map[string]uint64{"drops": sw.Drops(), "pktins": sw.PacketIns()}
	for _, p := range walkOutPorts {
		c := sw.PortCounters(p)
		snap[fmt.Sprintf("port%d.txp", p)] = c.TxPackets.Load()
		snap[fmt.Sprintf("port%d.txb", p)] = c.TxBytes.Load()
	}
	for _, ts := range sw.TableStats() {
		snap[fmt.Sprintf("table%d.len", ts.TableID)] = uint64(ts.ActiveCount)
		snap[fmt.Sprintf("table%d.lookups", ts.TableID)] = ts.LookupCount
		snap[fmt.Sprintf("table%d.matched", ts.TableID)] = ts.MatchedCount
	}
	for i, fs := range sw.FlowStats(openflow.TableAll) {
		snap[fmt.Sprintf("flow%d.pkts", i)] = fs.PacketCount
		snap[fmt.Sprintf("flow%d.bytes", i)] = fs.ByteCount
	}
	return snap
}

// walkExports is what a telemetry table has exported per flow: packets
// and bytes.
type walkExports map[telemetry.FlowKey][2]uint64

// drain adds everything on tab's export ring to the totals.
func (x walkExports) drain(tab *telemetry.Table) {
	for e, ok := tab.Ring().Pop(); ok; e, ok = tab.Ring().Pop() {
		v := x[e.Key]
		x[e.Key] = [2]uint64{v[0] + e.Packets, v[1] + e.Bytes}
	}
}

// runCacheWalk plays one seed at one batch size and returns how many
// mask classes the cached twin ended up with and how often it hit.
func runCacheWalk(t *testing.T, seed int64, batch int) (classes int, hits uint64) {
	rng := rand.New(rand.NewSource(seed))
	clk := netem.NewManualClock()
	cacheSize := DefaultFlowCacheSize
	if seed%3 == 0 {
		cacheSize = 16 // capacity evictions in the mix
	}
	telC, telP := telemetry.NewTable(telemetry.Config{}), telemetry.NewTable(telemetry.Config{})
	exportsC, exportsP := walkExports{}, walkExports{}
	cached, order, egressC := walkSwitch(t, clk, WithFlowCacheSize(cacheSize))
	plain, _, egressP := walkSwitch(t, clk, WithFlowCacheSize(0))
	cached.SetTelemetry(telC)
	plain.SetTelemetry(telP)
	both := func(apply func(sw *Switch) error) {
		t.Helper()
		errC, errP := apply(cached), apply(plain)
		if (errC == nil) != (errP == nil) {
			t.Fatalf("seed %d: control operation diverged: cached %v, uncached %v", seed, errC, errP)
		}
	}
	flowModBoth := func(fm *openflow.FlowMod) {
		both(func(sw *Switch) error { _, err := sw.ApplyFlowMod(fm); return err })
	}

	both(func(sw *Switch) error {
		return sw.Meters().Apply(&openflow.MeterMod{
			Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: walkMeter,
			Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 40, BurstSize: 40}},
		})
	})
	gm := walkGroupMod(rng, openflow.GroupAdd)
	both(func(sw *Switch) error { return sw.Groups().Apply(gm) })
	for i := 0; i < 12; i++ {
		flowModBoth(walkAdd(rng))
	}
	for table := uint8(0); table < walkTables; table++ {
		if rng.Intn(4) != 0 { // most tables get a default; the rest table-miss
			flowModBoth(flowMod(openflow.FlowAdd, table, 0, openflow.Match{}, walkInstrs(rng, table)...))
		}
	}
	fixed := walkFixed()
	for _, fm := range fixed {
		flowModBoth(fm)
	}

	type flow struct {
		inPort uint32
		frame  []byte
	}
	newFlow := func(dport uint16) []byte {
		return udpFrame(t, walkMACs[rng.Intn(len(walkMACs))], walkMACs[rng.Intn(len(walkMACs))],
			walkIP(rng), walkIP(rng), uint16(1024+rng.Intn(4096)), dport, string(make([]byte, rng.Intn(100))))
	}
	flows := make([]flow, walkFlows)
	for i := range flows {
		flows[i] = flow{inPort: walkInPorts[i%len(walkInPorts)], frame: newFlow(walkDports[rng.Intn(len(walkDports))])}
		if i%3 == 0 { // a third of the flows tagged, for the pops and vlan_vid sets to act on
			tagged, err := pkt.PushVLAN(flows[i].frame, pkt.EtherTypeDot1Q, uint16(1+i%4))
			if err != nil {
				t.Fatal(err)
			}
			flows[i].frame = tagged
		}
	}
	busy, metered := newFlow(walkBusyPort), newFlow(walkMeterPort)
	spread := make([][]byte, walkSpread)
	for i := range spread {
		spread[i] = newFlow(uint16(walkSpreadPort + i))
	}

	// stream draws the n frames of one step, all for one in-port: the
	// window's flows, each repeated 1–8 times back to back, between runs
	// of 2–32 frames — of the busy flow (first and last, so that every
	// control operation lands between two bursts of one run), of the
	// metered flow, of one flow of the window, of flows differing only in
	// the UDP source port, which no entry matches on, so that every class
	// projects them alike — and the ten spread flows back to back. Every
	// frame is a copy of its own, and one in eight carries TTL 1, which no
	// key holds: a dec-TTL drops it from the middle of its run. (Its
	// header checksum goes stale; nothing on the path checks it.)
	stream := func(n, window, parity int) [][]byte {
		var frames [][]byte
		run := func(f []byte, vary bool) {
			for i := 2 + rng.Intn(31); i > 0; i-- {
				f = append([]byte(nil), f...)
				if vary {
					f[pkt.EthernetHeaderLen+pkt.IPv4MinHeaderLen+1]++ // UDP source port
				}
				frames = append(frames, f)
			}
		}
		run(busy, false)
		for len(frames) < n {
			f := flows[(window+rng.Intn(32)*len(walkInPorts))+parity].frame
			switch rng.Intn(12) {
			case 0:
				run(busy, false)
			case 1:
				run(metered, false)
			case 2:
				run(f, false)
			case 3:
				run(f, true)
			case 4:
				frames = append(frames, spread...)
			default:
				for i := 1 + rng.Intn(8); i > 0; i-- {
					frames = append(frames, f)
				}
			}
		}
		run(busy, false)
		for i, f := range frames {
			frames[i] = append([]byte(nil), f...)
			if rng.Intn(8) == 0 {
				frames[i][pkt.EthernetHeaderLen+8] = 1 // IPv4 TTL
			}
		}
		return frames
	}

	var sent, sentBytes uint64
	for step := 0; step < 40; step++ {
		switch rng.Intn(10) {
		case 0, 1:
			flowModBoth(walkAdd(rng))
		case 2:
			cmd := []uint8{openflow.FlowDelete, openflow.FlowDeleteStrict, openflow.FlowModify}[rng.Intn(3)]
			table := uint8(rng.Intn(walkTables))
			flowModBoth(flowMod(cmd, table, uint16(rng.Intn(100)), walkMatch(rng), walkInstrs(rng, table)...))
			left := 0
			for _, e := range cached.Table(0).Entries() {
				if e.Priority >= 200 {
					left++
				}
			}
			if left < len(fixed) { // a covering delete took fixed entries too
				for _, fm := range fixed {
					flowModBoth(fm)
				}
			}
		case 3:
			gm := walkGroupMod(rng, openflow.GroupModify)
			both(func(sw *Switch) error { return sw.Groups().Apply(gm) })
		case 4, 5:
			clk.Advance(time.Duration(1+rng.Intn(4)) * time.Second)
			goneC, goneP := cached.SweepExpired(), plain.SweepExpired()
			if len(goneC) != len(goneP) {
				t.Fatalf("seed %d step %d: expiry sweeps removed different entries", seed, step)
			}
			for _, r := range goneC {
				if r.Entry.Cookie == walkBusyCookie {
					t.Fatalf("seed %d step %d: the busy flow's entry idled out", seed, step)
				}
			}
		}
		// The cached twin takes the step's frames in vectors of batch, the
		// reference one by one.
		parity := rng.Intn(len(walkInPorts))
		inPort := walkInPorts[parity]
		frames := stream(max(batch, 64), rng.Intn(walkFlows-64), parity)
		for _, f := range frames {
			plain.Receive(inPort, append([]byte(nil), f...))
		}
		for len(frames) > 0 {
			vec := frames[:min(batch, len(frames))]
			frames = frames[len(vec):]
			sent += uint64(len(vec))
			for _, f := range vec {
				sentBytes += uint64(len(f))
			}
			order.arm()
			if batch == 1 {
				cached.Receive(inPort, vec[0])
			} else {
				cached.ReceiveBatch(inPort, vec)
			}
		}

		got, want := walkSnapshot(cached), walkSnapshot(plain)
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: %d counters cached, %d uncached", seed, step, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("seed %d step %d: %s = %d cached, %d uncached", seed, step, k, got[k], w)
			}
		}
		// What left each port, byte for byte and in order.
		for _, p := range walkOutPorts {
			gotF, wantF := egressC[p].frames, egressP[p].frames
			if len(gotF) != len(wantF) {
				t.Fatalf("seed %d step %d: port %d sent %d frames cached, %d uncached", seed, step, p, len(gotF), len(wantF))
			}
			for i := range wantF {
				if !bytes.Equal(gotF[i], wantF[i]) {
					t.Fatalf("seed %d step %d: port %d frame %d cached\n %x\nuncached\n %x", seed, step, p, i, gotF[i], wantF[i])
				}
			}
			egressC[p].frames, egressP[p].frames = nil, nil
		}
		// Every frame is classified exactly once, whichever probe path
		// and however many classes it went through.
		cs := cached.CacheStats()
		if n := cs.Hits.Load() + cs.Misses.Load() + cs.Bypassed.Load(); n != sent {
			t.Fatalf("seed %d step %d: hits+misses+bypassed = %d for %d frames: %s", seed, step, n, sent, cs)
		}
		exportsC.drain(telC) // every step, so that the ring never fills
		exportsP.drain(telP)
	}

	// Telemetry sees every classified frame once, under its own flow,
	// wherever expiry flushes, timer sweeps and burst boundaries cut the
	// export windows.
	telC.FlushAll(clk.Now().UnixNano())
	telP.FlushAll(clk.Now().UnixNano())
	exportsC.drain(telC)
	exportsP.drain(telP)
	var total [2]uint64
	for fk, p := range exportsP {
		if c := exportsC[fk]; c != p {
			t.Fatalf("seed %d: flow %s exported %v packets/bytes cached, %v uncached", seed, fk, c, p)
		}
		total[0], total[1] = total[0]+p[0], total[1]+p[1]
	}
	if len(exportsC) != len(exportsP) || total != [2]uint64{sent, sentBytes} {
		t.Fatalf("seed %d: %d flows cached, %d uncached, exported %v packets/bytes of %d/%d sent", seed,
			len(exportsC), len(exportsP), total, sent, sentBytes)
	}
	if lost := telC.Counters().RecordsLost.Load() + telP.Counters().RecordsLost.Load(); lost != 0 {
		t.Fatalf("seed %d: %d export records lost to a full ring", seed, lost)
	}
	return len(*cached.cache.classes.Load()), cached.CacheStats().Hits.Load()
}

// TestCacheMatchesWalkRandom is the randomized cached ≡ uncached check
// at batch sizes 1 (the per-frame lookup and the direct credit), 8 and
// 256 (the batch probe over a few frames and many, and runs cut by the
// vector's end and not).
func TestCacheMatchesWalkRandom(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 6
	}
	for _, batch := range []int{1, 8, 256} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			maxClasses, hits := 0, uint64(0)
			for seed := int64(0); seed < seeds; seed++ {
				c, h := runCacheWalk(t, seed, batch)
				maxClasses = max(maxClasses, c)
				hits += h
			}
			if maxClasses < 3 || hits == 0 {
				t.Errorf("vacuous: at most %d mask classes, %d hits", maxClasses, hits)
			}
		})
	}
}

// FuzzSwitchMatchesWalk is the same check with the seed and the batch
// size (1 to 256) the fuzzer's to choose. The committed corpus
// (testdata/fuzz) is four picks, at batch 1, 8 and 256; seed 9 at batch
// 256 kills all five mutants CHANGES.md lists for this oracle — three of
// the classifier and cache, two of the per-run replay — on its own.
func FuzzSwitchMatchesWalk(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, batch uint8) {
		runCacheWalk(t, seed, 1+int(batch))
	})
}
