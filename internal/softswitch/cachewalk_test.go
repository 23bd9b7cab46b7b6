package softswitch

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The differential oracle for the flow cache: cached ≡ uncached. A seed
// makes a small random pipeline and 512 flows; the same traffic,
// flow-mods, group-mods and expiry sweeps then run through a switch
// with the cache and a twin without, and after every step everything
// the cache must not change has to agree.

const (
	walkTables = 4
	walkFlows  = 512
	walkGroup  = 1
	walkMeter  = 1
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
// vary in, prefixes from /8 to /32.
func walkMatch(rng *rand.Rand) openflow.Match {
	var m openflow.Match
	if rng.Intn(3) == 0 {
		m.WithInPort(walkInPorts[rng.Intn(len(walkInPorts))])
	}
	if rng.Intn(4) == 0 {
		m.WithEthDst(walkMACs[rng.Intn(len(walkMACs))])
	}
	prefix := func() pkt.IPv4 {
		bits := 8 * (1 + rng.Intn(4))
		var mask pkt.IPv4
		for i := 0; i < bits/8; i++ {
			mask[i] = 0xff
		}
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

// walkInstrs draws what an entry of the given table does: maybe a meter,
// then either a goto further down the pipeline (with or without a
// written output) or a terminal action — a port, the SELECT group, the
// controller, or nothing at all.
func walkInstrs(rng *rand.Rand, table uint8) []openflow.Instruction {
	var instrs []openflow.Instruction
	if rng.Intn(8) == 0 {
		instrs = append(instrs, &openflow.InstrMeter{MeterID: walkMeter})
	}
	port := out(walkOutPorts[rng.Intn(len(walkOutPorts))])
	if table < walkTables-1 && rng.Intn(2) == 0 {
		if rng.Intn(3) == 0 {
			instrs = append(instrs, &openflow.InstrWriteActions{Actions: []openflow.Action{port}})
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
	return append(instrs, apply(port))
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

// walkSwitch builds one of the two twins on the shared clock, with an
// agent (no controller attached) so packet-ins are counted as such.
func walkSwitch(t *testing.T, clk netem.Clock, opts ...Option) *Switch {
	sw := New("walk", 0xd1ff, append(opts, WithClock(clk), WithNumTables(walkTables))...)
	for _, p := range walkOutPorts {
		sw.AttachPort(p, "out", &discardBackend{})
	}
	t.Cleanup(sw.NewAgent(controlplane.Config{}, 0).Stop)
	return sw
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

// runCacheWalk plays one seed at one batch size and returns how many
// mask classes the cached twin ended up with and how often it hit.
func runCacheWalk(t *testing.T, seed int64, batch int) (classes int, hits uint64) {
	rng := rand.New(rand.NewSource(seed))
	clk := netem.NewManualClock()
	cacheSize := DefaultFlowCacheSize
	if seed%3 == 0 {
		cacheSize = 2 * cacheShards // capacity evictions in the mix
	}
	cached := walkSwitch(t, clk, WithFlowCacheSize(cacheSize))
	plain := walkSwitch(t, clk, WithFlowCache(false))
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

	type flow struct {
		inPort uint32
		frame  []byte
	}
	flows := make([]flow, walkFlows)
	for i := range flows {
		flows[i] = flow{
			inPort: walkInPorts[i%len(walkInPorts)],
			frame: udpFrame(t, walkMACs[rng.Intn(len(walkMACs))], walkMACs[rng.Intn(len(walkMACs))],
				walkIP(rng), walkIP(rng), uint16(1024+rng.Intn(4096)), walkDports[rng.Intn(len(walkDports))],
				string(make([]byte, rng.Intn(100)))),
		}
	}

	var sent uint64
	vecC, vecP := make([][]byte, 0, batch), make([][]byte, 0, batch)
	for step := 0; step < 40; step++ {
		switch rng.Intn(10) {
		case 0, 1:
			flowModBoth(walkAdd(rng))
		case 2:
			cmd := []uint8{openflow.FlowDelete, openflow.FlowDeleteStrict, openflow.FlowModify}[rng.Intn(3)]
			table := uint8(rng.Intn(walkTables))
			flowModBoth(flowMod(cmd, table, uint16(rng.Intn(100)), walkMatch(rng), walkInstrs(rng, table)...))
		case 3:
			gm := walkGroupMod(rng, openflow.GroupModify)
			both(func(sw *Switch) error { return sw.Groups().Apply(gm) })
		case 4, 5:
			clk.Advance(time.Duration(1+rng.Intn(4)) * time.Second)
			if len(cached.SweepExpired()) != len(plain.SweepExpired()) {
				t.Fatalf("seed %d step %d: expiry sweeps removed different entries", seed, step)
			}
		}
		// A burst of max(batch, 64) frames in vectors of batch, each
		// vector from one in-port, drawn from a window of the flows so
		// that the same flows come round again.
		window := rng.Intn(walkFlows - 64)
		for n := 0; n < max(batch, 64); n += batch {
			parity := rng.Intn(len(walkInPorts))
			vecC, vecP = vecC[:0], vecP[:0]
			for i := 0; i < batch; i++ {
				f := flows[(window+rng.Intn(32)*len(walkInPorts))+parity]
				vecC = append(vecC, append([]byte(nil), f.frame...))
				vecP = append(vecP, append([]byte(nil), f.frame...))
			}
			inPort := walkInPorts[parity]
			if batch == 1 {
				cached.Receive(inPort, vecC[0])
				plain.Receive(inPort, vecP[0])
			} else {
				cached.ReceiveBatch(inPort, vecC)
				plain.ReceiveBatch(inPort, vecP)
			}
			sent += uint64(batch)
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
		// Every frame is classified exactly once, whichever probe path
		// and however many classes it went through.
		cs := cached.CacheStats()
		if n := cs.Hits.Load() + cs.Misses.Load() + cs.Bypassed.Load(); n != sent {
			t.Fatalf("seed %d step %d: hits+misses+bypassed = %d for %d frames: %s", seed, step, n, sent, cs)
		}
	}
	return len(*cached.cache.classes.Load()), cached.CacheStats().Hits.Load()
}

// TestCacheMatchesWalkRandom is the randomized cached ≡ uncached check
// at batch sizes 1 (the per-frame lookup), 8 and 256 (the grouped
// probe, a few frames and many per shard).
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
