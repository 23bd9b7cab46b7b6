package softswitch_test

// The S4 oracle: flow-cache entries that follow a patch port ≡ the walk.
// Two HARMLESS-S4 nodes — SS_1 running the real translator program, SS_2
// a random program from the cache oracle's generators plus VLAN matches
// and FLOOD and IN_PORT outputs — take the same frames on SS_1's trunk:
// one with the flow cache on, whose entries follow SS_1's patch ports
// into SS_2 and back, and one with it off, which walks every switch a
// frame crosses. Flow-mods on either switch, group-mods, expiry, and
// telemetry attached and detached land between bursts. After every burst
// the trunk's egress, every flow, table, port and group counter of both
// switches, the drops and the packet-ins have to agree, and at the end
// the telemetry exports of both switches.
//
// In vectors of one everything is compared in order. In larger vectors a
// frame whose entry follows the crossing leaves the node ahead of the
// frames that take the worklist, so frames of different flows may leave
// in another order (those of one flow never do): the trunk's egress is
// compared flow by flow and the packet-ins as a set, and the meter gets a
// rate no burst reaches, since which frames a shared meter passes
// depends on the order they meet it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// s4WalkPlan migrates the generators' in-ports (1, 2) and out-ports (10,
// 11, 12), so each is an SS_2 port behind a patch pair; the ports left
// over form the legacy segment, SS_2 port 13, untagged on the trunk.
var s4WalkPlan = harmless.PlanConfig{Hostname: "walk", NumPorts: 13, AccessPorts: []int{1, 2, 10, 11, 12}}

// s4Node is one of the two S4 nodes under comparison.
type s4Node struct {
	ss1, ss2 *softswitch.Switch
	trunk    [][]byte // what SS_1 sent out the trunk
	pins     pinLog
	tel      [2]*telemetry.Table                // attached to SS_1, SS_2 (nil: none)
	exports  [2]map[telemetry.FlowKey][2]uint64 // per switch, packets and bytes
}

func (n *s4Node) TransmitBatch(fs [][]byte) { n.trunk = append(n.trunk, fs...) }

// pinLog holds the packet-ins a controller read off SS_2's channel
// since the last take, and counts all it read.
type pinLog struct {
	mu   sync.Mutex
	msgs []string
	read uint64
}

func (l *pinLog) add(msg string) {
	l.mu.Lock()
	l.msgs = append(l.msgs, msg)
	l.read++
	l.mu.Unlock()
}

// take returns the packet-ins read since the last take, once the
// controller has read want in all.
func (l *pinLog) take(t *testing.T, want uint64) []string {
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		if read := l.read; read >= want {
			msgs := l.msgs
			l.msgs = nil
			l.mu.Unlock()
			return msgs
		} else if time.Now().After(deadline) {
			l.mu.Unlock()
			t.Fatalf("the controller read %d of %d packet-ins", read, want)
		}
		l.mu.Unlock()
	}
}

func newS4Node(t *testing.T, clk netem.Clock, plan *harmless.Plan, opts ...softswitch.Option) *s4Node {
	opts = append(opts, softswitch.WithClock(clk), softswitch.WithNumTables(softswitch.WalkTables))
	n := &s4Node{ss1: softswitch.New("walk-ss1", 2, opts...), ss2: softswitch.New("walk-ss2", 1, opts...)}
	for i := range n.exports {
		n.exports[i] = map[telemetry.FlowKey][2]uint64{}
	}
	for _, l := range plan.LogicalPorts() {
		softswitch.ConnectPatch(n.ss1, harmless.SS1PatchBase+l, n.ss2, l)
	}
	n.ss1.AttachPort(harmless.SS1TrunkPort, "trunk", n)
	if err := harmless.InstallTranslator(n.ss1, plan); err != nil {
		t.Fatal(err)
	}
	agent := n.ss2.NewAgent(controlplane.Config{EchoInterval: -1}, 0)
	t.Cleanup(agent.Stop)
	c1, c2 := net.Pipe()
	agent.Attach(c2)
	ctrl := openflow.NewConn(c1)
	t.Cleanup(func() { ctrl.Close() })
	if _, err := ctrl.Handshake(nil); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			m, err := ctrl.Recv()
			if err != nil {
				return
			}
			if pi, ok := m.(*openflow.PacketIn); ok {
				in, _ := pi.InPort()
				n.pins.add(fmt.Sprintf("in=%d reason=%d table=%d cookie=%#x len=%d %x",
					in, pi.Reason, pi.TableID, pi.Cookie, pi.TotalLen, pi.Data))
			}
		}
	}()
	return n
}

// setTelemetry attaches a fresh table to switch i (0: SS_1, 1: SS_2),
// or detaches the one there, flushing it into the exports.
func (n *s4Node) setTelemetry(i int, now int64) {
	sw := []*softswitch.Switch{n.ss1, n.ss2}[i]
	if tab := n.tel[i]; tab != nil {
		sw.SetTelemetry(nil)
		tab.FlushAll(now)
		n.drain(i)
		n.tel[i] = nil
		return
	}
	n.tel[i] = telemetry.NewTable(telemetry.Config{})
	sw.SetTelemetry(n.tel[i])
}

// drain adds what switch i's table has exported to its totals.
func (n *s4Node) drain(i int) {
	if n.tel[i] == nil {
		return
	}
	for e, ok := n.tel[i].Ring().Pop(); ok; e, ok = n.tel[i].Ring().Pop() {
		v := n.exports[i][e.Key]
		n.exports[i][e.Key] = [2]uint64{v[0] + e.Packets, v[1] + e.Bytes}
	}
}

// snapshot is every counter of both switches but the cache's own.
func (n *s4Node) snapshot() map[string]uint64 {
	snap := map[string]uint64{}
	for i, sw := range []*softswitch.Switch{n.ss1, n.ss2} {
		for k, v := range counterSnapshot(sw) {
			if k != "cachelen" && !strings.HasPrefix(k, "cache.") {
				snap[fmt.Sprintf("ss%d.%s", i+1, k)] = v
			}
		}
		if g, ok := sw.Groups().Get(softswitch.WalkGroup); ok {
			snap[fmt.Sprintf("ss%d.group.pkts", i+1)] = g.Packets()
		}
	}
	return snap
}

// s4Flow is one flow's frame as it reaches SS_1's trunk, and where its
// IPv4 TTL lies.
type s4Flow struct {
	frame []byte
	ttl   int
}

// s4Add draws a flow-add for SS_2: half the time the cache oracle's, and
// otherwise one of its matches, maybe narrowed to an inner VLAN id or to
// untagged frames, whose entry floods, sends back out IN_PORT, outputs to
// the controller or a port before it outputs to a port (every SS_2 port
// is a patch port), or does what the cache oracle's entries do.
func s4Add(rng *rand.Rand) *openflow.FlowMod {
	if rng.Intn(2) == 0 {
		return softswitch.WalkAdd(rng)
	}
	table := uint8(rng.Intn(softswitch.WalkTables))
	m := softswitch.WalkMatch(rng)
	switch rng.Intn(3) {
	case 0:
		m.WithVLAN(uint16(1 + rng.Intn(4)))
	case 1:
		m.WithNoVLAN()
	}
	var instrs []openflow.Instruction
	switch rng.Intn(4) {
	case 0:
		instrs = []openflow.Instruction{&openflow.InstrApplyActions{Actions: append(softswitch.WalkRewrites(rng), &openflow.ActionOutput{Port: openflow.PortFlood})}}
	case 1:
		instrs = []openflow.Instruction{&openflow.InstrApplyActions{Actions: append(softswitch.WalkRewrites(rng), &openflow.ActionOutput{Port: openflow.PortInPort})}}
	case 2:
		first := []uint32{openflow.PortController, 10, 11, 12, 13}[rng.Intn(5)]
		instrs = []openflow.Instruction{&openflow.InstrApplyActions{Actions: append(softswitch.WalkRewrites(rng),
			&openflow.ActionOutput{Port: first, MaxLen: 64}, &openflow.ActionOutput{Port: uint32(10 + rng.Intn(4))})}}
	default:
		instrs = softswitch.WalkInstrs(rng, table)
	}
	return &openflow.FlowMod{
		TableID: table, Command: openflow.FlowAdd, Priority: uint16(rng.Intn(100)),
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: instrs, IdleTimeout: []uint16{0, 0, 3, 10}[rng.Intn(4)],
	}
}

// s4Frame builds a UDP frame that carries its flow's id in its last two
// bytes, where no rewrite reaches.
func s4Frame(t *testing.T, rng *rand.Rand, id int) []byte {
	payload := make(pkt.Payload, 2+rng.Intn(100))
	binary.BigEndian.PutUint16(payload[len(payload)-2:], uint16(id))
	macs := softswitch.WalkMACs
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: macs[rng.Intn(len(macs))], Dst: macs[rng.Intn(len(macs))], EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: softswitch.WalkIP(rng), Dst: softswitch.WalkIP(rng)},
		&pkt.UDP{SrcPort: uint16(1024 + rng.Intn(4096)), DstPort: softswitch.WalkDports[rng.Intn(len(softswitch.WalkDports))]},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// byFlow orders egress frames flow by flow, and each flow's by the tag
// SS_1 put on for the SS_2 port they left by, in the order they left.
func byFlow(frames [][]byte) [][]byte {
	out := slices.Clone(frames)
	key := func(f []byte) uint64 {
		return uint64(binary.BigEndian.Uint16(f[len(f)-2:]))<<32 | uint64(binary.BigEndian.Uint32(f[12:16]))
	}
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// runS4Walk plays one seed at one batch size. It returns how many frames
// SS_2 received and how many of them SS_2's own cache classified in the
// cached node: the rest were carried by SS_1's entries.
func runS4Walk(t *testing.T, seed int64, batch int) (ss2Frames, ss2Classified uint64) {
	rng := rand.New(rand.NewSource(seed))
	clk := netem.NewManualClock()
	plan, err := harmless.PlanMigration(s4WalkPlan)
	if err != nil {
		t.Fatal(err)
	}
	cached, plain := newS4Node(t, clk, plan), newS4Node(t, clk, plan, softswitch.WithFlowCacheSize(0))
	nodes := []*s4Node{cached, plain}
	ss2Both := func(apply func(sw *softswitch.Switch) error) {
		t.Helper()
		errC, errP := apply(cached.ss2), apply(plain.ss2)
		if (errC == nil) != (errP == nil) {
			t.Fatalf("seed %d: control operation diverged: cached %v, uncached %v", seed, errC, errP)
		}
	}
	flowMod := func(fm *openflow.FlowMod) {
		ss2Both(func(sw *softswitch.Switch) error { _, err := sw.ApplyFlowMod(fm); return err })
	}
	rate := uint32(40) // see the top of the file
	if batch > 1 {
		rate = 1 << 30
	}
	ss2Both(func(sw *softswitch.Switch) error {
		return sw.Meters().Apply(&openflow.MeterMod{
			Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: softswitch.WalkMeter,
			Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: rate, BurstSize: rate}},
		})
	})
	gm := softswitch.WalkGroupMod(rng, openflow.GroupAdd)
	ss2Both(func(sw *softswitch.Switch) error { return sw.Groups().Apply(gm) })
	for i := 0; i < 12; i++ {
		flowMod(s4Add(rng))
	}
	for table := uint8(0); table < softswitch.WalkTables; table++ {
		if rng.Intn(4) != 0 { // most tables get a default; the rest table-miss
			flowMod(&openflow.FlowMod{
				TableID: table, Command: openflow.FlowAdd,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Instructions: softswitch.WalkInstrs(rng, table),
			})
		}
	}

	// The flows as they reach the trunk: tagged for a migrated port, most
	// for the generators' in-ports, some untagged for the legacy segment,
	// a few for no port at all, and a sixth with a tag of their own
	// inside, which SS_1's pop uncovers.
	flows := make([]s4Flow, 128)
	for i := range flows {
		f := s4Flow{frame: s4Frame(t, rng, i), ttl: pkt.EthernetHeaderLen + 8}
		var tags []uint16
		if rng.Intn(6) == 0 {
			tags = append(tags, uint16(1+rng.Intn(4)))
		}
		if vlan := []uint16{101, 101, 101, 102, 102, 102, 110, 111, 112, 0, 999}[rng.Intn(11)]; vlan != 0 {
			tags = append(tags, vlan)
		}
		for _, vid := range tags {
			if f.frame, err = pkt.PushVLAN(f.frame, pkt.EtherTypeDot1Q, vid); err != nil {
				t.Fatal(err)
			}
			f.ttl += pkt.Dot1QHeaderLen
		}
		flows[i] = f
	}

	for step := 0; step < 40; step++ {
		switch rng.Intn(12) {
		case 0, 1:
			flowMod(s4Add(rng))
		case 2:
			cmd := []uint8{openflow.FlowDelete, openflow.FlowDeleteStrict, openflow.FlowModify}[rng.Intn(3)]
			fm := s4Add(rng)
			fm.Command = cmd
			flowMod(fm)
		case 3:
			gm := softswitch.WalkGroupMod(rng, openflow.GroupModify)
			ss2Both(func(sw *softswitch.Switch) error { return sw.Groups().Apply(gm) })
		case 4:
			clk.Advance(time.Duration(1+rng.Intn(4)) * time.Second)
			for _, n := range nodes {
				n.ss1.SweepExpired()
				n.ss2.SweepExpired()
			}
		case 5: // SS_1's program, installed again: new revisions, counters reset
			for _, n := range nodes {
				if err := harmless.InstallTranslator(n.ss1, plan); err != nil {
					t.Fatal(err)
				}
			}
		case 6, 7:
			i := rng.Intn(2)
			for _, n := range nodes {
				n.setTelemetry(i, clk.Now().UnixNano())
			}
		}

		var frames [][]byte
		for len(frames) < max(batch, 64) {
			f := flows[rng.Intn(len(flows))]
			for i := 1 + rng.Intn(8); i > 0; i-- {
				frame := slices.Clone(f.frame)
				if rng.Intn(8) == 0 {
					frame[f.ttl] = 1 // a dec-TTL drops it
				}
				frames = append(frames, frame)
			}
		}
		for _, n := range nodes {
			for rest := frames; len(rest) > 0; {
				vec := make([][]byte, min(batch, len(rest)))
				for i := range vec {
					vec[i] = slices.Clone(rest[i])
				}
				rest = rest[len(vec):]
				if batch == 1 {
					n.ss1.Receive(harmless.SS1TrunkPort, vec[0])
				} else {
					n.ss1.ReceiveBatch(harmless.SS1TrunkPort, vec)
				}
			}
		}

		got, want := cached.snapshot(), plain.snapshot()
		if len(got) != len(want) {
			t.Fatalf("seed %d step %d: %d counters cached, %d uncached", seed, step, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("seed %d step %d: %s = %d cached, %d uncached", seed, step, k, got[k], w)
			}
		}
		gotF, wantF := cached.trunk, plain.trunk
		if batch > 1 {
			gotF, wantF = byFlow(gotF), byFlow(wantF)
		}
		if len(gotF) != len(wantF) {
			t.Fatalf("seed %d step %d: trunk sent %d frames cached, %d uncached", seed, step, len(gotF), len(wantF))
		}
		for i := range wantF {
			if !bytes.Equal(gotF[i], wantF[i]) {
				t.Fatalf("seed %d step %d: trunk frame %d cached\n %x\nuncached\n %x", seed, step, i, gotF[i], wantF[i])
			}
		}
		cached.trunk, plain.trunk = nil, nil

		var pins [2][]string
		for i, n := range nodes {
			if pins[i] = n.pins.take(t, n.ss2.PacketIns()); batch > 1 {
				sort.Strings(pins[i])
			}
		}
		if !slices.Equal(pins[0], pins[1]) {
			t.Fatalf("seed %d step %d: packet-ins cached\n %q\nuncached\n %q", seed, step, pins[0], pins[1])
		}
		for _, n := range nodes {
			n.drain(0)
			n.drain(1)
		}
	}

	for _, n := range nodes {
		for i := range n.tel {
			if n.tel[i] != nil {
				n.setTelemetry(i, clk.Now().UnixNano()) // detach, flushing
			}
		}
	}
	for i := range cached.exports {
		if !maps.Equal(cached.exports[i], plain.exports[i]) {
			t.Fatalf("seed %d: SS_%d exported\n %v cached\n %v uncached", seed, i+1, cached.exports[i], plain.exports[i])
		}
	}
	cs := cached.ss2.CacheStats()
	for _, p := range cached.ss2.PortNumbers() {
		ss2Frames += cached.ss2.PortCounters(p).RxPackets.Load()
	}
	return ss2Frames, cs.Hits.Load() + cs.Misses.Load() + cs.Bypassed.Load()
}

// TestS4MatchesWalkRandom is the S4 oracle over a range of seeds at
// batch sizes 1, 8 and 64.
func TestS4MatchesWalkRandom(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 3
	}
	for _, batch := range []int{1, 8, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			var frames, classified uint64
			for seed := int64(0); seed < seeds; seed++ {
				f, c := runS4Walk(t, seed, batch)
				frames, classified = frames+f, classified+c
			}
			if classified*10 > frames*9 {
				t.Errorf("vacuous: SS_2 classified %d of the %d frames it received itself", classified, frames)
			}
		})
	}
}

// FuzzS4MatchesWalk is the same check with the seed and the batch size
// (1 to 256) the fuzzer's to choose.
func FuzzS4MatchesWalk(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, uint8(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, batch uint8) {
		runS4Walk(t, seed, 1+int(batch))
	})
}
