package runtime_test

// The workers axis of the differential oracle (softswitch's
// cachewalk_test.go has cached ≡ uncached and batched ≡ per-frame):
// N workers fed by N producers ≡ one caller handing the same frames to
// ReceiveBatch. A seed makes the flows and the order they are sent in;
// everything that must not depend on who drove the switch — egress per
// port, per-flow order, every counter the switch keeps — has to agree.

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
)

const (
	oracleKnown   = 64 // flows with an eth_dst entry in table 1
	oracleUnknown = 8  // flows that fall to table 1's miss entry
	oracleFlows   = oracleKnown + oracleUnknown
	oracleGroup   = 1
	oracleWorkers = 4

	// Every frame carries its flow's index and its position in the flow
	// at the head of the UDP payload.
	oraclePayload = pkt.EthernetHeaderLen + pkt.IPv4MinHeaderLen + pkt.UDPHeaderLen
)

var (
	oracleInPorts  = []uint32{1, 2}
	oracleOutPorts = []uint32{10, 11, 12}
)

// oracleInPort is the port flow i arrives on: the in-port is part of a
// flow's identity, so it is fixed per flow.
func oracleInPort(flow int) uint32 { return oracleInPorts[flow%len(oracleInPorts)] }

func oracleDstMAC(flow int) pkt.MAC { return pkt.MAC{0x02, 0x20, 0, 0, 0, byte(flow)} }

// egressLog is what came out of a switch: packets and bytes per port,
// and whether any flow's frames left in another order than they were
// sent in.
type egressLog struct {
	mu        sync.Mutex
	packets   map[uint32]uint64
	bytes     map[uint32]uint64
	nextSeq   [oracleFlows]uint32
	reordered int
}

func (l *egressLog) record(port uint32, frames [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range frames {
		l.packets[port]++
		l.bytes[port] += uint64(len(f))
		flow := binary.BigEndian.Uint16(f[oraclePayload:])
		seq := binary.BigEndian.Uint32(f[oraclePayload+2:])
		if seq != l.nextSeq[flow] {
			l.reordered++
		}
		l.nextSeq[flow] = seq + 1
	}
}

type logBackend struct {
	log  *egressLog
	port uint32
}

func (b logBackend) TransmitBatch(fs [][]byte) { b.log.record(b.port, fs) }

// newOracleSwitch builds the two-table pipeline: table 0 sends either
// in-port on to table 1, which outputs on an exact eth_dst — every
// fourth flow through a SELECT group over the three out ports — and
// drops what it does not know.
func newOracleSwitch(t *testing.T, clock netem.Clock) (*softswitch.Switch, *egressLog) {
	t.Helper()
	sw := softswitch.New("oracle", 0x0a, softswitch.WithClock(clock))
	log := &egressLog{packets: make(map[uint32]uint64), bytes: make(map[uint32]uint64)}
	for _, p := range oracleInPorts {
		sw.AttachPort(p, "in", &countBackend{})
	}
	var buckets []openflow.Bucket
	for _, p := range oracleOutPorts {
		sw.AttachPort(p, "out", logBackend{log: log, port: p})
		buckets = append(buckets, openflow.Bucket{Actions: []openflow.Action{
			&openflow.ActionOutput{Port: p, MaxLen: 0xffff},
		}})
	}
	if err := sw.Groups().Apply(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: oracleGroup, Buckets: buckets,
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range oracleInPorts {
		m := openflow.Match{}
		m.WithInPort(p)
		addFlow(t, sw, 0, 10, m, &openflow.InstrGotoTable{TableID: 1})
	}
	for i := 0; i < oracleKnown; i++ {
		m := openflow.Match{}
		m.WithEthDst(oracleDstMAC(i))
		instr := outputTo(oracleOutPorts[i%len(oracleOutPorts)])
		if i%4 == 3 {
			instr = &openflow.InstrApplyActions{Actions: []openflow.Action{&openflow.ActionGroup{GroupID: oracleGroup}}}
		}
		addFlow(t, sw, 1, 10, m, instr)
	}
	addFlow(t, sw, 1, 0, openflow.Match{}) // table-miss: drop
	return sw, log
}

// oracleFrame is one frame of the seeded sequence and the port it
// arrives on; flow is -1 for a malformed one.
type oracleFrame struct {
	inPort uint32
	flow   int
	frame  []byte
}

// oracleTraffic draws n frames over the flows from seed, one in fifty
// of them too short to parse. Each call returns private copies: the
// switch owns what it is sent.
func oracleTraffic(seed int64, n int) (frames []oracleFrame, malformed int) {
	specs := make([]fabric.FlowSpec, oracleFlows)
	for i := range specs {
		specs[i] = fabric.FlowSpec{
			SrcMAC: pkt.MAC{0x02, 0x10, 0, 0, 0, byte(i)},
			DstMAC: oracleDstMAC(i),
			SrcIP:  pkt.IPv4{10, 1, 0, byte(i)},
			DstIP:  pkt.IPv4{10, 2, 0, byte(i)},
			Sport:  uint16(1024 + i),
			Dport:  uint16(5000 + i%7),
		}
	}
	gen := fabric.NewFlowGenerator(64, specs)
	templates := make([][]byte, oracleFlows)
	for i := range templates {
		templates[i] = gen.Next()
	}
	rng := rand.New(rand.NewSource(seed))
	var seq [oracleFlows]uint32
	frames = make([]oracleFrame, n)
	for k := range frames {
		if rng.Intn(50) == 0 {
			frames[k] = oracleFrame{inPort: oracleInPorts[rng.Intn(len(oracleInPorts))], flow: -1, frame: []byte{0xde, 0xad}}
			malformed++
			continue
		}
		flow := rng.Intn(oracleFlows)
		f := append([]byte(nil), templates[flow]...)
		binary.BigEndian.PutUint16(f[oraclePayload:], uint16(flow))
		binary.BigEndian.PutUint32(f[oraclePayload+2:], seq[flow])
		seq[flow]++
		frames[k] = oracleFrame{inPort: oracleInPort(flow), flow: flow, frame: f}
	}
	return frames, malformed
}

// oracleCounters is every counter the switch keeps that must not
// depend on who drove it.
type oracleCounters struct {
	EgressPackets, EgressBytes map[uint32]uint64
	Entries                    [][2]uint64 // packets, bytes; tables in order, entries in table order
	Tables                     [][2]uint64 // lookups, matched
	Ports                      map[uint32][4]uint64
	GroupPackets               uint64
	Drops                      uint64
}

func readOracle(t *testing.T, sw *softswitch.Switch, log *egressLog) oracleCounters {
	t.Helper()
	c := oracleCounters{EgressPackets: log.packets, EgressBytes: log.bytes, Ports: make(map[uint32][4]uint64), Drops: sw.Drops()}
	for id := 0; id < 2; id++ {
		tab := sw.Table(uint8(id))
		for _, e := range tab.Entries() {
			c.Entries = append(c.Entries, [2]uint64{e.Packets(), e.Bytes()})
		}
		lookups, matched := tab.Stats()
		c.Tables = append(c.Tables, [2]uint64{lookups, matched})
	}
	for _, p := range append(append([]uint32(nil), oracleInPorts...), oracleOutPorts...) {
		pc := sw.PortCounters(p)
		c.Ports[p] = [4]uint64{pc.RxPackets.Load(), pc.RxBytes.Load(), pc.TxPackets.Load(), pc.TxBytes.Load()}
	}
	g, ok := sw.Groups().Get(oracleGroup)
	if !ok {
		t.Fatal("group gone")
	}
	c.GroupPackets = g.Packets()
	return c
}

// checkOracleInvariants holds on either side on its own: every frame
// is classified or malformed, every frame leaves or is dropped, and no
// flow is reordered.
func checkOracleInvariants(t *testing.T, side string, sw *softswitch.Switch, log *egressLog, frames, malformed int) {
	t.Helper()
	if got := classified(sw); got != uint64(frames-malformed) {
		t.Errorf("%s: hits+misses+bypassed = %d, want %d frames - %d malformed", side, got, frames, malformed)
	}
	var egress uint64
	for _, n := range log.packets {
		egress += n
	}
	if egress+sw.Drops() != uint64(frames) {
		t.Errorf("%s: egress %d + drops %d != %d frames", side, egress, sw.Drops(), frames)
	}
	if log.reordered != 0 {
		t.Errorf("%s: %d frames left out of their flow's order", side, log.reordered)
	}
}

func TestPoolMatchesDirect(t *testing.T) {
	const seed = 19
	n := scaled(40000)
	clock := netem.NewManualClock()

	// Direct: the sequence as generated, in bursts of 32 cut into runs
	// of one in-port.
	direct, directLog := newOracleSwitch(t, clock)
	traffic, malformed := oracleTraffic(seed, n)
	var vec [][]byte
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && hi-lo < 32 && traffic[hi].inPort == traffic[lo].inPort {
			hi++
		}
		vec = vec[:0]
		for _, f := range traffic[lo:hi] {
			vec = append(vec, f.frame)
		}
		direct.ReceiveBatch(traffic[lo].inPort, vec)
		lo = hi
	}
	checkOracleInvariants(t, "direct", direct, directLog, n, malformed)

	// Pooled: each producer carries a quarter of the flows, in sequence
	// order. The first half is dispatched before Start, so the workers'
	// first bursts are full and mix both in-ports; the second half
	// arrives while they run.
	pooled, pooledLog := newOracleSwitch(t, clock)
	traffic, _ = oracleTraffic(seed, n)
	pool := ssruntime.New(pooled, ssruntime.Config{Workers: oracleWorkers, RingSize: n})
	produce := func(part []oracleFrame) {
		var wg sync.WaitGroup
		for p := 0; p < oracleWorkers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k, f := range part {
					mine := f.flow%oracleWorkers == p
					if f.flow < 0 {
						mine = k%oracleWorkers == p
					}
					if !mine {
						continue
					}
					for !pool.Dispatch(f.inPort, f.frame) {
					}
				}
			}(p)
		}
		wg.Wait()
	}
	produce(traffic[:n/2])
	pool.Start()
	produce(traffic[n/2:])
	pool.Stop()
	checkOracleInvariants(t, "pooled", pooled, pooledLog, n, malformed)

	if st := pool.Stats(); st.Frames != uint64(n) {
		t.Errorf("pool processed %d of %d frames", st.Frames, n)
	}
	// Sharding by in-port alone would also keep every flow in order; it
	// would reach two workers.
	for i := 0; i < pool.Workers(); i++ {
		if pool.WorkerStats(i).Frames == 0 {
			t.Errorf("worker %d saw no frames: RSS is not spreading flows", i)
		}
	}
	want, got := readOracle(t, direct, directLog), readOracle(t, pooled, pooledLog)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("pooled switch disagrees with direct:\n direct %+v\n pooled %+v", want, got)
	}
}

// TestBurstSplitsByInPort: one burst off a ring that carried frames of
// two ports enters the switch as runs of one in-port each, in order,
// and is counted where it arrived.
func TestBurstSplitsByInPort(t *testing.T) {
	sw := softswitch.New("runs", 0x33)
	for _, p := range []uint32{1, 2} {
		sw.AttachPort(p, "in", &countBackend{})
		m := openflow.Match{}
		m.WithInPort(p)
		addFlow(t, sw, 0, 10, m, outputTo(3))
	}
	out := &countBackend{}
	sw.AttachPort(3, "out", out)

	type run struct {
		inPort uint32
		frames int
	}
	var runs []run
	pool := ssruntime.New(sw, ssruntime.Config{
		Workers: 1,
		Observer: func(_ int, inPort uint32, frames [][]byte) {
			runs = append(runs, run{inPort, len(frames)})
		},
	})
	gen := fabric.NewUDPGenerator(64, 2, 21)
	for _, f := range []struct {
		inPort uint32
		frame  []byte
	}{
		{1, gen.CopyNext()}, // walks (cold cache)
		{1, gen.CopyNext()}, // another flow, but the rules consult in_port only: hits the first's entry
		{1, []byte{0xde, 0xad}},
		{2, gen.CopyNext()}, // walks: another in_port is another entry
		{1, gen.CopyNext()}, // hits
	} {
		if !pool.Dispatch(f.inPort, f.frame) {
			t.Fatal("dispatch rejected")
		}
	}
	pool.Start()
	pool.Stop()

	if want := []run{{1, 3}, {2, 1}, {1, 1}}; !reflect.DeepEqual(runs, want) {
		t.Errorf("runs = %v, want %v", runs, want)
	}
	if rx1, rx2 := sw.PortCounters(1).RxPackets.Load(), sw.PortCounters(2).RxPackets.Load(); rx1 != 4 || rx2 != 1 {
		t.Errorf("rx split = %d/%d, want 4/1", rx1, rx2)
	}
	if got := out.frames.Load(); got != 4 {
		t.Errorf("delivered %d frames, want 4", got)
	}
	c := sw.CacheStats()
	if h, m, d := c.Hits.Load(), c.Misses.Load(), sw.Drops(); h != 2 || m != 2 || d != 1 {
		t.Errorf("hits/misses/drops = %d/%d/%d, want 2/2/1", h, m, d)
	}
	if st, want := pool.Stats(), (ssruntime.PoolStats{Frames: 5, Bytes: 4*64 + 2, Batches: 1}); st != want {
		t.Errorf("pool stats = %+v, want %+v", st, want)
	}
}
