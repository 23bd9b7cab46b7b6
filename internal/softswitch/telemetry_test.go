package softswitch

// Telemetry integration: the flow-telemetry plane observed from the
// datapath side. The invariant under test throughout: exported
// byte/packet totals exactly equal what the datapath classified
// (cache hits + misses, and the injected byte sum) — no packet is
// double-counted or lost, whatever mix of per-frame, batch, expiry
// and flush paths the traffic took.

import (
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// discardBackend swallows egress so only the datapath is in the loop.
type discardBackend struct{ frames int }

func (d *discardBackend) Transmit([]byte)          { d.frames++ }
func (d *discardBackend) TransmitBatch(f [][]byte) { d.frames += len(f) }

// telSwitch builds a two-port switch (netem port 1 in, discard port 2
// out) forwarding everything from port 1 to port 2, with a telemetry
// table attached.
func telSwitch(t testing.TB, cfg telemetry.Config, opts ...Option) (*Switch, *telemetry.Table) {
	t.Helper()
	tab := telemetry.NewTable(cfg)
	sw := New("tel", 0x7e1, opts...)
	sw.SetTelemetry(tab)
	l := netem.NewLink(netem.LinkConfig{})
	t.Cleanup(l.Close)
	sw.AttachNetPort(1, "in", l.A())
	l.B().SetReceiver(func([]byte) {})
	sw.AttachPort(2, "out", &discardBackend{})
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, sw, 0, 10, m, apply(out(2)))
	return sw, tab
}

// flush force-exports everything and returns the collector totals.
func flush(tab *telemetry.Table, agg *telemetry.Aggregator, col *telemetry.Collector) (pkts, bytes uint64) {
	tab.FlushAll(time.Now().UnixNano())
	agg.Flush()
	return col.Totals()
}

// TestTelemetryCounterExactness drives a mix of per-frame and batched
// traffic over several flows and checks collector totals against the
// datapath's own counters.
func TestTelemetryCounterExactness(t *testing.T) {
	sw, tab := telSwitch(t, telemetry.Config{Shards: 4})
	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Hour)

	var sentPkts, sentBytes uint64
	frame := func(i int) []byte {
		return udpFrame(t, macA, macB, ipA, ipB, uint16(5000+i%7), 80, "telemetry")
	}
	// Per-frame path.
	for i := 0; i < 40; i++ {
		f := frame(i)
		sentPkts++
		sentBytes += uint64(len(f))
		sw.Receive(1, f)
	}
	// Batch path (the 7 flows are all cached by now).
	for b := 0; b < 5; b++ {
		vec := make([][]byte, 16)
		for i := range vec {
			vec[i] = frame(i)
			sentPkts++
			sentBytes += uint64(len(vec[i]))
		}
		sw.ReceiveBatch(1, vec)
	}

	cs := sw.CacheStats()
	classified := cs.Hits.Load() + cs.Misses.Load()
	if classified != sentPkts {
		t.Fatalf("datapath classified %d, sent %d", classified, sentPkts)
	}
	gotPkts, gotBytes := flush(tab, agg, col)
	if gotPkts != sentPkts || gotBytes != sentBytes {
		t.Fatalf("collector totals %d pkts / %d bytes, datapath %d / %d",
			gotPkts, gotBytes, sentPkts, sentBytes)
	}
	// Flow-level sanity: 7 distinct flows, each with the right egress.
	flows := col.Flows()
	if len(flows) != 7 {
		t.Fatalf("collector flows = %d, want 7", len(flows))
	}
	for _, f := range flows {
		if f.OutPort != 2 {
			t.Fatalf("flow %v out-port = %d, want 2", f.Key, f.OutPort)
		}
		if f.Key.InPort != 1 || f.Key.IPSrc != ipA {
			t.Fatalf("flow key wrong: %+v", f.Key)
		}
	}
}

// TestTelemetryExpiryFlushesFinals is the regression test for the
// expiry bug: when the idle-timeout sweep removes a flow entry, the
// flow's accumulated telemetry deltas must be flushed to the exporter
// right then — not sit in the shard until telemetry's own (much
// longer) idle timer fires — so exported totals match CacheCounters
// exactly at the moment the flow died.
func TestTelemetryExpiryFlushesFinals(t *testing.T) {
	clk := netem.NewManualClock()
	// Telemetry timers deliberately enormous: the ONLY way these
	// records can reach the exporter inside this test is the expiry
	// flush under test.
	sw, tab := telSwitch(t, telemetry.Config{
		ActiveTimeout: time.Hour, IdleTimeout: time.Hour, SweepInterval: time.Hour,
	}, WithClock(clk))
	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Hour)

	// The expiring entry covers only the udp/80 conversation; the
	// udp/81 bystander flow rides the permanent catch-all.
	m := openflow.Match{}
	m.WithInPort(1).WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(80)
	_, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 20,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, IdleTimeout: 1,
		Instructions: []openflow.Instruction{apply(out(2))},
	})
	if err != nil {
		t.Fatal(err)
	}

	var sentPkts, sentBytes uint64
	for i := 0; i < 10; i++ {
		f := udpFrame(t, macA, macB, ipA, ipB, 5000, 80, "x")
		sentPkts++
		sentBytes += uint64(len(f))
		sw.Receive(1, f)
	}
	var byPkts, byBytes uint64
	for i := 0; i < 4; i++ {
		f := udpFrame(t, macA, macB, ipA, ipB, 5000, 81, "bystander")
		byPkts++
		byBytes += uint64(len(f))
		sw.Receive(1, f)
	}
	// Nothing exported yet: the flows are live and telemetry timers
	// are parked at an hour.
	agg.Flush()
	if pkts, _ := col.Totals(); pkts != 0 {
		t.Fatalf("premature export of %d packets", pkts)
	}

	clk.Advance(2 * time.Second) // idle timeout (1s) elapses
	if removed := sw.SweepExpired(); len(removed) != 0 {
		t.Fatalf("unexpected notifications: %v", removed)
	}
	if sw.Table(0).Len() != 1 { // the priority-10 catch-all stays
		t.Fatalf("table len = %d after expiry", sw.Table(0).Len())
	}
	agg.Flush()
	gotPkts, gotBytes := col.Totals()
	if gotPkts != sentPkts || gotBytes != sentBytes {
		t.Fatalf("expiry flush exported %d/%d, expired flow saw %d/%d",
			gotPkts, gotBytes, sentPkts, sentBytes)
	}
	// The flush is selective: the bystander flow's window is intact.
	snaps := tab.Snapshot()
	if len(snaps) != 1 || snaps[0].Packets != byPkts || snaps[0].Bytes != byBytes {
		t.Fatalf("bystander flow disturbed by expiry flush: %+v", snaps)
	}
	// Exactness overall: exported + live == classified.
	cs := sw.CacheStats()
	classified := cs.Hits.Load() + cs.Misses.Load()
	if gotPkts+byPkts != classified {
		t.Fatalf("exported %d + live %d != classified %d", gotPkts, byPkts, classified)
	}
}

// TestTelemetryExpiryFlushesHeaderMatchedFlows: the expiry flush tests
// an expired entry's match against the packed key of the packet that
// opened each record, so an entry matching fields no FlowKey holds (ARP,
// VLAN PCP) still ends its flows' records.
func TestTelemetryExpiryFlushesHeaderMatchedFlows(t *testing.T) {
	cases := []struct {
		name   string
		match  func(m *openflow.Match)
		layers []pkt.SerializableLayer
	}{
		{"arp_op", func(m *openflow.Match) { m.WithEthType(pkt.EtherTypeARP).WithARPOp(1) },
			[]pkt.SerializableLayer{
				&pkt.Ethernet{Src: macA, Dst: pkt.BroadcastMAC, EtherType: pkt.EtherTypeARP},
				&pkt.ARP{Op: 1, SenderHW: macA, SenderIP: ipA, TargetIP: ipB},
			}},
		{"vlan_pcp", func(m *openflow.Match) { m.WithVLAN(7).WithVLANPCP(3) },
			[]pkt.SerializableLayer{
				&pkt.Ethernet{Src: macA, Dst: macB, EtherType: pkt.EtherTypeDot1Q},
				&pkt.Dot1Q{Priority: 3, VLANID: 7, EtherType: pkt.EtherTypeIPv4},
				&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ipA, Dst: ipB},
				&pkt.UDP{SrcPort: 5000, DstPort: 80},
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := netem.NewManualClock()
			// Telemetry timers parked at an hour: only the expiry flush
			// can export these records inside the test.
			sw, tab := telSwitch(t, telemetry.Config{
				ActiveTimeout: time.Hour, IdleTimeout: time.Hour, SweepInterval: time.Hour,
			}, WithClock(clk))
			col := telemetry.NewCollector()
			agg := telemetry.NewAggregator(tab, col, time.Hour)
			m := openflow.Match{}
			m.WithInPort(1)
			c.match(&m)
			_, err := sw.ApplyFlowMod(&openflow.FlowMod{
				TableID: 0, Command: openflow.FlowAdd, Priority: 20,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Match: m, IdleTimeout: 1,
				Instructions: []openflow.Instruction{apply(out(2))},
			})
			if err != nil {
				t.Fatal(err)
			}
			frame, err := pkt.Serialize(c.layers...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				sw.Receive(1, append([]byte(nil), frame...))
			}
			clk.Advance(2 * time.Second) // idle timeout (1s) elapses
			sw.SweepExpired()
			if sw.Table(0).Len() != 1 {
				t.Fatalf("table len = %d after expiry, want the catch-all alone", sw.Table(0).Len())
			}
			agg.Flush()
			if pkts, _ := col.Totals(); pkts != 5 {
				t.Fatalf("expiry flush exported %d packets, want 5", pkts)
			}
		})
	}
}

// TestTelemetryAttachMidFlight attaches the table after flows are
// already cached: records must resolve lazily off the existing cache
// entries and count only post-attach traffic.
func TestTelemetryAttachMidFlight(t *testing.T) {
	sw, tab := telSwitch(t, telemetry.Config{})
	sw.SetTelemetry(nil) // start detached
	f := func() []byte { return udpFrame(t, macA, macB, ipA, ipB, 5000, 80, "x") }
	for i := 0; i < 5; i++ {
		sw.Receive(1, f())
	}
	sw.SetTelemetry(tab)
	var want uint64
	for i := 0; i < 7; i++ {
		fr := f()
		want += uint64(len(fr))
		sw.Receive(1, fr)
	}
	// Batch path over the same cached flow.
	vec := [][]byte{f(), f()}
	want += uint64(len(vec[0]) + len(vec[1]))
	sw.ReceiveBatch(1, vec)

	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Hour)
	pkts, bytes := flush(tab, agg, col)
	if pkts != 9 || bytes != want {
		t.Fatalf("post-attach totals %d/%d, want 9/%d", pkts, bytes, want)
	}
}

// TestTelemetrySampledExports checks the 1-in-N sampler fires on the
// pure cache-hit path (traffic that never reaches the slow path after
// warm-up).
func TestTelemetrySampledExports(t *testing.T) {
	sw, tab := telSwitch(t, telemetry.Config{SampleRate: 8})
	f := func() []byte { return udpFrame(t, macA, macB, ipA, ipB, 5000, 80, "x") }
	for i := 0; i < 64; i++ {
		sw.Receive(1, f())
	}
	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Hour)
	flush(tab, agg, col)
	if _, _, samples, _ := col.Stats(); samples != 8 {
		t.Fatalf("samples = %d, want 8 (1-in-8 of 64)", samples)
	}
}

// TestTelemetryZeroAllocCacheHit enforces the hot-path contract: the
// cache-hit paths with telemetry attached and the sampler at 1/64, a
// batch and one frame at a time (ObserveBatch with a vector of one),
// allocate nothing in steady state.
func TestTelemetryZeroAllocCacheHit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; exactness gate runs unraced")
	}
	tab := telemetry.NewTable(telemetry.Config{
		SampleRate:    64,
		SweepInterval: time.Hour, // keep the sweep out of the measured window
	})
	sw := New("tel", 0x7e2)
	sw.SetTelemetry(tab)
	sw.AttachPort(2, "out", &discardBackend{})
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, sw, 0, 10, m, apply(out(2)))

	const nFlows, batch = 256, 64
	frames := make([][]byte, nFlows)
	for i := range frames {
		frames[i] = udpFrame(t, macA, macB, ipA, ipB, uint16(1024+i), 80, "payload")
	}
	// Warm: every flow cached, every telemetry record created.
	for _, f := range frames {
		sw.Receive(1, f)
	}
	vec := make([][]byte, batch)
	next := 0
	run := func() {
		for i := range vec {
			vec[i] = frames[next]
			next = (next + 1) % nFlows
		}
		sw.ReceiveBatch(1, vec)
	}
	run() // settle pools
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("cache-hit batch path with telemetry allocates %.1f/op, want 0", allocs)
	}
	one := func() {
		sw.Receive(1, frames[next])
		next = (next + 1) % nFlows
	}
	if allocs := testing.AllocsPerRun(100, one); allocs != 0 {
		t.Fatalf("cache-hit one-frame path with telemetry allocates %.1f/op, want 0", allocs)
	}
	if got := uint64(sw.CacheStats().Hits.Load()); got == 0 {
		t.Fatal("test did not exercise the cache-hit path")
	}
}

// TestTelemetrySwapTables: swapping the attached table mid-flight
// (different shard count) must not index old records into the new
// table — cached pointers re-resolve against the new plane and only
// post-swap traffic lands there.
func TestTelemetrySwapTables(t *testing.T) {
	sw, tabA := telSwitch(t, telemetry.Config{Shards: 4})
	f := func() []byte { return udpFrame(t, macA, macB, ipA, ipB, 5000, 80, "x") }
	for i := 0; i < 6; i++ {
		sw.Receive(1, f()) // flow cached, record minted by tabA
	}
	tabB := telemetry.NewTable(telemetry.Config{Shards: 1})
	sw.SetTelemetry(tabB)
	for i := 0; i < 5; i++ {
		sw.Receive(1, f()) // pure cache hits with the stale pointer
	}
	vec := [][]byte{f(), f(), f()}
	sw.ReceiveBatch(1, vec)
	if got := tabA.Snapshot()[0].Packets; got != 6 {
		t.Fatalf("old table saw %d packets, want the 6 pre-swap", got)
	}
	if got := tabB.Snapshot()[0].Packets; got != 8 {
		t.Fatalf("new table saw %d packets, want the 8 post-swap", got)
	}
}

// TestTelemetryOutPortFromCachedProgram: the record's egress port
// comes from the recorded megaflow, including on pure hits.
func TestTelemetryOutPortFromCachedProgram(t *testing.T) {
	sw, tab := telSwitch(t, telemetry.Config{})
	for i := 0; i < 3; i++ {
		sw.Receive(1, udpFrame(t, macA, macB, ipA, ipB, 5000, 80, "x"))
	}
	snaps := tab.Snapshot()
	if len(snaps) != 1 || snaps[0].OutPort != 2 {
		t.Fatalf("snapshot = %+v, want out-port 2", snaps)
	}
}
