package softswitch_test

// Flow-cache benchmarks: cached vs uncached datapath on a
// realistic two-table ruleset (64 entries per table), under
// single-flow, uniform many-flow, Zipf many-flow, and adversarial
// cache-thrash traffic. Run with
//
//	go test -bench=. -benchmem ./internal/softswitch
//
// The pps metric makes the comparison direct: `make bench` holds every
// cached row to at least 0.85 of its uncached sibling.

import (
	"fmt"
	"testing"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// benchSwitch builds a switch with a realistic ruleset: table 0 holds
// 63 L3 distractor entries — /24 prefixes, as an access ACL has — above
// a port-match entry that sends everything to table 1; table 1 holds 63
// L4 distractor entries above a catch-all that outputs on port 2. Each
// table is one mask and a default, so an uncached walk probes four
// tuples, about the price of a cache hit: cached/uncached reads about 1
// on this ruleset, and the gate on it says only that the cache is no
// tax. Generated benchmark traffic (10.1/16 -> 10.2/16 UDP) never
// matches a distractor.
func benchSwitch(b *testing.B, opts ...softswitch.Option) *softswitch.Switch {
	b.Helper()
	sw := softswitch.New("bench", 0xbe, opts...)
	for _, port := range []uint32{1, 2} {
		l := netem.NewLink(netem.LinkConfig{})
		b.Cleanup(l.Close)
		sw.AttachNetPort(port, "p", l.A())
		l.B().SetReceiver(func([]byte) {})
	}
	add := func(table uint8, priority uint16, m openflow.Match, instrs ...openflow.Instruction) {
		_, err := sw.ApplyFlowMod(&openflow.FlowMod{
			TableID: table, Command: openflow.FlowAdd, Priority: priority,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: instrs,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	output2 := &openflow.InstrApplyActions{Actions: []openflow.Action{
		&openflow.ActionOutput{Port: 2, MaxLen: 0xffff},
	}}
	for i := 0; i < 63; i++ {
		m := openflow.Match{}
		m.WithInPort(1).WithEthType(pkt.EtherTypeIPv4).
			WithIPv4DstMasked(pkt.IPv4{10, 9, byte(i), 0}, pkt.IPv4{255, 255, 255, 0})
		add(0, uint16(1000-i), m, output2)
	}
	mIn := openflow.Match{}
	mIn.WithInPort(1)
	add(0, 10, mIn, &openflow.InstrGotoTable{TableID: 1})
	for i := 0; i < 63; i++ {
		m := openflow.Match{}
		m.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).
			WithUDPDst(uint16(50000 + i))
		add(1, uint16(1000-i), m, output2)
	}
	add(1, 1, openflow.Match{}, output2)
	return sw
}

// frameSource is any generator of benchmark frames (fabric.Generator,
// fabric.MixGenerator, ...).
type frameSource interface{ Next() []byte }

// drive pushes warm packets of src through the switch untimed (cache
// fill, pool growth, adaptive-bypass convergence — thrash workloads
// need >= 2 windows per shard to settle), then reports packets per
// second over the timed run.
func drive(b *testing.B, sw *softswitch.Switch, src frameSource, warm int) {
	b.Helper()
	for i := 0; i < warm; i++ {
		sw.Receive(1, src.Next())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Receive(1, src.Next())
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

func BenchmarkSingleFlow(b *testing.B) {
	for _, v := range []struct {
		name string
		opts []softswitch.Option
	}{
		{"uncached", []softswitch.Option{softswitch.WithFlowCacheSize(0)}},
		{"cached", nil},
	} {
		b.Run(v.name, func(b *testing.B) {
			drive(b, benchSwitch(b, v.opts...), fabric.NewUDPGenerator(64, 1, 7), 256)
		})
	}
}

// driveBatch pushes generator traffic through the switch in vectors of
// the given size via ReceiveBatch and reports packets per second —
// directly comparable to drive's per-frame pps.
func driveBatch(b *testing.B, sw *softswitch.Switch, gen *fabric.Generator, batch int) {
	b.Helper()
	for i := 0; i < gen.Len(); i++ {
		sw.Receive(1, gen.Next())
	}
	var vec [][]byte
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n += batch {
		vec = gen.NextBatch(vec, batch)
		sw.ReceiveBatch(1, vec)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// BenchmarkReceiveBatch sweeps the batch size on the cached many-flow
// workload: batch=1 is the per-frame wrapper baseline, larger vectors
// amortize key extraction, class locks and egress flushes. Then 32-frame
// bursts of 1024 flows through the L2 program: one-megaflow sends every
// frame to one host, so each burst is one run on one cache entry;
// alternating sends to two hosts in turn, two entries, so every run is
// one frame long. `make bench` gates the pair: a run must cost less than
// its frames replayed one by one.
func BenchmarkReceiveBatch(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			driveBatch(b, benchSwitch(b), fabric.NewUDPGenerator(64, 1024, 7), batch)
		})
	}
	for _, w := range []struct {
		name  string
		hosts []pkt.MAC
	}{
		{"one-megaflow", []pkt.MAC{fabric.HostMAC(2)}},
		{"alternating", []pkt.MAC{fabric.HostMAC(2), fabric.HostMAC(3)}},
	} {
		b.Run(w.name, func(b *testing.B) {
			driveBatch(b, l2Switch(b), fabric.NewFlowGenerator(64, l2Flows(1024, w.hosts)), 32)
		})
	}
}

// l2Switch is a switch with the L2 program apps.Learning leaves once
// hosts 2 and 3 have talked: one eth_dst entry per host, above the
// table-miss. Both entries output to port 2, a sink, so that traffic to
// one host and traffic to both differ in their runs and nothing else.
func l2Switch(b *testing.B) *softswitch.Switch {
	b.Helper()
	sw := softswitch.New("l2", 0x12)
	sw.AttachPort(1, "in", &benchDiscard{})
	sw.AttachPort(2, "out", &benchDiscard{})
	for _, fm := range []struct {
		priority uint16
		host     int
		port     uint32
	}{{10, 2, 2}, {10, 3, 2}, {0, 0, openflow.PortController}} {
		m := openflow.Match{}
		if fm.host != 0 {
			m.WithEthDst(fabric.HostMAC(fm.host))
		}
		if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
			TableID: 0, Command: openflow.FlowAdd, Priority: fm.priority,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
			Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
				Actions: []openflow.Action{&openflow.ActionOutput{Port: fm.port, MaxLen: 0xffff}},
			}},
		}); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

// l2Flows builds n flows from distinct sources to the hosts in turn: the
// L2 program tells them apart by destination alone.
func l2Flows(n int, hosts []pkt.MAC) []fabric.FlowSpec {
	flows := make([]fabric.FlowSpec, n)
	for i := range flows {
		flows[i] = fabric.FlowSpec{
			SrcMAC: pkt.MAC{0x02, 0x30, 0, 0, byte(i >> 8), byte(i)},
			DstMAC: hosts[i%len(hosts)],
			SrcIP:  pkt.IPv4{10, 1, byte(i >> 8), byte(i)},
			DstIP:  pkt.IPv4{10, 2, 0, 1},
			Sport:  uint16(1024 + i),
			Dport:  9999,
		}
	}
	return flows
}

// wildcardFlows builds flows that differ only in fields the bench
// ruleset never consults (MACs, source IP, source port): 4096
// distinct header keys, but every packet projects onto ONE mask-class
// entry.
func wildcardFlows(n int) []fabric.FlowSpec {
	flows := make([]fabric.FlowSpec, n)
	for i := range flows {
		flows[i] = fabric.FlowSpec{
			SrcMAC: pkt.MAC{0x02, 0x30, 0, 0, byte(i >> 8), byte(i)},
			DstMAC: pkt.MAC{0x02, 0x40, 0, 0, byte(i >> 8), byte(i)},
			SrcIP:  pkt.IPv4{10, 1, byte(i >> 8), byte(i)},
			DstIP:  pkt.IPv4{10, 2, 0, 1},
			Sport:  uint16(1024 + i),
			Dport:  9999,
		}
	}
	return flows
}

func BenchmarkManyFlows(b *testing.B) {
	workloads := []struct {
		name string
		gen  func() frameSource
		opts []softswitch.Option
		warm int
	}{
		// 1024 flows, round-robin: every flow stays cached.
		{"uniform", func() frameSource { return fabric.NewUDPGenerator(64, 1024, 7) }, nil, 2048},
		// 1024 flows, Zipf popularity: the hot head dominates.
		{"zipf", func() frameSource { return fabric.NewZipfGenerator(64, 1024, 1.2, 7) }, nil, 8192},
		// 4096 flows round-robin against a 256-entry cache: every
		// packet misses and evicts (the adversarial worst case; the
		// warm count lets adaptive bypass converge on every shard).
		{"thrash", func() frameSource { return fabric.NewThrashGenerator(64, 4096, 7) },
			[]softswitch.Option{softswitch.WithFlowCacheSize(256)}, 24576},
		// Elephant/mouse mix: 32 long-lived flows carry 80% of the
		// packets over a churning population of short-lived mice —
		// the production profile a pure exact-match cache thrashes on.
		{"churn", func() frameSource { return fabric.NewMixGenerator(32, 256, 16) },
			[]softswitch.Option{softswitch.WithFlowCacheSize(512)}, 16384},
		// 4096 flows varying only unconsulted header fields: their mask
		// class folds them into one wildcard entry.
		{"wildcard", func() frameSource { return fabric.NewFlowGenerator(64, wildcardFlows(4096)) },
			[]softswitch.Option{softswitch.WithFlowCacheSize(256)}, 8192},
	}
	for _, w := range workloads {
		for _, cached := range []bool{true, false} {
			name := w.name + "/uncached"
			opts := []softswitch.Option{softswitch.WithFlowCacheSize(0)}
			if cached {
				name = w.name + "/cached"
				opts = w.opts
			}
			b.Run(name, func(b *testing.B) {
				drive(b, benchSwitch(b, opts...), w.gen(), w.warm)
			})
		}
	}
}

// benchDiscard swallows egress so the telemetry-overhead comparison
// measures nothing but the datapath (and keeps the cache-hit batch
// path at 0 allocs/op, which the baseline asserts).
type benchDiscard struct{ n int }

func (d *benchDiscard) TransmitBatch(f [][]byte) { d.n += len(f) }

// BenchmarkTelemetryOverhead measures the flow-telemetry tax on the
// cache-hit batch path: telemetry off, accounting on, and accounting
// plus the 1-in-64 packet sampler (the acceptance configuration —
// expected within a few percent of off, 0 allocs/op).
func BenchmarkTelemetryOverhead(b *testing.B) {
	modes := []struct {
		name string
		cfg  *telemetry.Config
	}{
		{"off", nil},
		{"on", &telemetry.Config{}},
		{"sample64", &telemetry.Config{SampleRate: 64}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			sw := benchSwitch(b)
			sw.AttachPort(2, "out", &benchDiscard{})
			if mode.cfg != nil {
				sw.SetTelemetry(telemetry.NewTable(*mode.cfg))
			}
			driveBatch(b, sw, fabric.NewUDPGenerator(64, 1024, 7), 256)
		})
	}
}
