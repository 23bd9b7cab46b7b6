package harmless_test

// Benchmark harness: one benchmark family per quantitative experiment
// of DESIGN.md's index. Run with
//
//	go test -bench=. -benchmem .
//
// BenchmarkE2_Throughput regenerates the frame-size throughput sweep
// (bare software switch vs the full HARMLESS chain);
// BenchmarkE2_ChainBurst is the same comparison
// in 32-frame bursts into a counting sink, the pair cmd/benchdiff
// gates (chain >= 1/6 of bare); BenchmarkE3_PathLatency measures per-packet
// forwarding latency of the same paths; BenchmarkE8_TableScaling
// regenerates the flow-table scaling series (pipeline lookup cost vs
// rule count and vs access-port count).

import (
	"fmt"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// benchFrameSizes is the RFC 2544 ladder used by E2.
var benchFrameSizes = []int{64, 128, 256, 512, 1024, 1500}

// --- E2: throughput vs frame size -------------------------------------

// benchFrame builds the host 1 -> host 2 UDP frame of the given wire
// size that every E2/E3 path forwards.
func benchFrame(b testing.TB, size int) []byte {
	b.Helper()
	payloadLen := size - pkt.EthernetHeaderLen - pkt.IPv4MinHeaderLen - pkt.UDPHeaderLen
	if payloadLen < 0 {
		payloadLen = 0
	}
	payload := make(pkt.Payload, payloadLen)
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(1), Dst: fabric.HostIP(2)},
		&pkt.UDP{SrcPort: 7777, DstPort: 8888},
		&payload,
	)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchArenaSlots is the injector ring of the E2/E3 loops: every link
// is synchronous, so one burst is all that is ever in flight.
const benchArenaSlots = 256

// bareSwitchPath builds a 2-port software switch with one exact flow
// and returns the port to inject into; *delivered counts the frames
// that came out of the other side.
func bareSwitchPath(b *testing.B) (in *netem.Port, delivered *int, cleanup func()) {
	b.Helper()
	sw := softswitch.New("bare", 0xbb)
	l1 := netem.NewLink(netem.LinkConfig{})
	l2 := netem.NewLink(netem.LinkConfig{})
	sw.AttachNetPort(1, "in", l1.A())
	sw.AttachNetPort(2, "out", l2.A())
	delivered = new(int)
	l2.B().SetReceiver(func([]byte) { *delivered++ })
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		b.Fatal(err)
	}
	return l1.B(), delivered, func() { l1.Close(); l2.Close() }
}

// harmlessPath builds the full chain (legacy switch + S4 + learning
// controller) and pre-warms the flows between hosts 1 and 2.
func harmlessPath(b testing.TB) *fabric.Deployment {
	b.Helper()
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := d.WaitConnected(3 * time.Second); err != nil {
		b.Fatal(err)
	}
	// Warm: ARP + learned flows both ways.
	if err := d.Hosts[1].Ping(d.Hosts[2].IP, 2*time.Second); err != nil {
		b.Fatal(err)
	}
	if err := d.Hosts[1].Ping(d.Hosts[2].IP, 2*time.Second); err != nil {
		b.Fatal(err)
	}
	return d
}

func BenchmarkE2_Throughput(b *testing.B) {
	for _, path := range []string{"bare-softswitch", "harmless-chain"} {
		for _, size := range benchFrameSizes {
			b.Run(fmt.Sprintf("%s/frame=%d", path, size), func(b *testing.B) {
				var inject func([]byte)
				if path == "harmless-chain" {
					d := harmlessPath(b)
					defer d.Close()
					inject = d.Hosts[1].SendRaw
				} else {
					in, _, cleanup := bareSwitchPath(b)
					defer cleanup()
					inject = func(f []byte) { _ = in.Send(f) }
				}
				frame := benchFrame(b, size)
				arena := fabric.NewArena(benchArenaSlots, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// The path owns what it is sent and re-tags it in
					// place: every iteration injects a fresh copy.
					inject(arena.Copy(frame))
				}
			})
		}
	}
}

// BenchmarkE2_ChainBurst is the paper's claim as a same-run pair: the
// same 64-byte frames in 32-frame bursts through the bare software
// switch and through the full HARMLESS chain, each into a counting
// sink (no decoding host in the measured path). cmd/benchdiff
// -pair-check gates chain >= 1/6 of bare.
func BenchmarkE2_ChainBurst(b *testing.B) {
	const burst, size = 32, 64
	for _, path := range []string{"bare", "chain"} {
		b.Run(path, func(b *testing.B) {
			var in *netem.Port
			delivered := new(int)
			if path == "chain" {
				d := harmlessPath(b)
				defer d.Close()
				// Links[i] serves access port i+1; its B end is the host's.
				in = d.Links[0].B()
				d.Links[1].B().SetReceiver(func([]byte) { *delivered++ })
			} else {
				var cleanup func()
				in, delivered, cleanup = bareSwitchPath(b)
				defer cleanup()
			}
			frame := benchFrame(b, size)
			arena := fabric.NewArena(benchArenaSlots, size)
			vec := make([][]byte, burst)
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += burst {
				for i := range vec {
					vec[i] = arena.Copy(frame)
				}
				_ = in.SendBatch(vec)
			}
			b.StopTimer()
			if sent := (b.N + burst - 1) / burst * burst; *delivered != sent {
				b.Fatalf("sink counted %d of %d frames", *delivered, sent)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
		})
	}
}

// --- E2: batch-size sweep ---------------------------------------------

// BenchmarkE2_BatchSweep records the throughput trajectory of the
// batched dataplane API: the same 64-byte many-flow workload pushed
// through ReceiveBatch in vectors of 1/8/32/256 frames, with the ring
// egress backend so nothing but the datapath is in the measured loop.
// batch=1 is the per-frame wrapper baseline the larger vectors are
// judged against.
func BenchmarkE2_BatchSweep(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sw := softswitch.New("sweep", 0xe2)
			in := netem.NewLink(netem.LinkConfig{})
			defer in.Close()
			sw.AttachNetPort(1, "in", in.A())
			ring := softswitch.NewRingBackend(4096)
			sw.AttachPort(2, "out", ring)
			m := openflow.Match{}
			m.WithInPort(1)
			if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
				TableID: 0, Command: openflow.FlowAdd, Priority: 10,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
					Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
				}},
			}); err != nil {
				b.Fatal(err)
			}
			gen := fabric.NewUDPGenerator(64, 1024, 7)
			// Warm the flow cache.
			for i := 0; i < gen.Len(); i++ {
				sw.Receive(1, gen.Next())
			}
			var vec, sink [][]byte
			b.SetBytes(64)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += batch {
				if batch == 1 {
					sw.Receive(1, gen.Next())
				} else {
					vec = gen.NextBatch(vec, batch)
					sw.ReceiveBatch(1, vec)
				}
				sink = ring.Ring().Drain(sink[:0], 0)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
		})
	}
}

// --- E2 ablation: translator hop alone --------------------------------

func BenchmarkE2_TranslatorOnly(b *testing.B) {
	plan, err := harmless.PlanMigration(harmless.PlanConfig{
		Hostname: "bench", NumPorts: 24,
	})
	if err != nil {
		b.Fatal(err)
	}
	s4, err := harmless.BuildS4(plan, harmless.S4Config{})
	if err != nil {
		b.Fatal(err)
	}
	trunk := netem.NewLink(netem.LinkConfig{})
	defer trunk.Close()
	s4.AttachTrunk(trunk.B())
	// SS_2 bounces logical 1 -> logical 2.
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := s4.SS2.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		b.Fatal(err)
	}
	trunk.A().SetReceiver(func([]byte) {})
	payload := pkt.Payload(make([]byte, 100))
	inner, err := pkt.Serialize(
		&pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(1), Dst: fabric.HostIP(2)},
		&pkt.UDP{SrcPort: 1, DstPort: 2},
		&payload,
	)
	if err != nil {
		b.Fatal(err)
	}
	tagged, err := pkt.PushVLAN(inner, pkt.EtherTypeDot1Q, 101)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(tagged)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]byte, len(tagged))
		copy(cp, tagged)
		_ = trunk.A().Send(cp)
	}
}

// --- E3: per-packet forwarding latency --------------------------------

// BenchmarkE3_PathLatency measures one traversal of each path with
// sync links: ns/op IS the processing latency added per packet.
func BenchmarkE3_PathLatency(b *testing.B) {
	const size = 256
	b.Run("bare-softswitch", func(b *testing.B) {
		in, _, cleanup := bareSwitchPath(b)
		defer cleanup()
		frame := benchFrame(b, size)
		arena := fabric.NewArena(benchArenaSlots, size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = in.Send(arena.Copy(frame))
		}
	})
	b.Run("harmless-chain", func(b *testing.B) {
		d := harmlessPath(b)
		defer d.Close()
		frame := benchFrame(b, size)
		arena := fabric.NewArena(benchArenaSlots, size)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Hosts[1].SendRaw(arena.Copy(frame))
		}
	})
}

// --- E8: flow-table scaling -------------------------------------------

func BenchmarkE8_TableScaling(b *testing.B) {
	for _, rules := range []int{16, 256, 4096, 16384} {
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			sw := softswitch.New("scale", 0xcc)
			in := netem.NewLink(netem.LinkConfig{})
			out := netem.NewLink(netem.LinkConfig{})
			defer in.Close()
			defer out.Close()
			sw.AttachNetPort(1, "in", in.A())
			sw.AttachNetPort(2, "out", out.A())
			out.B().SetReceiver(func([]byte) {})
			// Exact-match rules over destination IPs.
			for i := 0; i < rules; i++ {
				m := openflow.Match{}
				m.WithEthType(pkt.EtherTypeIPv4).
					WithIPv4Dst(pkt.IPv4FromUint32(0x0a000000 + uint32(i)))
				if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
					TableID: 0, Command: openflow.FlowAdd, Priority: 100,
					BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
					Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
						Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
					}},
				}); err != nil {
					b.Fatal(err)
				}
			}
			// Hit the median rule.
			payload := pkt.Payload(make([]byte, 26))
			frame, err := pkt.Serialize(
				&pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4},
				&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP,
					Src: fabric.HostIP(1), Dst: pkt.IPv4FromUint32(0x0a000000 + uint32(rules/2))},
				&pkt.UDP{SrcPort: 1, DstPort: 2},
				&payload,
			)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = in.B().Send(frame)
			}
		})
	}
}

// BenchmarkE8_PortScaling measures the translator cost as the number
// of migrated access ports grows (VLAN fan-out on SS_1).
func BenchmarkE8_PortScaling(b *testing.B) {
	for _, ports := range []int{4, 8, 16, 48} {
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			plan, err := harmless.PlanMigration(harmless.PlanConfig{
				Hostname: "scale", NumPorts: ports + 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			s4, err := harmless.BuildS4(plan, harmless.S4Config{})
			if err != nil {
				b.Fatal(err)
			}
			trunk := netem.NewLink(netem.LinkConfig{})
			defer trunk.Close()
			s4.AttachTrunk(trunk.B())
			trunk.A().SetReceiver(func([]byte) {})
			// SS_2: port 1 -> port 2.
			m := openflow.Match{}
			m.WithInPort(1)
			if _, err := s4.SS2.ApplyFlowMod(&openflow.FlowMod{
				TableID: 0, Command: openflow.FlowAdd, Priority: 10,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
					Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
				}},
			}); err != nil {
				b.Fatal(err)
			}
			gen := fabric.NewUDPGenerator(128, 8, 7)
			base := gen.CopyNext()
			tagged, err := pkt.PushVLAN(base, pkt.EtherTypeDot1Q, 101)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(tagged)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp := make([]byte, len(tagged))
				copy(cp, tagged)
				_ = trunk.A().Send(cp)
			}
		})
	}
}
