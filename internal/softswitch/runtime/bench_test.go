package runtime_test

// Worker-pool scaling benchmarks. BenchmarkWorkerScaling drives one
// switch through N poll-mode workers from N producers and reports
// aggregate packets/s — near-linear scaling up to the core count is
// the acceptance bar (compare workers=1 vs workers=4 pps on a
// multi-core host; a single-core host serializes everything and shows
// none). Its workers=0 row is the pool's baseline: one caller sends
// the same flows straight into ReceiveBatch in 32-frame bursts. Run with
//
//	go test -run '^$' -bench WorkerScaling ./internal/softswitch/runtime
//
// The ruleset installs one exact-match entry per flow, so with RSS
// flow sharding each entry's counters are only ever touched by one
// worker — the per-flow cache lines stay core-local, like a real
// RSS-sharded datapath.

import (
	"fmt"
	"sync"
	"testing"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
)

// discardBackend swallows egress with no bookkeeping at all.
type discardBackend struct{}

func (discardBackend) Transmit([]byte)        {}
func (discardBackend) TransmitBatch([][]byte) {}

const benchFlows = 256

// benchFlowSpecs is the shared flow set: every producer emits these
// same 256 flows, and the switch holds one exact-match entry for each.
func benchFlowSpecs() []fabric.FlowSpec {
	specs := make([]fabric.FlowSpec, benchFlows)
	for i := range specs {
		specs[i] = fabric.FlowSpec{
			SrcMAC: pkt.MAC{0x02, 0x10, 0, 0, byte(i >> 8), byte(i)},
			DstMAC: pkt.MAC{0x02, 0x20, 0, 0, byte(i >> 8), byte(i)},
			SrcIP:  pkt.IPv4{10, 1, byte(i >> 8), byte(i)},
			DstIP:  pkt.IPv4{10, 2, byte(i >> 8), byte(i)},
			Sport:  uint16(1024 + i),
			Dport:  uint16(50000 + i),
		}
	}
	return specs
}

// newScalingSwitch installs one exact-match UDP entry per bench flow,
// all outputting to a discard port.
func newScalingSwitch(b *testing.B) *softswitch.Switch {
	b.Helper()
	sw := softswitch.New("scale", 0x5ca1e)
	sw.AttachPort(2, "out", discardBackend{})
	for i := 0; i < benchFlows; i++ {
		m := openflow.Match{}
		m.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).
			WithUDPDst(uint16(50000 + i))
		addFlow(b, sw, 0, 100, m, outputTo(2))
	}
	return sw
}

// BenchmarkWorkerScaling sweeps the worker count. Each of W producers
// pushes its share of b.N frames (retrying on a full ring, which is
// the natural backpressure), then the pool drains; pps is aggregate
// frames over wall time. workers=0 runs no pool: the benchmark
// goroutine itself forwards b.N frames in 32-frame ReceiveBatch calls.
func BenchmarkWorkerScaling(b *testing.B) {
	specs := benchFlowSpecs()
	b.Run("workers=0", func(b *testing.B) {
		const burst = 32
		sw := newScalingSwitch(b)
		gen := fabric.NewFlowGenerator(64, specs)
		var vec [][]byte
		for i := 0; i < gen.Len(); i += burst { // warm every megaflow
			vec = gen.NextBatch(vec, burst)
			sw.ReceiveBatch(1, vec)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for left := b.N; left > 0; left -= burst {
			vec = gen.NextBatch(vec, min(left, burst))
			sw.ReceiveBatch(1, vec)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sw := newScalingSwitch(b)
			pool := ssruntime.New(sw, ssruntime.Config{Workers: workers})
			pool.Start()
			defer pool.Stop()

			// Warm every flow's megaflow before the clock starts.
			warm := fabric.NewFlowGenerator(64, specs)
			for i := 0; i < warm.Len(); i++ {
				for !pool.Dispatch(1, warm.Next()) {
				}
			}
			pool.Drain()
			base := pool.Stats().Frames // exclude warm-up from the metric

			producers := workers
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				// Split b.N exactly: the first b.N%producers producers
				// carry one extra frame (b.N can be tiny, e.g. CI's
				// -benchtime 1x).
				per := b.N / producers
				if p < b.N%producers {
					per++
				}
				wg.Add(1)
				go func(per int) {
					defer wg.Done()
					gen := fabric.NewFlowGenerator(64, specs)
					for i := 0; i < per; i++ {
						for !pool.Dispatch(1, gen.Next()) {
							// ring full: the workers are the bottleneck, wait
						}
					}
				}(per)
			}
			wg.Wait()
			pool.Drain()
			b.StopTimer()
			processed := pool.Stats().Frames - base
			b.ReportMetric(float64(processed)/b.Elapsed().Seconds(), "pps")
		})
	}
}
