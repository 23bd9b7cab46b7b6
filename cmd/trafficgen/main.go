// Command trafficgen drives the flow-telemetry plane with realistic flow
// dynamics: a heavy-hitter + mouse-churn mix (-flows concurrently active
// short-lived flows over -elephants long-lived ones) runs for -duration
// through a bare switch with the telemetry table attached, so
// aggregation, the active/idle export timers and the 1-in-N sampler
// work for their living. It prints live telemetry state each second,
// the top talkers at the end, and verifies exported totals against the
// datapath counters (EXACT or MISMATCH); -telemetry-export also ships
// the IPFIX records to a real collector (see cmd/flowtop).
//
// With -workers N the mix enters through the poll-mode worker runtime
// (N RSS-sharded workers, one telemetry shard each); without it one
// caller sends one frame per Receive.
//
// Datapath throughput is measured by the committed benchmarks, not
// here: go test -bench E2 . for bare switch vs HARMLESS chain, and
// bash bench/run.sh for the end-to-end workloads.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

func main() {
	duration := flag.Duration("duration", 500*time.Millisecond, "how long the mix runs")
	workers := flag.Int("workers", 0, "poll-mode workers the mix enters through (0 = one caller, one frame per call)")
	flows := flag.Int("flows", 200, "concurrently active short-lived flows churning over the heavy hitters")
	elephants := flag.Int("elephants", 4, "long-lived heavy-hitter flows in the mix")
	mouseLife := flag.Int("mouse-life", 32, "packets each short-lived flow emits before being replaced")
	sampleRate := flag.Int("sample-rate", 64, "sFlow-style 1-in-N packet sampling (0 = off)")
	export := flag.String("telemetry-export", "", "also ship IPFIX records to this UDP collector address")
	flag.Parse()

	runMix(mixConfig{
		flows: *flows, elephants: *elephants, mouseLife: *mouseLife,
		duration: *duration, workers: *workers,
		sampleRate: *sampleRate, export: *export,
	})
}

type mixConfig struct {
	flows      int
	elephants  int
	mouseLife  int
	duration   time.Duration
	workers    int
	sampleRate int
	export     string
}

// discardBackend swallows egress frames: nothing but the datapath and
// the telemetry plane in the loop.
type discardBackend struct{}

func (discardBackend) TransmitBatch([][]byte) {}

// mixSwitch builds the bare forwarding switch (port 1 -> port 2
// discard) used by the mix run.
func mixSwitch(tab *telemetry.Table) *softswitch.Switch {
	sw := softswitch.New("mix", 1)
	sw.SetTelemetry(tab)
	sw.AttachPort(2, "out", discardBackend{})
	m := openflow.Match{}
	m.WithInPort(1)
	if _, err := sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}); err != nil {
		fatal("flow: %v", err)
	}
	return sw
}

func runMix(cfg mixConfig) {
	shards := 1
	if cfg.workers > 0 {
		shards = cfg.workers
	}
	tab := telemetry.NewTable(telemetry.Config{
		Shards:        shards,
		ActiveTimeout: 5 * time.Second,
		IdleTimeout:   2 * time.Second,
		SweepInterval: 250 * time.Millisecond,
		SampleRate:    cfg.sampleRate,
		RingSize:      1 << 16,
	})
	col := telemetry.NewCollector()
	var exp telemetry.Exporter = col
	if cfg.export != "" {
		udp, err := telemetry.NewUDPExporter(cfg.export)
		if err != nil {
			fatal("telemetry-export: %v", err)
		}
		defer udp.Close()
		exp = telemetry.TeeExporter{col, udp}
		fmt.Printf("exporting IPFIX records to udp://%s\n", cfg.export)
	}
	// The window is also how often the drain ring is emptied. Samples
	// may fill only half of it (Config.RingSize), so a short window
	// loses fewer samples; flow records, and so the verdict, never
	// depend on it.
	agg := telemetry.NewAggregator(tab, exp, 100*time.Millisecond)
	agg.Start()
	defer agg.Stop()

	sw := mixSwitch(tab)
	gen := fabric.NewMixGenerator(cfg.elephants, cfg.flows, cfg.mouseLife, 0.8, 42)
	fmt.Printf("mix: %d elephants (80%% of packets) + %d active mice over a pool of %d flows, %s\n",
		cfg.elephants, cfg.flows, gen.DistinctFlows(), cfg.duration)

	status := time.NewTicker(time.Second)
	defer status.Stop()
	start := time.Now()
	deadline := start.Add(cfg.duration)
	var sent uint64

	printStatus := func() {
		elapsed := time.Since(start).Seconds()
		c := tab.Counters()
		as := agg.Stats()
		fmt.Printf("t=%4.1fs %9.0f pps | live=%d churned=%d | %s | exported=%d biflows=%d samples=%d msgs=%d\n",
			elapsed, float64(sent)/elapsed, tab.Len(), gen.Churned(), c,
			as.FlowRecords, as.Biflows, as.Samples, as.Messages)
	}

	var pool *ssruntime.Pool
	if cfg.workers > 0 {
		pool = ssruntime.New(sw, ssruntime.Config{Workers: cfg.workers})
		pool.Start()
	}
	for time.Now().Before(deadline) {
		for i := 0; i < 256; i++ {
			if pool == nil {
				sw.Receive(1, gen.Next())
				sent++
			} else if pool.Dispatch(1, gen.Next()) {
				sent++
			}
		}
		select {
		case <-status.C:
			printStatus()
		default:
		}
	}
	if pool != nil {
		pool.Stop() // drains and flushes telemetry
	} else {
		tab.FlushAll(time.Now().UnixNano())
	}
	agg.Stop()
	agg.Flush()
	printStatus()

	fmt.Println("\ntop talkers (collector view):")
	fmt.Printf("%-4s %-48s %12s %12s %8s\n", "#", "flow", "packets", "bytes", "rev-pkts")
	for i, f := range col.Top(10) {
		fmt.Printf("%-4d %-48s %12d %12d %8d\n", i+1, f.Key, f.Packets+f.RevPackets, f.Bytes+f.RevBytes, f.RevPackets)
	}

	gotPkts, gotBytes := col.Totals()
	cs := sw.CacheStats()
	classified := cs.Hits.Load() + cs.Misses.Load()
	verdict := "EXACT"
	if gotPkts != classified {
		verdict = fmt.Sprintf("MISMATCH (lost %d on the drain ring?)", tab.Counters().RecordsLost.Load())
	}
	fmt.Printf("\nexported totals: %d pkts / %d bytes; datapath classified %d — %s\n",
		gotPkts, gotBytes, classified, verdict)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trafficgen: "+format+"\n", args...)
	os.Exit(1)
}
