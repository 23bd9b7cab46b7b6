package main

// The telemetry exercise mode: a heavy-hitter + mouse-churn traffic
// mix through a bare switch with the flow-telemetry plane attached —
// the workload that makes the aggregation window, the active/idle
// export timers and the sampler actually work for their living.

import (
	"fmt"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

type mixConfig struct {
	flows      int
	elephants  int
	mouseLife  int
	duration   time.Duration
	workers    int
	batch      int
	sampleRate int
	export     string
}

// mixSwitch builds the bare forwarding switch (port 1 -> port 2
// discard) used by the mix run.
func mixSwitch(tab *telemetry.Table) *softswitch.Switch {
	sw := softswitch.New("mix", 1, softswitch.WithTelemetry(tab))
	sw.AttachPort(2, "out", &discardBackend{})
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
	// The window is also how often the drain ring is emptied, and 1-in-N
	// samples share the ring with the flow records: at -sample-rate 16 a
	// 500 ms window overflows it past 2.6 Mpps and records are lost. At
	// 100 ms the ring holds out to 10 Mpps.
	agg := telemetry.NewAggregator(tab, exp, 100*time.Millisecond)
	agg.Start()
	defer agg.Stop()

	sw := mixSwitch(tab)
	gen := fabric.NewMixGenerator(64, cfg.elephants, cfg.flows, cfg.mouseLife, 0.8, 42)
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

	if cfg.workers > 0 {
		pool := ssruntime.New(sw, ssruntime.Config{Workers: cfg.workers})
		pool.Start()
		for time.Now().Before(deadline) {
			for i := 0; i < 256; i++ {
				if pool.Dispatch(1, gen.Next()) {
					sent++
				}
			}
			select {
			case <-status.C:
				printStatus()
			default:
			}
		}
		pool.Stop() // drains and flushes telemetry
	} else {
		batchN := cfg.batch
		if batchN < 1 {
			batchN = 1
		}
		var vec [][]byte
		for time.Now().Before(deadline) {
			vec = gen.NextBatch(vec, batchN)
			sw.ReceiveBatch(1, vec)
			sent += uint64(len(vec))
			select {
			case <-status.C:
				printStatus()
			default:
			}
		}
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
