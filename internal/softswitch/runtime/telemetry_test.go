package runtime_test

// Telemetry under the poll-mode runtime: N producers, N RSS-sharded
// workers, shards == workers (the single-writer configuration), with
// a concurrent flusher to prove exported totals still reconcile
// exactly with the pool's own frame accounting.

import (
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

func TestPoolTelemetryExactUnderConcurrency(t *testing.T) {
	const workers = 4
	tab := telemetry.NewTable(telemetry.Config{
		Shards:     workers,
		SampleRate: 16,
		RingSize:   1 << 17,
	})
	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Millisecond)
	agg.Start()

	sw, _ := newForwardSwitch(t)
	sw.SetTelemetry(tab)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: workers})
	pool.Start()

	// Producers drive distinct flow sets; the RSS hash spreads them
	// over the workers, and with Shards == Workers every record is
	// only ever written by its flow's worker.
	nProducers := workers
	frames := scaled(20000)
	done := make(chan uint64, nProducers)
	for p := 0; p < nProducers; p++ {
		go func(p int) {
			gen := fabric.NewUDPGenerator(64, 64, int64(100+p))
			var sent uint64
			for i := 0; i < frames; i++ {
				f := gen.Next()
				cp := make([]byte, len(f))
				copy(cp, f)
				if pool.Dispatch(1, cp) {
					sent += uint64(len(cp))
				}
			}
			done <- sent
		}(p)
	}
	var sentBytes uint64
	for p := 0; p < nProducers; p++ {
		sentBytes += <-done
	}
	// Stop drains every admitted frame and flushes the table.
	pool.Stop()
	agg.Stop()
	agg.Flush()

	st := pool.Stats()
	gotPkts, gotBytes := col.Totals()
	if gotPkts != st.Frames || gotBytes != st.Bytes {
		t.Fatalf("collector %d pkts / %d bytes, pool processed %d / %d",
			gotPkts, gotBytes, st.Frames, st.Bytes)
	}
	if gotBytes != sentBytes {
		t.Fatalf("collector bytes %d != admitted bytes %d", gotBytes, sentBytes)
	}
	if lost := tab.Counters().RecordsLost.Load(); lost != 0 {
		t.Fatalf("drain ring overflowed (%d lost) — totals cannot be exact", lost)
	}
	if tab.Len() != 0 {
		t.Fatalf("%d records left live after Stop flush", tab.Len())
	}
}

// TestPoolIdleSweepExpiresFlows: a parked pool still advances the
// telemetry timers via the pre-park sweep.
func TestPoolIdleSweepExpiresFlows(t *testing.T) {
	tab := telemetry.NewTable(telemetry.Config{
		Shards:        2,
		IdleTimeout:   10 * time.Millisecond,
		SweepInterval: time.Millisecond,
	})
	sw, _ := newForwardSwitch(t)
	sw.SetTelemetry(tab)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 2})
	pool.Start()
	defer pool.Stop()

	gen := fabric.NewUDPGenerator(64, 8, 42)
	for i := 0; i < 64; i++ {
		f := gen.Next()
		cp := make([]byte, len(f))
		copy(cp, f)
		for !pool.Dispatch(1, cp) {
		}
	}
	pool.Drain()
	if tab.Len() == 0 {
		t.Fatal("no live records after traffic")
	}
	// No more traffic: workers go idle, sweep, park. The flows must
	// idle out without anyone driving the datapath. Workers park after
	// one sweep, so nudge them awake periodically with a frame that
	// keeps exactly one flow alive.
	keep := fabric.NewUDPGenerator(64, 1, 7)
	deadline := time.Now().Add(5 * time.Second)
	for tab.Counters().FlowsExpired.Load() < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("flows never expired: %d expired, %d live",
				tab.Counters().FlowsExpired.Load(), tab.Len())
		}
		f := keep.Next()
		cp := make([]byte, len(f))
		copy(cp, f)
		pool.Dispatch(1, cp)
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolTelemetryFromSwitch: the pool sweeps and flushes the table
// the switch was given, on the switch's clock — nothing about either is
// repeated to the pool, so nothing can be forgotten or contradicted.
func TestPoolTelemetryFromSwitch(t *testing.T) {
	manual := netem.NewManualClock()
	tab := telemetry.NewTable(telemetry.Config{Shards: 2})
	col := telemetry.NewCollector()
	agg := telemetry.NewAggregator(tab, col, time.Hour) // drained by Flush below, not by its timer

	sw, _ := newForwardSwitch(t, softswitch.WithClock(manual))
	sw.SetTelemetry(tab)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 2})
	pool.Start()
	gen := fabric.NewUDPGenerator(64, 16, 5)
	const frames = 160
	for i := 0; i < frames; i++ {
		for !pool.Dispatch(1, gen.CopyNext()) {
		}
	}
	pool.Stop()
	agg.Flush()

	if tab.Len() != 0 {
		t.Fatalf("%d records left live after Stop", tab.Len())
	}
	if pkts, _ := col.Totals(); pkts != frames {
		t.Fatalf("collector saw %d packets, want %d", pkts, frames)
	}
	flows := col.Flows()
	if len(flows) != 16 {
		t.Fatalf("collector saw %d flows, want 16", len(flows))
	}
	stamp := uint64(manual.Now().UnixMilli())
	for _, f := range flows {
		if f.FirstMs != stamp || f.LastMs != stamp {
			t.Errorf("flow %v stamped %d..%d ms, want the switch clock's %d", f.Key, f.FirstMs, f.LastMs, stamp)
		}
	}
}
