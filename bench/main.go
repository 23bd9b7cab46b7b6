// Command bench is the repository's benchmark: the ruler every
// performance or simplicity change is judged by. It drives the real
// assemblies (bare softswitch, the full HARMLESS chain, the reactive
// control path) from outside through netem ports, verifies every frame
// at a counting sink, and reports five end-to-end metrics per workload;
// a separate traced run attributes the time to layers. See README.md.
//
//	bash bench/run.sh                                  all workloads, untraced
//	bash bench/run.sh -trace 1                         ... and the traced run of each
//	bash bench/run.sh -aa                              twice on the same code, compared against the bounds
//	bash bench/run.sh --workload chain_64B --seed 7 --seconds 20 --trace 0
//
// The last form is the driver's: its last line of output is one JSON
// object with the end-to-end (--trace 0) or per-layer (--trace 1)
// metrics of that workload.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

const (
	// rounds is how many fresh child processes — own heap, own GC
	// state, own set-up — measure each workload in an untraced run; see
	// aggregate for how their slices become one value.
	rounds = 5
	// defaultSeed is used when -seed is not given.
	defaultSeed = 20170822
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// procs is the GOMAXPROCS every process of the benchmark runs at:
	// one injector core, one for the controller goroutines and the GC.
	procs = 2
)

// runner executes one plan: in a child process normally, in this
// process under test.
type runner func(plan) (*childResult, error)

func runPlan(p plan) (*childResult, error) {
	if p.Mode == "probes" {
		return runProbes(p)
	}
	return runWorkload(p)
}

// interrupted is done once the benchmark is told to stop (SIGINT,
// SIGTERM): the child then running is killed and waited for, spawn
// returns its error and the benchmark exits with no process left behind.
var interrupted, _ = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)

// spawn runs a plan in a fresh process — own heap, own GC state — and
// waits for it to end.
func spawn(p plan) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	p.SpawnNs = time.Now().UnixNano()
	arg, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(interrupted, exe, "-child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %s %s: %w", p.Mode, p.Workload, err)
	}
	res := new(childResult)
	if err := json.Unmarshal(bytes.TrimSpace(out), res); err != nil {
		return nil, fmt.Errorf("child %s %s: bad result: %w", p.Mode, p.Workload, err)
	}
	return res, nil
}

// untraced is a workload's end-to-end outcome over all rounds.
type untraced struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	breaches  []string
	rounds    []*childResult
}

func (u *untraced) latSamples() (n int) {
	for _, r := range u.rounds {
		n += r.LatSamples
	}
	return n
}

// runUntraced measures the named workloads in interleaved rounds: in
// every round each workload runs once, for seconds/rounds, in its own
// process, in an order shuffled from the seed.
func runUntraced(names []string, seed int64, seconds float64, run runner) (map[string]*untraced, error) {
	out := make(map[string]*untraced, len(names))
	for _, n := range names {
		out[n] = &untraced{}
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < rounds; r++ {
		order := append([]string(nil), names...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, n := range order {
			phase := seconds / rounds / 2
			res, err := run(plan{Mode: "run", Workload: n, Seed: seed, TputSeconds: phase, LatSeconds: phase})
			if err != nil {
				return nil, err
			}
			u := out[n]
			u.rounds = append(u.rounds, res)
			u.attempted += res.Attempted
			u.failed += res.Failed
			for _, b := range res.Breaches {
				u.breaches = append(u.breaches, fmt.Sprintf("%s round %d: %s", n, r+1, b))
			}
		}
	}
	for _, u := range out {
		u.metrics = aggregate(u.rounds)
	}
	return out, nil
}

// quiet is the share of an untraced run's throughput slices (and
// latency chunks) that the reported value beats. The reference VM
// alternates, in stretches of seconds, between a quiet mode and one
// where atomics, clock reads and cache misses cost 25–35% more (a
// neighbour on the core); which mode fills most of a run is chance, so
// a median over the run moves by that much between runs of the same
// code. The quiet mode is the reproducible one: the value reported is
// the rate that the best 15% of slices exceed, pooled over all rounds —
// a high quantile, not the maximum, which would chase single lucky
// slices.
const quiet = 0.15

// quietTail is the same for the 99th percentiles, further from the edge:
// on acl_miss_64B the adaptive bypass's probation windows (64 of every
// 8256 lookups of a shard, so right at the 99th percentile) start out
// synchronized across the 32 shards, and until they have drifted apart
// a chunk's p99 reads 2 µs or 5 µs depending on whether it holds a
// probation round. Up to a quarter of the chunks of a round read low;
// the 15th percentile over chunks landed on either kind by chance.
const quietTail = 0.30

// aggregate folds the rounds of one workload into its end-to-end
// metrics.
func aggregate(rounds []*childResult) map[string]float64 {
	var rates, p50s, p99s, setups, mems []float64
	for _, r := range rounds {
		rates = append(rates, r.SliceMpps...)
		p50s = append(p50s, r.ChunkP50...)
		p99s = append(p99s, r.ChunkP99...)
		setups = append(setups, r.SetupS)
		mems = append(mems, r.MemMB)
	}
	return map[string]float64{
		"fwd_mpps":   quantileOf(rates, 1-quiet),
		"lat_p50_ns": quantileOf(p50s, quiet),
		"lat_p99_ns": quantileOf(p99s, quietTail),
		"setup_s":    median(setups),
		// The median, not the maximum: the runtime takes memory from
		// the OS in 4 MiB steps and one round in five takes one more.
		"mem_mb": median(mems),
	}
}

// traced is a workload's per-layer outcome.
type traced struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	breaches  []string
	children  []*childResult
}

// referenceWorkloads supply, from a short pass, the spans and the
// chain latency that the workload under test cannot: every traced run
// reports every per-layer metric as measured, never a placeholder.
var referenceWorkloads = []string{"bare_64B", "chain_64B", "reactive_64B"}

// runTraced is the traced run of one workload: a fixed-count untraced
// pass for the counters (so they repeat exactly), the same frames'
// worth of traced latency for the spans, short reference passes for the
// spans of the other kinds, and the isolated probes.
func runTraced(name string, seed int64, seconds float64, outDir string, run runner, scale int) (*traced, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	t := &traced{metrics: make(map[string]float64, len(perLayerMetrics))}
	pass := func(w *workload, div int, spanFile string) (*childResult, error) {
		res, err := run(plan{
			Mode: "run", Workload: w.name, Seed: seed,
			TputSeconds: seconds, LatSeconds: seconds, // safety caps only
			TputFrames:  max(w.countTput/div/w.sliceFrames, 1) * w.sliceFrames,
			LatFrames:   max(w.countLat/div, w.flows),
			TraceFrames: max(w.traceLat/div, w.flows),
			SpanFile:    spanFile,
		})
		if err != nil {
			return nil, err
		}
		t.children = append(t.children, res)
		t.attempted += res.Attempted
		t.failed += res.Failed
		for _, b := range res.Breaches {
			t.breaches = append(t.breaches, fmt.Sprintf("%s: %s", w.name, b))
		}
		return res, nil
	}

	var spanFile string
	if outDir != "" {
		spanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	}
	chainP50 := 0.0
	for _, ref := range referenceWorkloads {
		if ref == name {
			continue
		}
		rw, _ := findWorkload(ref)
		res, err := pass(rw, 8*scale, "")
		if err != nil {
			return nil, err
		}
		for span, ns := range res.Spans {
			t.metrics[span] = ns
		}
		if ref == "chain_64B" {
			chainP50 = res.LatP50
		}
	}
	main, err := pass(w, scale, spanFile)
	if err != nil {
		return nil, err
	}
	for span, ns := range main.Spans {
		t.metrics[span] = ns
	}
	if name == "chain_64B" {
		chainP50 = main.LatP50
	}
	probes, err := run(plan{Mode: "probes", Seed: seed, ProbeSeconds: 0.2 / float64(scale)})
	if err != nil {
		return nil, err
	}
	t.children = append(t.children, probes)

	m, c, rt, frames := t.metrics, main.Counters, main.Runtime, float64(main.Frames)
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	cacheLookups := float64(c.Hits + c.Misses + c.Bypassed)
	m["softswitch.hit_share"] = share(float64(c.Hits), cacheLookups)
	m["softswitch.slowpath_share"] = share(float64(c.Misses+c.Bypassed), cacheLookups)
	m["softswitch.evictions_per_kframe"] = share(float64(c.Evictions)*1e3, frames)
	m["softswitch.pktin_per_frame"] = share(float64(c.PktIns), frames)
	m["softswitch.drops"] = float64(c.Drops)
	m["flowtable.lookups_per_frame"] = share(float64(c.Lookups), frames)
	m["legacy.tx_per_rx"] = share(float64(c.LegacyTx), float64(c.LegacyRx))
	m["netem.tx_dropped"] = float64(c.NetemTxDropped)
	m["alloc.allocs_per_frame"] = share(float64(rt.Mallocs), frames)
	m["alloc.bytes_per_frame"] = share(float64(rt.Bytes), frames)
	m["alloc.copy_factor"] = share(float64(rt.Bytes), frames*float64(w.frameLen))
	m["gc.cycles_per_mframe"] = share(float64(rt.GCCycles)*1e6, frames)
	m["gc.pause_ms"] = float64(rt.PauseNs) / 1e6
	m["gc.cpu_share"] = share(rt.GCCPUS, rt.BusyCPUS)

	pr := probes.Probes
	for probe, r := range pr {
		m[probe] = r.NsPerOp
		for k, v := range r.Extra {
			m[k] = v
		}
	}
	m["legacy.allocs_per_frame"] = pr["legacy.tag_ns"].AllocsPerOp + pr["legacy.untag_ns"].AllocsPerOp
	m["harmless.s4_allocs_per_frame"] = pr["harmless.s4_roundtrip_ns"].AllocsPerOp
	m["telemetry.overhead_share"] = share(pr["telemetry.hit_b32_ns"].NsPerOp, pr["softswitch.hit_b32_ns"].NsPerOp) - 1
	m["harness.trace_overhead_share"] = share(main.TracedP50-main.LatP50, main.LatP50)
	model := pr["legacy.tag_ns"].NsPerOp + pr["harmless.s4_roundtrip_ns"].NsPerOp + pr["legacy.untag_ns"].NsPerOp + pr["harness.loop_ns"].NsPerOp
	m["path.model_gap_share"] = share(chainP50-model, chainP50)
	return t, nil
}

func allWorkloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// compareAA prints two untraced sets side by side and returns the
// pairings where the second is worse than the first by more than the
// metric's bound.
func compareAA(names []string, a, b map[string]*untraced) []string {
	var breaches []string
	fmt.Printf("%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, n := range names {
		for _, d := range e2eMetrics {
			va, vb := a[n].metrics[d.name], b[n].metrics[d.name]
			diff := relDiff(va, vb, d.higherBetter)
			mark := ""
			if diff > d.bound {
				mark = "  BREACH"
				breaches = append(breaches, fmt.Sprintf("%s %s: %.4f then %.4f, worse by %.1f%% (bound %.0f%%)", n, d.name, va, vb, diff*100, d.bound*100))
			}
			fmt.Printf("%-14s %-12s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", n, d.name, va, vb, diff*100, d.bound*100, mark)
		}
	}
	return breaches
}

func main() {
	var (
		child    = flag.String("child", "", "internal: run the plan given as JSON and print its result")
		workload = flag.String("workload", "", "run one workload (default: all five, interleaved)")
		seed     = flag.Int64("seed", defaultSeed, "traffic seed: same seed, same frames")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1: traced run, per-layer metrics; with no -workload, both runs of every workload")
		aa       = flag.Bool("aa", false, "run the untraced set twice on the same code and compare against the bounds")
		outDir   = flag.String("out", "bench/out", "directory for span files and the JSON record")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	code, err := run(*child, *workload, *seed, *seconds, *trace, *aa, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(child, workload string, seed int64, seconds float64, trace int, aa bool, outDir string) (int, error) {
	if child != "" {
		var p plan
		if err := json.Unmarshal([]byte(child), &p); err != nil {
			return 0, err
		}
		res, err := runPlan(p)
		if err != nil {
			return 0, err
		}
		return 0, json.NewEncoder(os.Stdout).Encode(res)
	}
	if seconds < 1 {
		return 0, errors.New("-seconds must be at least 1")
	}
	names := allWorkloadNames()
	if workload != "" {
		if _, err := findWorkload(workload); err != nil {
			return 0, err
		}
		names = []string{workload}
	}
	rec := &record{Env: readEnvironment(seed, seconds), EndToEnd: map[string]map[string]float64{}, PerLayer: map[string]map[string]float64{}, Rounds: map[string][]*childResult{}}
	fmt.Printf("bench: go %s, GOMAXPROCS=%d, nproc=%d, cpu %q, commit %s, seed %d, %g s per workload\n",
		rec.Env.GoVersion, rec.Env.GOMAXPROCS, rec.Env.NumCPU, rec.Env.CPUModel, rec.Env.GitCommit, seed, seconds)
	fmt.Println("bench: closed loop, one injector goroutine, synchronous in-process links: no wire, no NIC")
	if rec.Env.NumCPU < 4 {
		fmt.Println("bench: worker-pool scaling: SKIPPED: needs >= 4 cores (runtime.pool_w1_ns is one worker only)")
	}

	var last result
	if trace == 0 || workload == "" {
		first, err := runUntraced(names, seed, seconds, spawn)
		if err != nil {
			return 0, err
		}
		for _, n := range names {
			u := first[n]
			w, _ := findWorkload(n)
			printMetrics(os.Stdout, fmt.Sprintf("%s: end to end over %d rounds; %d attempted, %d failed; %d latency samples, %d beyond each chunk's p99",
				n, rounds, u.attempted, u.failed, u.latSamples(), w.latChunk/100), e2eMetrics, u.metrics)
			rec.EndToEnd[n], rec.Rounds[n] = u.metrics, u.rounds
			rec.Breaches = append(rec.Breaches, u.breaches...)
			if u.failed != 0 {
				rec.Breaches = append(rec.Breaches, fmt.Sprintf("%s: %d of %d operations failed", n, u.failed, u.attempted))
			}
			last = newResult(e2eMetrics, u.metrics, u.attempted, u.failed, u.breaches)
		}
		if aa {
			second, err := runUntraced(names, seed, seconds, spawn)
			if err != nil {
				return 0, err
			}
			rec.Breaches = append(rec.Breaches, compareAA(names, first, second)...)
		}
	}
	if trace != 0 {
		for _, n := range names {
			t, err := runTraced(n, seed, seconds, outDir, spawn, 1)
			if err != nil {
				return 0, err
			}
			printMetrics(os.Stdout, fmt.Sprintf("%s: per layer; %d attempted, %d failed", n, t.attempted, t.failed), perLayerMetrics, t.metrics)
			rec.PerLayer[n] = t.metrics
			rec.Rounds[n] = append(rec.Rounds[n], t.children...)
			rec.Breaches = append(rec.Breaches, t.breaches...)
			if t.failed != 0 {
				rec.Breaches = append(rec.Breaches, fmt.Sprintf("%s: %d of %d traced operations failed", n, t.failed, t.attempted))
			}
			last = newResult(perLayerMetrics, t.metrics, t.attempted, t.failed, t.breaches)
		}
	}
	for _, b := range rec.Breaches {
		fmt.Println("bench: FAILED:", b)
	}
	if outDir != "" {
		which := workload
		if which == "" {
			which = "all"
		}
		name := fmt.Sprintf("record-%s-seed%d-trace%d.json", which, seed, trace)
		if err := writeRecord(outDir, name, rec); err != nil {
			return 0, err
		}
	}
	if workload != "" {
		if err := json.NewEncoder(os.Stdout).Encode(last); err != nil {
			return 0, err
		}
	}
	if len(rec.Breaches) != 0 {
		return 1, nil
	}
	return 0, nil
}
