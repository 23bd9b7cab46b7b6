// Command benchdiff turns `go test -bench` output into a tripwire. It
// parses benchmark result lines and renders them as a markdown table —
// the bench-smoke CI job pipes its output here and pastes the table
// into the job summary.
//
//	go test -run '^$' -bench . -benchtime 1x ./... | tee bench.txt
//	benchdiff -bench bench.txt -check
//
// -check makes benchdiff exit non-zero on the failure modes a smoke
// run must catch regardless of hardware: panics, FAILed packages,
// benchmarks that report zero iterations, or no benchmarks at all.
// Absolute figures gate nothing: a snapshot from other hardware says
// nothing about this run. What is gated is ratios inside one run.
//
// -pair-check enforces the declared same-run ratio gates (ratioGates):
// both sides of a gate come from one run on one machine, so the gates
// are hardware-independent. Each gate names a sibling pair, the least
// throughput ratio it accepts and what a failing pair means: the flow
// cache must never be a tax, the HARMLESS chain must forward like the
// software switch alone (the paper's claim), a burst must share its
// work, and a flow-table lookup or add must be a probe, not a scan.
// Run it against a measured pass (-benchtime 20000x or more), not the 1x smoke rows,
// which are single-iteration noise. With N results a side (-count N, or
// N invocations appended to one file) a gate reads the median of the N
// per-run ratios.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's parsed metrics, averaged over -count runs.
type Result struct {
	Iterations uint64
	Metrics    map[string]float64   // unit -> value
	runs       []map[string]float64 // each run's metrics, in output order
}

// parseBench parses `go test -bench` output. It returns the results
// plus the hard failure markers -check cares about.
func parseBench(r io.Reader) (results map[string]*Result, panics, fails []string, err error) {
	results = make(map[string]*Result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "panic:") {
			panics = append(panics, trimmed)
			continue
		}
		if strings.HasPrefix(trimmed, "--- FAIL") || strings.HasPrefix(trimmed, "FAIL") {
			fails = append(fails, trimmed)
			continue
		}
		if !strings.HasPrefix(trimmed, "Benchmark") {
			continue
		}
		fields := strings.Fields(trimmed)
		// Name iterations {value unit}...
		if len(fields) < 2 {
			continue
		}
		name := normalizeName(fields[0])
		iters, perr := strconv.ParseUint(fields[1], 10, 64)
		if perr != nil {
			continue // a Benchmark* line that is not a result row
		}
		res := results[name]
		if res == nil {
			res = &Result{Metrics: make(map[string]float64)}
			results[name] = res
		}
		run := make(map[string]float64)
		res.runs = append(res.runs, run)
		res.Iterations += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, verr := strconv.ParseFloat(fields[i], 64)
			if verr != nil {
				continue
			}
			run[fields[i+1]] = v
			res.Metrics[fields[i+1]] += v
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, nil, nil, serr
	}
	// Average over the -count runs.
	for _, res := range results {
		if n := len(res.runs); n > 1 {
			res.Iterations /= uint64(n)
			for k := range res.Metrics {
				res.Metrics[k] /= float64(n)
			}
		}
	}
	return results, panics, fails, nil
}

// normalizeName strips the -GOMAXPROCS suffix so results compare
// across differently sized runners.
func normalizeName(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func main() {
	benchPath := flag.String("bench", "-", "bench output file ('-' = stdin)")
	check := flag.Bool("check", false, "exit non-zero on panics, FAILs, zero-iteration results, or an empty bench run")
	pairs := flag.Bool("pair-check", false, "exit non-zero unless every same-run sibling pair meets its declared ratio gate (cached >= 0.85 x uncached, chain >= 0.3 x bare, ...)")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		in = f
	}
	results, panics, fails, err := parseBench(in)
	if err != nil {
		fatal("parse: %v", err)
	}

	bad := 0
	if *check {
		for _, p := range panics {
			fmt.Printf("CHECK FAIL: %s\n", p)
			bad++
		}
		for _, f := range fails {
			fmt.Printf("CHECK FAIL: %s\n", f)
			bad++
		}
		for name, res := range results {
			if res.Iterations == 0 {
				fmt.Printf("CHECK FAIL: %s reported 0 iterations\n", name)
				bad++
			}
		}
		if len(results) == 0 {
			fmt.Println("CHECK FAIL: no benchmark results parsed")
			bad++
		}
	}

	if *pairs {
		bad += pairCheck(results, ratioGates)
	}

	printTable(results)

	if bad > 0 {
		os.Exit(1)
	}
}

// throughput reads packets-per-second from a result's (or one run's)
// metrics, deriving it from ns/op for benchmarks that do not report the
// pps metric directly.
func throughput(metrics map[string]float64) float64 {
	if pps, ok := metrics["pps"]; ok && pps > 0 {
		return pps
	}
	if ns, ok := metrics["ns/op"]; ok && ns > 0 {
		return 1e9 / ns
	}
	return 0
}

// ratio is num's throughput over den's. When both hold the same number
// of results it is the median of the per-run ratios, the i-th result of
// one against the i-th of the other, which one slow run on either side
// does not move; otherwise the ratio of the means.
func ratio(num, den *Result) float64 {
	n := len(num.runs)
	if n < 2 || n != len(den.runs) {
		return throughput(num.Metrics) / throughput(den.Metrics)
	}
	rs := make([]float64, n)
	for i := range rs {
		if d := throughput(den.runs[i]); d > 0 {
			rs[i] = throughput(num.runs[i]) / d
		}
	}
	sort.Float64s(rs)
	return (rs[(n-1)/2] + rs[n/2]) / 2
}

// ratioGate is one same-run sibling gate: every `<base>/<Num>` result
// with a `<base>/<Den>` sibling in the run must deliver at least Min
// times the sibling's throughput.
type ratioGate struct {
	Num, Den string
	Min      float64
	Broken   string // what a failing pair means
}

// ratioGates is the declared table -pair-check enforces.
var ratioGates = []ratioGate{
	{Num: "cached", Den: "uncached", Min: 0.85, Broken: "the cache is a net tax on this workload"},
	// 0.8 x the lowest of five BenchmarkE2_ChainBurst runs at -benchtime
	// 200000x once SS_1's cache entries followed the patch ports through
	// SS_2 (0.38-0.51x; 0.17-0.27x in the same runs before, gated at 1/6).
	{Num: "chain", Den: "bare", Min: 0.3, Broken: "the S4 node no longer takes a chain frame in one pass"},
	// 0.8 x the lowest of five BenchmarkReceiveBatch runs at -benchtime
	// 300000x (2.60-3.68x; 1.4-2.1x before bursts shared their work).
	{Num: "batch=32", Den: "batch=1", Min: 2.08, Broken: "a burst no longer amortises the probe and the credits"},
	// BenchmarkReceiveBatch 32-frame bursts through the L2 program, one
	// run a burst against runs of one frame: 1.9-2.5x since a run is
	// replayed once, 1.3x when each frame of a run was replayed alone.
	{Num: "one-megaflow", Den: "alternating", Min: 1.6, Broken: "a run of frames on one cache entry is replayed frame by frame"},
	// BenchmarkForwardBurst 32-frame bursts access -> trunk through the
	// legacy bridge, one address pair a burst against two interleaved:
	// medians of five 1.72-1.93x since a run is resolved once, 0.99-1.03x
	// when every frame took its own FDB step.
	{Num: "one-pair", Den: "alternating", Min: 1.4, Broken: "the bridge learns and resolves a run of frames frame by frame"},
	// BenchmarkE3_PathLatency one frame at a time, link end to counting
	// sink, at 64 and 256 bytes: medians of five 0.29-0.35x in four sets
	// at -benchtime 200000x (single runs 0.19-0.46x), so k = 5: a lone
	// frame crosses the chain in at most five bare passes' time.
	{Num: "harmless-chain", Den: "bare-softswitch", Min: 0.2, Broken: "a lone frame pays a fixed toll across the chain"},
	// BenchmarkLookup rules=N/masked against rules=N/exact: ≈ 1 since
	// every mask is a hash tuple, ≈ 0.01 at N=4096 when masked rules were
	// scanned.
	{Num: "masked", Den: "exact", Min: 0.25, Broken: "a masked rule costs a scan, not a probe"},
	// BenchmarkAdd new/at=4096 against new/at=16: ≈ 1 since Add probes
	// its tuple, ≈ 0.02 when it compared the new match with every entry.
	{Num: "at=4096", Den: "at=16", Min: 0.25, Broken: "a flow-mod add scans the table"},
}

// pairCheck walks every gate's `<base>/<Num>` results whose
// `<base>/<Den>` sibling appears in the same run and fails those whose
// throughput ratio (ratio: the median of the per-run ratios when a side
// holds several results) drops below the gate's Min. Comparing same-run
// siblings makes the gates independent of the runner: both sides saw
// identical hardware and load. A gate that finds no pair at all fails
// too — silently passing because the benchmarks were renamed is exactly
// the regression the gates exist to catch. Returns the number of
// failures.
func pairCheck(results map[string]*Result, gates []ratioGate) int {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	for _, g := range gates {
		found := false
		for _, name := range names {
			base, ok := strings.CutSuffix(name, "/"+g.Num)
			if !ok {
				continue
			}
			den := results[base+"/"+g.Den]
			if den == nil {
				continue
			}
			found = true
			np, dp := throughput(results[name].Metrics), throughput(den.Metrics)
			if np == 0 || dp == 0 {
				fmt.Printf("PAIR FAIL: %s vs %s: missing pps and ns/op metrics\n", name, g.Den)
				bad++
				continue
			}
			r := ratio(results[name], den)
			if r < g.Min {
				fmt.Printf("PAIR FAIL: %s %s vs %s %s (ratio %.3f < gate %.2f): %s\n",
					name, fmtVal(np), g.Den, fmtVal(dp), r, g.Min, g.Broken)
				bad++
			} else {
				fmt.Printf("PAIR OK:   %s %s vs %s %s (ratio %.2fx, gate %.2fx)\n", name, fmtVal(np), g.Den, fmtVal(dp), r, g.Min)
			}
		}
		if !found {
			fmt.Printf("PAIR FAIL: no %s/%s benchmark pairs found in this run\n", g.Num, g.Den)
			bad++
		}
	}
	return bad
}

// printTable renders the parsed results as a markdown table.
func printTable(results map[string]*Result) {
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("| benchmark | metric | value |")
	fmt.Println("|---|---|---:|")
	for _, name := range names {
		units := make([]string, 0, len(results[name].Metrics))
		for u := range results[name].Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			if u != "ns/op" && u != "pps" {
				continue
			}
			fmt.Printf("| %s | %s | %s |\n", name, u, fmtVal(results[name].Metrics[u]))
		}
	}
}

// fmtVal renders a metric value compactly.
func fmtVal(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	case v == math.Trunc(v):
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(2)
}
