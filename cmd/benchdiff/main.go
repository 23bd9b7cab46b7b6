// Command benchdiff turns `go test -bench` output into a regression
// tripwire. It parses benchmark result lines, optionally snapshots
// them as a JSON baseline, and renders a markdown delta table against
// a committed baseline — the bench-smoke CI job pipes its output here
// and pastes the table into the job summary.
//
//	go test -run '^$' -bench . -benchtime 1x ./... | tee bench.txt
//	benchdiff -bench bench.txt -write BENCH_BASELINE.json   # snapshot
//	benchdiff -bench bench.txt -baseline BENCH_BASELINE.json -check
//
// -check makes benchdiff exit non-zero on the failure modes a smoke
// run must catch regardless of hardware: panics, FAILed packages,
// benchmarks that report zero iterations, or no benchmarks at all.
// Deltas themselves are informational by default (CI runners differ
// from the machine that wrote the baseline); -fail-over makes a
// slowdown beyond the threshold fatal too, for runs where baseline
// and current share hardware.
//
// -pair-check enforces the declared same-run ratio gates (ratioGates):
// both sides of a gate come from one run on one machine, so the gates
// are hardware-independent. Every `X/cached` benchmark must deliver at
// least 0.85 of its `X/uncached` sibling's throughput — the two-tier
// flow cache must never be a tax, not even on the adversarial thrash
// workload it used to lose badly on — and every `X/chain` benchmark at
// least 1/6 of its `X/bare` sibling's: the paper's claim, a legacy
// switch behind HARMLESS forwards like the software switch alone. Run
// it against a measured pass (-benchtime 20000x or more), not the 1x
// smoke rows, which are single-iteration noise.
package main

import (
	"bufio"
	"encoding/json"
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
	Iterations uint64             `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value
	runs       int
}

// Baseline is the committed snapshot format.
type Baseline struct {
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]*Result `json:"benchmarks"`
}

// lowerIsBetter reports whether a metric improves downwards.
func lowerIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/op")
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
		res.runs++
		res.Iterations += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, verr := strconv.ParseFloat(fields[i], 64)
			if verr != nil {
				continue
			}
			res.Metrics[fields[i+1]] += v
		}
	}
	if serr := sc.Err(); serr != nil {
		return nil, nil, nil, serr
	}
	// Average over the -count runs.
	for _, res := range results {
		if res.runs > 1 {
			res.Iterations /= uint64(res.runs)
			for k := range res.Metrics {
				res.Metrics[k] /= float64(res.runs)
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

// delta returns the relative change current vs base, signed so that
// POSITIVE means regression for the given unit.
func delta(unit string, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / base
	if !lowerIsBetter(unit) {
		d = -d
	}
	return d
}

func main() {
	benchPath := flag.String("bench", "-", "bench output file ('-' = stdin)")
	baselinePath := flag.String("baseline", "", "baseline JSON to diff against")
	writePath := flag.String("write", "", "write the parsed results as a new baseline JSON to this path and exit")
	note := flag.String("note", "", "note stored in a written baseline")
	threshold := flag.Float64("threshold", 0.30, "relative slowdown that flags a benchmark in the table")
	check := flag.Bool("check", false, "exit non-zero on panics, FAILs, zero-iteration results, or an empty bench run")
	failOver := flag.Bool("fail-over", false, "with -baseline: also exit non-zero when any flagged metric regresses past the threshold")
	pairs := flag.Bool("pair-check", false, "exit non-zero unless every same-run sibling pair meets its declared ratio gate (cached >= 0.85 x uncached, chain >= 1/6 x bare)")
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

	if *writePath != "" {
		b := Baseline{Note: *note, Benchmarks: results}
		data, err := json.MarshalIndent(&b, "", "  ")
		if err != nil {
			fatal("marshal: %v", err)
		}
		if err := os.WriteFile(*writePath, append(data, '\n'), 0o644); err != nil {
			fatal("write: %v", err)
		}
		fmt.Printf("benchdiff: wrote %d benchmarks to %s\n", len(results), *writePath)
	}

	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fatal("baseline: %v", err)
		}
		var base Baseline
		if err := json.Unmarshal(data, &base); err != nil {
			fatal("baseline: %v", err)
		}
		regressed := printDelta(&base, results, *threshold)
		if *failOver && regressed > 0 {
			fmt.Printf("benchdiff: %d metric(s) regressed past %.0f%%\n", regressed, *threshold*100)
			bad += regressed
		}
	} else if *writePath == "" {
		printTable(results)
	}

	if bad > 0 {
		os.Exit(1)
	}
}

// throughput reads a result's packets-per-second, deriving it from
// ns/op for benchmarks that do not report the pps metric directly.
func throughput(res *Result) float64 {
	if pps, ok := res.Metrics["pps"]; ok && pps > 0 {
		return pps
	}
	if ns, ok := res.Metrics["ns/op"]; ok && ns > 0 {
		return 1e9 / ns
	}
	return 0
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
	{Num: "chain", Den: "bare", Min: 1.0 / 6, Broken: "the HARMLESS chain costs more than six bare switches"},
}

// pairCheck walks every gate's `<base>/<Num>` results whose
// `<base>/<Den>` sibling appears in the same run and fails those whose
// throughput ratio drops below the gate's Min. Comparing same-run
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
			np, dp := throughput(results[name]), throughput(den)
			if np == 0 || dp == 0 {
				fmt.Printf("PAIR FAIL: %s vs %s: missing pps and ns/op metrics\n", name, g.Den)
				bad++
				continue
			}
			ratio := np / dp
			if ratio < g.Min {
				fmt.Printf("PAIR FAIL: %s %s < %s %s x %.2f (ratio %.3f): %s\n",
					name, fmtVal(np), fmtVal(dp), g.Den, g.Min, ratio, g.Broken)
				bad++
			} else {
				fmt.Printf("PAIR OK:   %s %s vs %s %s (ratio %.2fx, gate %.2fx)\n", name, fmtVal(np), g.Den, fmtVal(dp), ratio, g.Min)
			}
		}
		if !found {
			fmt.Printf("PAIR FAIL: no %s/%s benchmark pairs found in this run\n", g.Num, g.Den)
			bad++
		}
	}
	return bad
}

// printDelta renders the markdown comparison table and returns how
// many metrics regressed past the threshold.
func printDelta(base *Baseline, cur map[string]*Result, threshold float64) int {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("| benchmark | metric | baseline | current | delta |")
	fmt.Println("|---|---|---:|---:|---:|")
	regressed := 0
	for _, name := range names {
		res := cur[name]
		bres := base.Benchmarks[name]
		units := make([]string, 0, len(res.Metrics))
		for u := range res.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			v := res.Metrics[u]
			if u != "ns/op" && u != "pps" {
				continue // keep the table to the headline metrics
			}
			if bres == nil {
				fmt.Printf("| %s | %s | — | %s | new |\n", name, u, fmtVal(v))
				continue
			}
			bv, ok := bres.Metrics[u]
			if !ok {
				fmt.Printf("| %s | %s | — | %s | new |\n", name, u, fmtVal(v))
				continue
			}
			d := delta(u, bv, v)
			marker := ""
			if d >= threshold {
				marker = " ⚠️"
				regressed++
			} else if d <= -threshold {
				marker = " 🚀"
			}
			fmt.Printf("| %s | %s | %s | %s | %+.1f%%%s |\n", name, u, fmtVal(bv), fmtVal(v), d*100, marker)
		}
	}
	for name := range base.Benchmarks {
		if _, ok := cur[name]; !ok {
			fmt.Printf("| %s | | | | missing from this run |\n", name)
		}
	}
	return regressed
}

// printTable renders the parsed results alone (no baseline).
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
