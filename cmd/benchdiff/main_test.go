package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/harmless-sdn/harmless/internal/softswitch
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSingleFlow/cached-8         	 3000000	       321 ns/op	   3115264 pps	       0 B/op	       0 allocs/op
BenchmarkSingleFlow/cached-8         	 3200000	       299 ns/op	   3344481 pps	       0 B/op	       0 allocs/op
BenchmarkWorkerScaling/workers=4-8   	 1000000	      1042 ns/op	    959692 pps	       0 B/op	       0 allocs/op
PASS
ok  	github.com/harmless-sdn/harmless/internal/softswitch	2.718s
`

func TestParseBench(t *testing.T) {
	results, panics, fails, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(panics) != 0 || len(fails) != 0 {
		t.Fatalf("clean output flagged: panics=%v fails=%v", panics, fails)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(results))
	}
	// The GOMAXPROCS suffix is stripped and -count runs averaged.
	sf := results["BenchmarkSingleFlow/cached"]
	if sf == nil {
		t.Fatal("BenchmarkSingleFlow/cached not found (name not normalized?)")
	}
	if sf.Iterations != 3100000 {
		t.Errorf("iterations = %d, want the 3.1M average", sf.Iterations)
	}
	if got := sf.Metrics["ns/op"]; got != 310 {
		t.Errorf("ns/op = %v, want 310 (average of 321 and 299)", got)
	}
	ws := results["BenchmarkWorkerScaling/workers=4"]
	if ws == nil || ws.Metrics["pps"] != 959692 {
		t.Errorf("worker scaling row = %+v", ws)
	}
}

func TestParseBenchFailureMarkers(t *testing.T) {
	out := `BenchmarkBroken-8   	       0	       0 ns/op
panic: runtime error: index out of range
--- FAIL: TestSomething
FAIL	github.com/harmless-sdn/harmless/internal/netem	0.1s
`
	results, panics, fails, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(panics) != 1 {
		t.Errorf("panics = %v", panics)
	}
	if len(fails) != 2 {
		t.Errorf("fails = %v", fails)
	}
	if results["BenchmarkBroken"].Iterations != 0 {
		t.Errorf("zero-iteration run not preserved: %+v", results["BenchmarkBroken"])
	}
}

func res(metrics map[string]float64) *Result {
	return &Result{Iterations: 1, Metrics: metrics}
}

var cacheGate = []ratioGate{{Num: "cached", Den: "uncached", Min: 0.85, Broken: "tax"}}

func TestPairCheck(t *testing.T) {
	results := map[string]*Result{
		// Clear win: 2x the uncached throughput.
		"BenchmarkManyFlows/uniform/cached":   res(map[string]float64{"pps": 2.0e6}),
		"BenchmarkManyFlows/uniform/uncached": res(map[string]float64{"pps": 1.0e6}),
		// Above the gate: 92% of uncached passes at 0.85.
		"BenchmarkManyFlows/thrash/cached":   res(map[string]float64{"pps": 0.92e6}),
		"BenchmarkManyFlows/thrash/uncached": res(map[string]float64{"pps": 1.0e6}),
		// No sibling: ignored, not failed.
		"BenchmarkSingleFlow/cached": res(map[string]float64{"pps": 3.0e6}),
	}
	if bad := pairCheck(results, cacheGate); bad != 0 {
		t.Errorf("pairCheck = %d failures, want 0", bad)
	}
	// Raise the gate above the thrash ratio: one failure.
	tight := []ratioGate{{Num: "cached", Den: "uncached", Min: 0.95}}
	if bad := pairCheck(results, tight); bad != 1 {
		t.Errorf("pairCheck(min=0.95) = %d failures, want 1", bad)
	}
}

func TestPairCheckDeclaredGates(t *testing.T) {
	// The declared table: the cache pair, the chain/bare pair, the burst
	// pair, the run pair, the bridge's run pair, the lone-frame chain
	// pair, the masked/exact lookup pair and the add-at-size pair, each
	// with its own minimum.
	results := map[string]*Result{
		"BenchmarkManyFlows/zipf/cached":                   res(map[string]float64{"pps": 2.0e6}),
		"BenchmarkManyFlows/zipf/uncached":                 res(map[string]float64{"pps": 1.0e6}),
		"BenchmarkE2_ChainBurst/chain":                     res(map[string]float64{"pps": 3.2e6}),
		"BenchmarkE2_ChainBurst/bare":                      res(map[string]float64{"pps": 8.0e6}),
		"BenchmarkReceiveBatch/batch=32":                   res(map[string]float64{"ns/op": 117}),
		"BenchmarkReceiveBatch/batch=1":                    res(map[string]float64{"ns/op": 345}),
		"BenchmarkReceiveBatch/batch=256":                  res(map[string]float64{"ns/op": 107}), // no gate on this row
		"BenchmarkReceiveBatch/one-megaflow":               res(map[string]float64{"ns/op": 50}),
		"BenchmarkReceiveBatch/alternating":                res(map[string]float64{"ns/op": 97}),
		"BenchmarkForwardBurst/one-pair":                   res(map[string]float64{"ns/op": 23}),
		"BenchmarkForwardBurst/alternating":                res(map[string]float64{"ns/op": 42}),
		"BenchmarkE3_PathLatency/frame=64/harmless-chain":  res(map[string]float64{"ns/op": 1500}),
		"BenchmarkE3_PathLatency/frame=64/bare-softswitch": res(map[string]float64{"ns/op": 500}),
		"BenchmarkSomethingElse/batch=32/x":                res(map[string]float64{"ns/op": 1}),
		"BenchmarkLookup/rules=4096/masked":                res(map[string]float64{"ns/op": 125}),
		"BenchmarkLookup/rules=4096/exact":                 res(map[string]float64{"ns/op": 120}),
		"BenchmarkLookup/rules=4096/mixed":                 res(map[string]float64{"ns/op": 140}), // no gate on this row
		"BenchmarkAdd/new/at=4096":                         res(map[string]float64{"ns/op": 420}),
		"BenchmarkAdd/new/at=256":                          res(map[string]float64{"ns/op": 400}), // no gate on this row
		"BenchmarkAdd/new/at=16":                           res(map[string]float64{"ns/op": 380}),
	}
	if bad := pairCheck(results, ratioGates); bad != 0 {
		t.Errorf("pairCheck = %d failures on a 2.5x chain, want 0", bad)
	}
	// 4x, the chain before its cache entries followed the patch ports:
	// fails its gate.
	results["BenchmarkE2_ChainBurst/chain"] = res(map[string]float64{"pps": 8.0e6 / 4})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on a 4x chain, want 1", bad)
	}
	results["BenchmarkE2_ChainBurst/chain"] = res(map[string]float64{"pps": 3.2e6})
	// 1.75x, a burst that probes and credits frame by frame: fails its gate.
	results["BenchmarkReceiveBatch/batch=32"] = res(map[string]float64{"ns/op": 345 / 1.75})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on a 1.75x burst, want 1", bad)
	}
	results["BenchmarkReceiveBatch/batch=32"] = res(map[string]float64{"ns/op": 117})
	// 1.3x, a run replayed frame by frame: fails its gate.
	results["BenchmarkReceiveBatch/one-megaflow"] = res(map[string]float64{"ns/op": 97 / 1.3})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on runs replayed frame by frame, want 1", bad)
	}
	results["BenchmarkReceiveBatch/one-megaflow"] = res(map[string]float64{"ns/op": 50})
	// 1.0x, a bridge that takes the FDB step frame by frame: fails its gate.
	results["BenchmarkForwardBurst/one-pair"] = res(map[string]float64{"ns/op": 42})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on a bridge that resolves every frame, want 1", bad)
	}
	results["BenchmarkForwardBurst/one-pair"] = res(map[string]float64{"ns/op": 23})
	// 6x, a lone frame that pays a fixed toll at every hop: fails its gate.
	results["BenchmarkE3_PathLatency/frame=64/harmless-chain"] = res(map[string]float64{"ns/op": 3000})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on a 6x lone-frame chain, want 1", bad)
	}
	results["BenchmarkE3_PathLatency/frame=64/harmless-chain"] = res(map[string]float64{"ns/op": 1500})
	// 13 µs, masked rules in a linear list: fails its gate.
	results["BenchmarkLookup/rules=4096/masked"] = res(map[string]float64{"ns/op": 13153})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on a scanned masked lookup, want 1", bad)
	}
	results["BenchmarkLookup/rules=4096/masked"] = res(map[string]float64{"ns/op": 125})
	// 21 µs, the new match compared with each of 4096 entries: fails its gate.
	results["BenchmarkAdd/new/at=4096"] = res(map[string]float64{"ns/op": 21000})
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures on an add that scans, want 1", bad)
	}
	results["BenchmarkAdd/new/at=4096"] = res(map[string]float64{"ns/op": 420})
	// A declared gate with no pair in the run fails by itself.
	delete(results, "BenchmarkE2_ChainBurst/chain")
	if bad := pairCheck(results, ratioGates); bad != 1 {
		t.Errorf("pairCheck = %d failures with the chain pair missing, want 1", bad)
	}
}

func TestPairCheckDerivesFromNsOp(t *testing.T) {
	// pps missing on one side: fall back to 1e9/ns. 500 ns/op cached
	// vs 1000 ns/op uncached is a 2x win.
	results := map[string]*Result{
		"BenchmarkX/cached":   res(map[string]float64{"ns/op": 500}),
		"BenchmarkX/uncached": res(map[string]float64{"ns/op": 1000}),
	}
	if bad := pairCheck(results, cacheGate); bad != 0 {
		t.Errorf("pairCheck on ns/op-only results = %d failures, want 0", bad)
	}
}

// TestPairCheckReadsTheMedianRatio: with five results a side a gate
// reads the median of the per-run ratios, which one slow run does not
// move, where the ratio of the means would fail.
func TestPairCheckReadsTheMedianRatio(t *testing.T) {
	out := ""
	for _, r := range []struct{ batch32, batch1 float64 }{{110, 345}, {112, 350}, {900, 340}, {115, 100}, {111, 330}} {
		out += fmt.Sprintf("BenchmarkReceiveBatch/batch=32-2 300000 %v ns/op\nBenchmarkReceiveBatch/batch=1-2 300000 %v ns/op\n", r.batch32, r.batch1)
	}
	results, _, _, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	gate := []ratioGate{{Num: "batch=32", Den: "batch=1", Min: 2.08}}
	if means := throughput(results["BenchmarkReceiveBatch/batch=32"].Metrics) /
		throughput(results["BenchmarkReceiveBatch/batch=1"].Metrics); means >= 2.08 {
		t.Fatalf("ratio of the means %.2f: the case no longer tells the two apart", means)
	}
	if bad := pairCheck(results, gate); bad != 0 {
		t.Errorf("pairCheck = %d failures with per-run ratios 3.1, 3.1, 0.4, 0.9, 3.0 (median 3.0), want 0", bad)
	}
	// Three slow runs of five are the median: the gate fails.
	results["BenchmarkReceiveBatch/batch=32"].runs[0]["ns/op"] = 900
	if bad := pairCheck(results, gate); bad != 1 {
		t.Errorf("pairCheck = %d failures with three of five per-run ratios under the gate, want 1", bad)
	}
}

func TestPairCheckEmptyRunFails(t *testing.T) {
	// A run with no cached/uncached pairs at all must fail: the gate
	// silently passing because the workloads were renamed is exactly
	// the regression it exists to catch.
	results := map[string]*Result{
		"BenchmarkLonely": res(map[string]float64{"pps": 1e6}),
	}
	if bad := pairCheck(results, cacheGate); bad != 1 {
		t.Errorf("pairCheck on pairless run = %d failures, want 1", bad)
	}
}

func TestNormalizeName(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkSingleFlow/cached-8":       "BenchmarkSingleFlow/cached",
		"BenchmarkWorkerScaling/workers=4-8": "BenchmarkWorkerScaling/workers=4",
		"BenchmarkPlain":                     "BenchmarkPlain",
	} {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestBenchHistoryParses keeps BENCH_HISTORY.json, the per-PR record of
// bench/run.sh medians, valid JSON with all five workloads per entry.
func TestBenchHistoryParses(t *testing.T) {
	var history []struct{ Workloads map[string]map[string]any }
	raw, err := os.ReadFile("../../BENCH_HISTORY.json")
	if err != nil || json.Unmarshal(raw, &history) != nil || len(history) == 0 {
		t.Fatalf("BENCH_HISTORY.json: %v, %d entries", err, len(history))
	}
	for i, h := range history {
		if len(h.Workloads) != 5 {
			t.Errorf("entry %d holds %d workloads, want 5", i, len(h.Workloads))
		}
	}
}
