package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// inProcess is the test runner: the plan runs here, not in a child.
func inProcess(p plan) (*childResult, error) {
	p.SpawnNs = time.Now().UnixNano()
	return runPlan(p)
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 7}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	hundred := make([]uint32, 100)
	for i := range hundred {
		hundred[i] = uint32(i + 1) // 1..100, no ties
	}
	for _, c := range []struct {
		name   string
		sorted []uint32
		q      float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"all tied: the median of an interval is its middle", []uint32{7, 7, 7, 7}, 0.5, 7},
		{"all tied: p99 sits near the top of the interval", []uint32{7, 7, 7, 7}, 0.99, 7.49},
		{"no ties, median between 50 and 51", hundred, 0.5, 50.5},
		{"no ties, p99", hundred, 0.99, 99.5},
		{"ties interpolate: 3 of 4 at 10, rank 2 is 1/3 into them", []uint32{5, 10, 10, 10}, 0.5, 9.5 + 1.0/3},
	} {
		if got := quantile(c.sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: quantile = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestChunkQuantiles(t *testing.T) {
	// Two full chunks of four and a partial one that is dropped; each
	// chunk is summarized on its own, whatever the order inside it.
	samples := []uint32{7, 7, 7, 7, 5, 10, 10, 10, 1, 2}
	p50s, p99s := chunkQuantiles(samples, 4)
	if len(p50s) != 2 || p50s[0] != 7 || math.Abs(p50s[1]-(9.5+1.0/3)) > 1e-9 {
		t.Errorf("chunk medians %v, want [7 9.83]", p50s)
	}
	if len(p99s) != 2 || p99s[0] != 7.49 || p99s[1] < 10 {
		t.Errorf("chunk p99s %v", p99s)
	}
	// Fewer samples than one chunk: they are the chunk.
	p50s, _ = chunkQuantiles([]uint32{9, 9, 9}, 4)
	if len(p50s) != 1 || p50s[0] != 9 {
		t.Errorf("short input: medians %v, want [9]", p50s)
	}
	if p50s, p99s := chunkQuantiles(nil, 4); p50s != nil || p99s != nil {
		t.Errorf("no samples: %v %v", p50s, p99s)
	}
}

func TestQuantileOf(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for q, want := range map[float64]float64{0: 10, 0.15: 16, 0.5: 30, 0.85: 44, 1: 50} {
		if got := quantileOf(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("quantileOf(q=%v) = %v, want %v", q, got, want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantileOf reordered its input")
	}
}

func TestSliceRateAndRelDiff(t *testing.T) {
	if got := sliceRate(1000, 2e6); got != 5e5 {
		t.Errorf("sliceRate(1000 frames, 2 ms) = %v, want 5e5/s", got)
	}
	if got := sliceRate(1000, 0); got != 0 {
		t.Errorf("sliceRate with no time = %v, want 0", got)
	}
	if got := relDiff(100, 110, false); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-better 100→110 is %v worse, want 0.10", got)
	}
	if got := relDiff(100, 90, true); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-better 100→90 is %v worse, want 0.10", got)
	}
	if got := relDiff(100, 120, true); got >= 0 {
		t.Errorf("higher-better 100→120 is an improvement, got %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	root := span{Name: rootSpan, Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"children tile the root", []span{{Start: 100, End: 130}, {Start: 130, End: 200}}, 0},
		{"gap between children is the root's own", []span{{Start: 100, End: 120}, {Start: 150, End: 200}}, 30},
		{"overlap counts once", []span{{Start: 100, End: 160}, {Start: 140, End: 200}}, 0},
		{"out of order, and clipped to the root", []span{{Start: 180, End: 250}, {Start: 50, End: 110}}, 70},
	} {
		if got := selfTime(root, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerChildrenSumToRoot(t *testing.T) {
	names := kindChain.spanNames()
	tr := newTracer(names, 3*sampleEvery)
	for seq := uint64(0); seq < 3*sampleEvery; seq++ {
		clear(tr.t)
		for i := range tr.t {
			tr.t[i] = int64(1000*seq) + int64(i*i+1) // uneven but increasing
		}
		tr.commit(seq)
	}
	if tr.broken != 0 || len(tr.root) != 3*sampleEvery {
		t.Fatalf("broken=%d frames=%d", tr.broken, len(tr.root))
	}
	frames, err := checkSpans(tr.kept)
	if err != nil || frames != 3 {
		t.Fatalf("checkSpans = %d frames, %v; want 3 sampled frames", frames, err)
	}
	med, root := tr.medians()
	var sum float64
	for _, n := range names {
		sum += med[n]
	}
	if sum != root {
		t.Errorf("span medians sum to %v, root median is %v (constant durations must add up)", sum, root)
	}

	// A frame that missed a boundary is counted, not recorded.
	clear(tr.t)
	tr.t[0], tr.t[len(tr.t)-1] = 5, 9
	tr.commit(0)
	if tr.broken != 1 {
		t.Errorf("frame with unmarked boundaries: broken=%d, want 1", tr.broken)
	}

	// checkSpans catches children that do not add up.
	bad := append([]span(nil), tr.kept[:len(names)+1]...)
	bad[1].End--
	if _, err := checkSpans(bad); err == nil {
		t.Error("checkSpans accepted children that sum to less than the root")
	}

	path := filepath.Join(t.TempDir(), "out", "spans.jsonl")
	if err := writeSpans(path, tr.kept); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != len(tr.kept) {
		t.Fatalf("%d lines written for %d spans", len(lines), len(tr.kept))
	}
	var first span
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil || first != tr.kept[0] {
		t.Errorf("first line reads back as %+v (%v), want %+v", first, err, tr.kept[0])
	}
}

// ofMsg builds an OpenFlow message of the given type and total length.
func ofMsg(typ uint8, length int) []byte {
	b := make([]byte, length)
	b[0], b[1] = 4, typ
	binary.BigEndian.PutUint16(b[2:4], uint16(length))
	return b
}

func TestOFTap(t *testing.T) {
	var stream []byte
	want := []uint8{0, ofPacketIn, 2, ofFlowMod, ofPacketOut, 3}
	for i, typ := range want {
		stream = append(stream, ofMsg(typ, ofHeaderLen+i*13)...) // first one is header-only
	}
	for _, chunk := range []int{1, 3, 8, 11, len(stream)} {
		var got []uint8
		tap := ofTap{on: func(typ uint8) { got = append(got, typ) }}
		for off := 0; off < len(stream); off += chunk {
			tap.feed(stream[off:min(off+chunk, len(stream))])
		}
		if string(got) != string(want) {
			t.Errorf("chunks of %d: saw types %v, want %v", chunk, got, want)
		}
	}
}

func TestSeedDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, err := buildFrames(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildFrames(w, 1)
		c, _ := buildFrames(w, 2)
		if a.digest() != b.digest() {
			t.Errorf("%s: same seed, different frames", w.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: different seeds, same frames", w.name)
		}
		if len(a.frames) != w.flows || len(a.frames[0]) != w.frameLen {
			t.Errorf("%s: %d frames of %d bytes, want %d of %d", w.name, len(a.frames), len(a.frames[0]), w.flows, w.frameLen)
		}
	}
}

func TestSinkVerifies(t *testing.T) {
	w, _ := findWorkload("bare_64B")
	fs, err := buildFrames(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj, snk := newInjector(fs), &sink{fs: fs}
	snk.receive(inj.next())
	if snk.bad != 0 {
		t.Fatalf("a faithful frame failed verification")
	}
	for name, damage := range map[string]func([]byte) []byte{
		"flipped byte":    func(f []byte) []byte { f[len(f)-1] ^= 1; return f },
		"wrong length":    func(f []byte) []byte { return f[:len(f)-1] },
		"still tagged":    func(f []byte) []byte { f[12], f[13] = 0x81, 0x00; return f },
		"out of sequence": func(f []byte) []byte { binary.BigEndian.PutUint64(f[seqOff:], 1<<40); return f },
	} {
		inj, snk := newInjector(fs), &sink{fs: fs}
		snk.receive(damage(inj.next())) // sequence 0 is one of the byte-compared frames
		if snk.bad != 1 {
			t.Errorf("%s: bad=%d, want 1", name, snk.bad)
		}
	}
}

// TestWorkloadsSmallScale runs every workload end to end at about a
// thousandth of its budget, traced phase included, so a change that
// breaks the rig breaks the tier-1 tests of the change that made it.
func TestWorkloadsSmallScale(t *testing.T) {
	dir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			spanFile := filepath.Join(dir, w.name+".jsonl")
			const frames = 2048 // two reactive rounds
			res, err := inProcess(plan{
				Mode: "run", Workload: w.name, Seed: 1,
				TputSeconds: 300, LatSeconds: 300, // caps far out of reach, also under -race
				TputFrames: w.sliceFrames, LatFrames: frames, TraceFrames: frames,
				SpanFile: spanFile,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.Breaches) != 0 {
				t.Fatalf("failed=%d breaches=%v", res.Failed, res.Breaches)
			}
			if want := uint64(w.sliceFrames + settleCycles*w.flows + 2*frames); res.Attempted != want {
				t.Errorf("attempted %d operations, want %d", res.Attempted, want)
			}
			if len(res.SliceMpps) != 1 || res.LatSamples != frames || res.TracedFrames != frames {
				t.Errorf("slices=%d samples=%d traced=%d", len(res.SliceMpps), res.LatSamples, res.TracedFrames)
			}
			if res.SliceMpps[0] <= 0 || res.LatP50 <= 0 || res.ChunkP99[0] < res.LatP50 || res.SetupS <= 0 || res.MemMB <= 0 {
				t.Errorf("end-to-end values: %+v", res)
			}
			for _, name := range w.kind.spanNames() {
				if res.Spans[name] <= 0 {
					t.Errorf("span %s = %v, want > 0", name, res.Spans[name])
				}
			}
			if res.SpansKept != frames/sampleEvery {
				t.Errorf("%d sampled frames kept, want %d", res.SpansKept, frames/sampleEvery)
			}
			if st, err := os.Stat(spanFile); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestProbesSmallScale(t *testing.T) {
	res, err := inProcess(plan{Mode: "probes", Seed: 1, ProbeSeconds: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range res.Probes {
		if r.NsPerOp <= 0 || r.Slices < probeMinSlices {
			t.Errorf("%s: %+v", name, r)
		}
	}
	if got := res.Probes["pkt.extract_key_ns"].AllocsPerOp; got > 0.01 {
		t.Errorf("pkt.ExtractKey allocates %.2f per op; the probe harness should see 0", got)
	}
	if _, ok := res.Probes["runtime.pool_w1_ns"].Extra["runtime.ring_full_share"]; !ok {
		t.Error("pool probe did not report runtime.ring_full_share")
	}
}

// TestTracedReportsEveryMetric checks that a traced run of one workload
// yields every declared per-layer metric, reference passes included.
func TestTracedReportsEveryMetric(t *testing.T) {
	tr, err := runTraced("chain_64B", 1, 300, t.TempDir(), inProcess, 64)
	if err != nil {
		t.Fatal(err)
	}
	if tr.failed != 0 || len(tr.breaches) != 0 {
		t.Fatalf("failed=%d breaches=%v", tr.failed, tr.breaches)
	}
	for _, d := range perLayerMetrics {
		v, ok := tr.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %v (present=%v)", d.name, v, ok)
		}
		if strings.HasSuffix(d.name, "_ns") && v <= 0 {
			t.Errorf("%s = %v, want a measured time", d.name, v)
		}
	}
	m := tr.metrics
	if m["softswitch.hit_share"] != 1 || m["flowtable.lookups_per_frame"] != 3 || m["legacy.tx_per_rx"] != 1 {
		t.Errorf("chain counters: hit_share=%v lookups/frame=%v tx/rx=%v, want 1, 3, 1",
			m["softswitch.hit_share"], m["flowtable.lookups_per_frame"], m["legacy.tx_per_rx"])
	}
}

func TestUntracedAggregation(t *testing.T) {
	names := []string{"bare_64B", "chain_64B"}
	var order []string
	n := 0.0
	fake := func(p plan) (*childResult, error) {
		order = append(order, p.Workload)
		n++
		return &childResult{
			Workload: p.Workload, Attempted: 10,
			SliceMpps: []float64{n, n + 0.5}, ChunkP50: []float64{100 - n}, ChunkP99: []float64{200, 210},
			SetupS: n / 10, MemMB: 50 + n,
		}, nil
	}
	out, err := runUntraced(names, 7, 10, fake)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != rounds*len(names) {
		t.Fatalf("%d child runs, want %d", len(order), rounds*len(names))
	}
	for r := 0; r < rounds; r++ {
		if a, b := order[2*r], order[2*r+1]; a == b {
			t.Errorf("round %d ran %s twice", r, a)
		}
	}
	for _, name := range names {
		u := out[name]
		var fwd, p50, p99, mem []float64
		for _, c := range u.rounds {
			fwd = append(fwd, c.SliceMpps...)
			p50 = append(p50, c.ChunkP50...)
			p99 = append(p99, c.ChunkP99...)
			mem = append(mem, c.MemMB)
		}
		m := u.metrics
		if m["fwd_mpps"] != quantileOf(fwd, 1-quiet) || m["lat_p50_ns"] != quantileOf(p50, quiet) ||
			m["lat_p99_ns"] != quantileOf(p99, quietTail) || m["mem_mb"] != median(mem) || u.attempted != 10*rounds {
			t.Errorf("%s: metrics %v from slices %v, chunk medians %v, mem %v", name, m, fwd, p50, mem)
		}
		if m["fwd_mpps"] <= median(fwd) || m["lat_p50_ns"] >= median(p50) {
			t.Errorf("%s: the quiet quantile must lie on the good side of the median: %v", name, m)
		}
	}
	first := append([]string(nil), order...)
	order, n = nil, 0
	if _, err := runUntraced(names, 7, 10, fake); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, ",") != strings.Join(first, ",") {
		t.Errorf("same seed, different interleaving:\n%v\n%v", first, order)
	}
}

func TestCompareAA(t *testing.T) {
	mk := func(fwd, p50 float64) map[string]*untraced {
		return map[string]*untraced{"bare_64B": {metrics: map[string]float64{
			"fwd_mpps": fwd, "lat_p50_ns": p50, "lat_p99_ns": 900, "setup_s": 0.01, "mem_mb": 20,
		}}}
	}
	names := []string{"bare_64B"}
	if b := compareAA(names, mk(3.0, 400), mk(2.4, 480)); len(b) != 0 {
		t.Errorf("20%% moves inside 25%% bounds reported as breaches: %v", b)
	}
	if b := compareAA(names, mk(3.0, 400), mk(2.1, 520)); len(b) != 2 {
		t.Errorf("30%% moves against 25%% bounds: %d breaches, want 2: %v", len(b), b)
	}
	if b := compareAA(names, mk(3.0, 400), mk(3.6, 300)); len(b) != 0 {
		t.Errorf("improvements reported as breaches: %v", b)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	type jm struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q / %q, implemented %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, declared []jm, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			better := map[bool]string{true: "higher", false: "lower"}[d.higherBetter]
			j := declared[i]
			if j.Name != d.name || j.Unit != d.unit || j.Better != better {
				t.Errorf("%s %d: declared %+v, implemented %s %s %s", kind, i, j, d.name, d.unit, better)
			}
			if bounded && (j.Bound == nil || *j.Bound != d.bound) {
				t.Errorf("%s: declared bound %v, implemented %v", d.name, j.Bound, d.bound)
			}
			if !bounded && j.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics, true)
	check("per_layer", doc.PerLayer, perLayerMetrics, false)
}
