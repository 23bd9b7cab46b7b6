package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef declares a metric; BENCHMARK.json carries the same table.
type metricDef struct {
	name         string
	unit         string
	higherBetter bool
	bound        float64 // end-to-end only: allowed worsening
}

var e2eMetrics = []metricDef{
	{"fwd_mpps", "Mframes/s", true, 0.25},
	{"lat_p50_ns", "ns", false, 0.25},
	{"lat_p99_ns", "ns", false, 0.25},
	{"setup_s", "s", false, 0.25},
	{"mem_mb", "MiB", false, 0.10},
}

var perLayerMetrics = []metricDef{
	// Spans of the traced run, median ns per frame.
	{name: "legacy.ingress_ns", unit: "ns"},
	{name: "harmless.s4_ns", unit: "ns"},
	{name: "legacy.egress_ns", unit: "ns"},
	{name: "path.unwind_ns", unit: "ns"},
	{name: "softswitch.fwd_ns", unit: "ns"},
	{name: "softswitch.miss_to_pktin_ns", unit: "ns"},
	{name: "controller.app_ns", unit: "ns"},
	{name: "softswitch.reply_to_wire_ns", unit: "ns"},
	// Counts per frame, from public counters over the fixed-count pass.
	{name: "softswitch.hit_share", unit: "share", higherBetter: true},
	{name: "softswitch.slowpath_share", unit: "share"},
	{name: "softswitch.evictions_per_kframe", unit: "count"},
	{name: "softswitch.pktin_per_frame", unit: "count"},
	{name: "softswitch.drops", unit: "count"},
	{name: "flowtable.lookups_per_frame", unit: "count"},
	{name: "legacy.tx_per_rx", unit: "count"},
	{name: "netem.tx_dropped", unit: "count"},
	{name: "alloc.allocs_per_frame", unit: "count"},
	{name: "alloc.bytes_per_frame", unit: "B"},
	{name: "alloc.copy_factor", unit: "share"},
	{name: "gc.cycles_per_mframe", unit: "count"},
	{name: "gc.pause_ms", unit: "ms"},
	{name: "gc.cpu_share", unit: "share"},
	// Isolated probes, median ns per operation.
	{name: "pkt.extract_key_ns", unit: "ns"},
	{name: "flowtable.lookup_ns", unit: "ns"},
	{name: "netem.send_ns", unit: "ns"},
	{name: "dataplane.ring_pushpop_ns", unit: "ns"},
	{name: "softswitch.hit_b1_ns", unit: "ns"},
	{name: "softswitch.hit_b32_ns", unit: "ns"},
	{name: "legacy.l2_ns", unit: "ns"},
	{name: "legacy.tag_ns", unit: "ns"},
	{name: "legacy.untag_ns", unit: "ns"},
	{name: "legacy.allocs_per_frame", unit: "count"},
	{name: "harmless.s4_roundtrip_ns", unit: "ns"},
	{name: "harmless.s4_allocs_per_frame", unit: "count"},
	{name: "openflow.flowmod_codec_ns", unit: "ns"},
	{name: "openflow.pktin_codec_ns", unit: "ns"},
	{name: "controlplane.barrier_rtt_ns", unit: "ns"},
	{name: "runtime.pool_w1_ns", unit: "ns"},
	{name: "runtime.ring_full_share", unit: "share"},
	{name: "telemetry.overhead_share", unit: "share"},
	{name: "harness.loop_ns", unit: "ns"},
	{name: "harness.timer_ns", unit: "ns"},
	{name: "harness.trace_overhead_share", unit: "share"},
	{name: "path.model_gap_share", unit: "share"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the driver's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed uint64, breaches []string) result {
	r := result{
		Correct:   failed == 0 && len(breaches) == 0 && attempted > 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = value{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// printMetrics lists metrics by name with their units, in table order.
func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.name, values[d.name], d.unit)
	}
}

// environment is recorded with every run so numbers from different
// machines are never compared by accident.
type environment struct {
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	CPUModel   string         `json:"cpu_model"`
	GitCommit  string         `json:"git_commit"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Frames     map[string]int `json:"count_pass_frames"` // per workload: tput + lat + traced
}

func readEnvironment(seed int64, seconds float64) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Frames:     make(map[string]int, len(workloads)),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	for _, w := range workloads {
		env.Frames[w.name] = w.countTput + w.countLat + w.traceLat
	}
	return env
}

// record is the JSON document a run leaves under the output directory.
type record struct {
	Env      environment                   `json:"environment"`
	EndToEnd map[string]map[string]float64 `json:"end_to_end,omitempty"` // workload → metric
	PerLayer map[string]map[string]float64 `json:"per_layer,omitempty"`
	Rounds   map[string][]*childResult     `json:"rounds,omitempty"`
	Breaches []string                      `json:"breaches,omitempty"`
}

func writeRecord(dir, name string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
