package main

import "fmt"

// kind says which assembly of the repository a workload drives, and
// with it which spans a traced run can take.
type kind int

const (
	// kindSwitch: one softswitch.Switch between two netem links.
	kindSwitch kind = iota
	// kindChain: the Fig. 1 path, legacy switch → trunk → SS_1 → SS_2
	// and back, flows already installed.
	kindChain
	// kindReactive: the chain with no flow for the destination; every
	// operation is a controller round trip.
	kindReactive
)

// workload is one row of the benchmark. Frame counts are constants so
// that a fixed-count pass executes exactly the same work every time;
// sliceFrames sizes one throughput slice at 35–55 ms on the reference
// VM so a 2 s phase holds well over 20 slices. acl_miss_64B is the
// exception: its slices and chunks are one full cycle of its 131072
// flows (about 140 ms), because where in the cycle a frame falls decides
// whether it meets a cache probation window, and a quarter-cycle
// chunk's p99 was 1.9 µs or 4 µs depending on which quarter it was.
type workload struct {
	name     string
	why      string
	kind     kind
	acl      bool // the two-table 128-entry ACL program instead of L2
	frameLen int
	flows    int // distinct frames, a power of two

	// warmCycles is how often the warm-up sends every flow. Two passes
	// settle the forwarding workloads. The reactive one needs 40: every
	// operation misses SS_2's cache, its adaptive bypass engages shard
	// by shard (32 shards, two 256-lookup windows each), and until the
	// last shard has, the set-up rate climbs from 18 k/s to 30 k/s.
	warmCycles int

	sliceFrames int
	// latChunk is how many consecutive latency samples share one
	// median and one 99th percentile, 30–60 ms of them; a chunk's p99
	// has latChunk/100 samples beyond it.
	latChunk int
	// Fixed budgets of the counting pass and the traced pass of a
	// traced run (frames per phase).
	countTput, countLat, traceLat int
}

// burst is the SendBatch vector length of the throughput phase.
const burst = 32

// reactiveTimeoutNs fails a reactive operation that is not delivered
// in time. A second, not the 100 ms first planned: the reference VM
// stalls for 100 ms now and then (a loop of clock reads that takes 60 ms
// took 168 ms once in a hundred), and one operation in five million
// then failed through no fault of the code under test. Such a stall is
// a latency sample now, not a failure.
const reactiveTimeoutNs = 1e9

var workloads = []workload{
	{
		name: "bare_64B", kind: kindSwitch, frameLen: 64, flows: 1024, warmCycles: 2,
		why:         "one softswitch, L2 program, 1024 flows: the paper's baseline; only the cache-hit path works",
		sliceFrames: 131072, latChunk: 65536, countTput: 4 << 20, countLat: 1 << 20, traceLat: 1 << 19,
	},
	{
		name: "chain_64B", kind: kindChain, frameLen: 64, flows: 1024, warmCycles: 2,
		why:         "full HARMLESS chain at the smallest frame: the paper's claim; legacy switch and translator dominate",
		sliceFrames: 16384, latChunk: 16384, countTput: 1 << 19, countLat: 1 << 18, traceLat: 1 << 18,
	},
	{
		name: "chain_1500B", kind: kindChain, frameLen: 1500, flows: 1024, warmCycles: 2,
		why:         "same chain at 1500 B: byte-bound VLAN push/pop copies and GC pressure, so copy removals show here first",
		sliceFrames: 8192, latChunk: 8192, countTput: 1 << 18, countLat: 1 << 17, traceLat: 1 << 17,
	},
	{
		name: "acl_miss_64B", kind: kindSwitch, acl: true, frameLen: 64, flows: 131072, warmCycles: 2,
		why:         "128-rule ACL, 131072 flows = 4x both cache tiers: every frame thrashes into the flowtable walk",
		sliceFrames: 131072, latChunk: 131072, countTput: 1 << 20, countLat: 1 << 18, traceLat: 1 << 18,
	},
	{
		name: "reactive_64B", kind: kindReactive, frameLen: 64, flows: 1024, warmCycles: 40,
		why:         "table-miss to PACKET_IN to app to FLOW_MOD+PACKET_OUT: the only workload the control path and flow-table writes carry",
		sliceFrames: 1024, latChunk: 2048, countTput: 16 << 10, countLat: 16 << 10, traceLat: 16 << 10,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// spanNames lists a kind's child spans in path order; boundary i of a
// traced frame starts span i. The root runs from the first boundary to
// the last: inject to Send-returns on the forwarding kinds, inject to
// sink on the reactive one.
func (k kind) spanNames() []string {
	switch k {
	case kindChain:
		return []string{"legacy.ingress_ns", "harmless.s4_ns", "legacy.egress_ns", "path.unwind_ns"}
	case kindReactive:
		return []string{"softswitch.miss_to_pktin_ns", "controller.app_ns", "softswitch.reply_to_wire_ns"}
	}
	return []string{"softswitch.fwd_ns", "path.unwind_ns"}
}

// referenceFor names the workload whose short traced pass supplies a
// kind's spans when the workload under test does not cross them.
func referenceFor(k kind) string {
	switch k {
	case kindChain:
		return "chain_64B"
	case kindReactive:
		return "reactive_64B"
	}
	return "bare_64B"
}
