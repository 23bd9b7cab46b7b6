package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
)

// midScenario is the determinism workhorse: a 58-switch leaf-spine
// fabric, a churning heavy-hitter workload and all three fault
// families on one timeline.
func midScenario(seed int64) Scenario {
	return Scenario{
		Name: "determinism-mid",
		Seed: seed,
		Topology: TopologySpec{
			Kind: "leafspine", Spines: 8, Leaves: 50, HostsPerLeaf: 4,
		},
		Workload: WorkloadSpec{
			Kind: "heavyhitter", Flows: 50000, RatePerSec: 50000,
			Elephants: 8, Mice: 256, PacketShare: 0.8,
			ElephantPackets: 64, MousePackets: 4, MouseLife: 16,
		},
		Faults: []FaultSpec{
			{At: Duration{200 * time.Millisecond}, Kind: FaultLinkDown, Node: "leaf-0", Peer: "spine-0"},
			{At: Duration{400 * time.Millisecond}, Kind: FaultSwitchDown, Node: "spine-7"},
			{At: Duration{500 * time.Millisecond}, Kind: FaultCtrlFailover},
			{At: Duration{700 * time.Millisecond}, Kind: FaultLinkUp, Node: "leaf-0", Peer: "spine-0"},
			{At: Duration{800 * time.Millisecond}, Kind: FaultSwitchUp, Node: "spine-7"},
		},
		Reconvergence: Duration{50 * time.Millisecond},
	}.withDefaults()
}

func runFleet(t *testing.T, sc Scenario) Result {
	t.Helper()
	s, err := NewFleetSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The reproducibility contract: two runs of the same scenario and seed
// produce byte-identical digests (this test runs under -race in both
// CI matrix Go versions); a different seed diverges.
func TestFleetSimDeterminism(t *testing.T) {
	a := runFleet(t, midScenario(42))
	b := runFleet(t, midScenario(42))
	if a.Digest != b.Digest {
		t.Fatalf("same-seed digests differ:\n  %s\n  %s", a.Digest, b.Digest)
	}
	if a.EventHash != b.EventHash {
		t.Fatalf("same-seed event hashes differ: %s vs %s", a.EventHash, b.EventHash)
	}
	if !a.Pass {
		t.Fatalf("verdict failed: %v", a.Failures)
	}
	c := runFleet(t, midScenario(43))
	if c.Digest == a.Digest {
		t.Fatal("different seeds produced the same digest")
	}
}

// A faultless fabric delivers everything and the books balance.
func TestFleetSimFaultlessConservation(t *testing.T) {
	sc := Scenario{
		Name:     "faultless",
		Seed:     7,
		Topology: TopologySpec{Kind: "fattree", K: 4},
		Workload: WorkloadSpec{Kind: "poisson", Flows: 20000, RatePerSec: 100000, MeanPackets: 4},
	}.withDefaults()
	res := runFleet(t, sc)
	if !res.Pass || !res.CounterExact {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	if res.LostFlows != 0 || res.DeliveredFlows != res.OfferedFlows {
		t.Fatalf("faultless run: offered %d delivered %d lost %d",
			res.OfferedFlows, res.DeliveredFlows, res.LostFlows)
	}
	if res.OfferedFlows != 20000 {
		t.Fatalf("offered %d flows, want 20000", res.OfferedFlows)
	}
	if res.MeanHops < 2 || res.MeanHops > 6 {
		t.Fatalf("mean hops %.2f outside the fat-tree 2..6 range", res.MeanHops)
	}
}

// A downed link loses exactly the unconverged window's flows: losses
// stop within the reconvergence time, later flows reroute, and the
// fault's convergence record reflects both.
func TestFleetSimLinkFaultConvergence(t *testing.T) {
	reconv := 50 * time.Millisecond
	sc := Scenario{
		Name:     "linkdown",
		Seed:     11,
		Topology: TopologySpec{Kind: "leafspine", Spines: 4, Leaves: 8, HostsPerLeaf: 4},
		Workload: WorkloadSpec{Kind: "poisson", Flows: 100000, RatePerSec: 100000, MeanPackets: 2},
		Faults: []FaultSpec{
			{At: Duration{300 * time.Millisecond}, Kind: FaultLinkDown, Node: "leaf-0", Peer: "spine-0"},
		},
		Reconvergence: Duration{reconv},
	}.withDefaults()
	res := runFleet(t, sc)
	if !res.Pass {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	if res.LostFlows == 0 {
		t.Fatal("downed link lost nothing — fault never bit")
	}
	if res.ReroutedFlows == 0 {
		t.Fatal("no flow rerouted after convergence")
	}
	rec := res.Convergence[0]
	if rec.FlowsLost != res.LostFlows {
		t.Fatalf("record attributes %d losses, run counted %d", rec.FlowsLost, res.LostFlows)
	}
	if rec.Convergence.Duration > reconv {
		t.Fatalf("losses continued %v after the fault, want <= %v", rec.Convergence.Duration, reconv)
	}
}

// Downing a leaf partitions its hosts: losses are attributed and
// continue past the reconvergence window (no alternate path exists),
// while the rest of the fabric keeps its books exact.
func TestFleetSimSwitchDownPartition(t *testing.T) {
	sc := Scenario{
		Name:     "leafdown",
		Seed:     13,
		Topology: TopologySpec{Kind: "leafspine", Spines: 2, Leaves: 4, HostsPerLeaf: 4},
		Workload: WorkloadSpec{Kind: "poisson", Flows: 50000, RatePerSec: 100000, MeanPackets: 2},
		Faults: []FaultSpec{
			{At: Duration{100 * time.Millisecond}, Kind: FaultSwitchDown, Node: "leaf-3"},
		},
		Reconvergence: Duration{20 * time.Millisecond},
	}.withDefaults()
	res := runFleet(t, sc)
	if !res.Pass {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	rec := res.Convergence[0]
	if rec.FlowsLost == 0 {
		t.Fatal("downed leaf lost nothing")
	}
	if rec.Convergence.Duration <= 20*time.Millisecond {
		t.Fatalf("partition losses stopped at %v — they should outlast reconvergence", rec.Convergence.Duration)
	}
}

// Controller failover is loss-free: flows in the window are delayed by
// the new master's setup time, never dropped.
func TestFleetSimCtrlFailoverZeroLoss(t *testing.T) {
	sc := Scenario{
		Name:     "failover",
		Seed:     17,
		Topology: TopologySpec{Kind: "leafspine", Spines: 4, Leaves: 8, HostsPerLeaf: 4},
		Workload: WorkloadSpec{Kind: "poisson", Flows: 50000, RatePerSec: 100000, MeanPackets: 2},
		Faults: []FaultSpec{
			{At: Duration{200 * time.Millisecond}, Kind: FaultCtrlFailover, Node: "ctrl-0"},
		},
		Reconvergence: Duration{50 * time.Millisecond},
	}.withDefaults()
	res := runFleet(t, sc)
	if !res.Pass {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	if res.LostFlows != 0 {
		t.Fatalf("controller failover lost %d flows, want 0", res.LostFlows)
	}
	if res.FailoverDelayed == 0 {
		t.Fatal("no flow experienced the failover window")
	}
	if res.MaxLatency.Duration < sc.LinkLatency.Duration {
		t.Fatalf("max latency %v below a single hop", res.MaxLatency.Duration)
	}
}

// The horizon stops the run mid-stream: fewer arrivals than the
// workload holds, books still exact.
func TestFleetSimHorizon(t *testing.T) {
	sc := Scenario{
		Name:     "horizon",
		Seed:     19,
		Topology: TopologySpec{Kind: "leafspine", Spines: 2, Leaves: 4, HostsPerLeaf: 2},
		Workload: WorkloadSpec{Kind: "poisson", Flows: 10000, RatePerSec: 10000, MeanPackets: 2},
		Horizon:  Duration{200 * time.Millisecond},
	}.withDefaults()
	res := runFleet(t, sc)
	if !res.Pass {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	if res.OfferedFlows == 0 || res.OfferedFlows >= 10000 {
		t.Fatalf("offered %d flows, want a strict subset under a 200ms horizon at 10k/s", res.OfferedFlows)
	}
	if res.VirtualEnd.Duration != 200*time.Millisecond {
		t.Fatalf("virtual end %v, want exactly the horizon", res.VirtualEnd.Duration)
	}
}

// smallScenario is shared by the flow/packet cross-check.
func smallScenario(mode string) Scenario {
	return Scenario{
		Name:     "small-" + mode,
		Seed:     23,
		Mode:     mode,
		Topology: TopologySpec{Kind: "leafspine", Spines: 2, Leaves: 3, HostsPerLeaf: 2},
		Workload: WorkloadSpec{Kind: "poisson", Flows: 2000, RatePerSec: 100000, MeanPackets: 4},
	}.withDefaults()
}

// Flow mode and packet mode agree on a faultless small fabric: same
// offered and delivered packet totals, both zero loss — the analytic
// bookkeeping cross-checked against real softswitch datapaths on
// virtual links.
func TestFlowPacketCrossCheck(t *testing.T) {
	flow := runFleet(t, smallScenario("flow"))

	ps, err := NewPacketSim(smallScenario("packet"))
	if err != nil {
		t.Fatal(err)
	}
	packet, err := ps.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !packet.Pass {
		t.Fatalf("packet verdict failed: %v", packet.Failures)
	}
	if flow.OfferedPackets != packet.OfferedPackets {
		t.Fatalf("offered packets: flow %d vs packet %d", flow.OfferedPackets, packet.OfferedPackets)
	}
	if flow.DeliveredPackets != packet.DeliveredPackets {
		t.Fatalf("delivered packets: flow %d vs packet %d", flow.DeliveredPackets, packet.DeliveredPackets)
	}
	if packet.LostPackets != 0 {
		t.Fatalf("packet mode dropped %d packets on a faultless fabric", packet.LostPackets)
	}
}

// Packet-mode reproducibility: same seed, same digest.
func TestPacketSimDeterminism(t *testing.T) {
	run := func() Result {
		ps, err := NewPacketSim(smallScenario("packet"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ps.Run(2 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Digest != b.Digest {
		t.Fatalf("same-seed packet digests differ:\n  %s\n  %s", a.Digest, b.Digest)
	}
}

// Packet-mode controller failover drives the real PR 5 machinery —
// master killed, slave promoted with a bumped generation, barriered —
// with zero packet loss across the takeover.
func TestPacketSimCtrlFailover(t *testing.T) {
	sc := smallScenario("packet")
	sc.Name = "packet-failover"
	sc.Faults = []FaultSpec{
		{At: Duration{5 * time.Millisecond}, Kind: FaultCtrlFailover},
	}
	ps, err := NewPacketSim(sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ps.Run(2 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("verdict failed: %v", res.Failures)
	}
	if res.LostPackets != 0 {
		t.Fatalf("failover lost %d packets, want 0", res.LostPackets)
	}
	if res.DeliveredPackets != res.OfferedPackets {
		t.Fatalf("delivered %d of %d packets across the failover", res.DeliveredPackets, res.OfferedPackets)
	}
}

// Packet mode refuses what it cannot model faithfully.
// TestPacketSimSendsFreshFrames: the datapath owns every frame it is
// sent, so the packets an arrival hands to its host port, and those of
// a later arrival of the same pair, are distinct buffers.
func TestPacketSimSendsFreshFrames(t *testing.T) {
	ps, err := NewPacketSim(smallScenario("packet"))
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	host := ps.hostPort[ps.topo.HostIDs[0]]
	var got [][]byte
	tap := func(next netem.Receiver) netem.Receiver {
		return func(f []byte) {
			got = append(got, f)
			next(f)
		}
	}
	for _, l := range ps.links {
		switch host {
		case l.A():
			l.B().WrapReceiver(tap)
		case l.B():
			l.A().WrapReceiver(tap)
		}
	}
	a := fabric.FlowArrival{Src: 0, Dst: 1, FrameSize: 64, Packets: 3, FlowID: 1}
	ps.inject(a)
	ps.inject(a)
	ps.eng.Clock().Advance(time.Second)
	if len(got) != 2*a.Packets {
		t.Fatalf("switch received %d frames, want %d", len(got), 2*a.Packets)
	}
	for i := range got {
		for j := 0; j < i; j++ {
			if &got[i][0] == &got[j][0] {
				t.Errorf("packets %d and %d share one buffer", j, i)
			}
		}
	}
}

func TestPacketSimGuards(t *testing.T) {
	sc := smallScenario("packet")
	sc.Faults = []FaultSpec{{At: Duration{time.Millisecond}, Kind: FaultLinkDown, Node: "leaf-0", Peer: "spine-0"}}
	if _, err := NewPacketSim(sc); err == nil || !strings.Contains(err.Error(), "flow mode") {
		t.Fatalf("link fault accepted in packet mode (err=%v)", err)
	}
	big := smallScenario("packet")
	big.Topology = TopologySpec{Kind: "leafspine", Spines: 16, Leaves: 128, HostsPerLeaf: 4}
	if _, err := NewPacketSim(big); err == nil {
		t.Fatal("144-switch fabric accepted in packet mode")
	}
}

// Scenario documents parse "50ms"-style durations and are validated
// against the generated topology.
func TestScenarioParse(t *testing.T) {
	good := `{
		"name": "parse", "seed": 5,
		"topology": {"kind": "leafspine", "spines": 2, "leaves": 2, "hostsPerLeaf": 2},
		"workload": {"kind": "poisson", "flows": 10, "ratePerSec": 100, "meanPackets": 2},
		"faults": [{"at": "50ms", "kind": "linkDown", "node": "leaf-0", "peer": "spine-1"}],
		"reconvergence": "25ms", "horizon": "1s"
	}`
	sc, err := ParseScenario([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults[0].At.Duration != 50*time.Millisecond || sc.Reconvergence.Duration != 25*time.Millisecond {
		t.Fatalf("durations parsed as %v / %v", sc.Faults[0].At.Duration, sc.Reconvergence.Duration)
	}
	bad := strings.Replace(good, `"node": "leaf-0"`, `"node": "leaf-9"`, 1)
	if _, err := ParseScenario([]byte(bad)); err == nil {
		t.Fatal("fault naming a nonexistent node validated")
	}
	if _, err := ParseScenario([]byte(`{"topology": {"kind": "torus"}}`)); err == nil {
		t.Fatal("unknown topology kind validated")
	}
}
