package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
)

// Duration wraps time.Duration with JSON unmarshalling from "50ms"
// strings (or raw nanosecond numbers), the form scenario files use.
type Duration struct {
	time.Duration
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch t := v.(type) {
	case string:
		dd, err := time.ParseDuration(t)
		if err != nil {
			return fmt.Errorf("sim: bad duration %q: %w", t, err)
		}
		d.Duration = dd
	case float64:
		d.Duration = time.Duration(t)
	default:
		return fmt.Errorf("sim: duration must be a string or number, got %T", v)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.Duration.String())
}

// TopologySpec selects and sizes a generated fabric.
type TopologySpec struct {
	Kind string `json:"kind"` // "fattree" or "leafspine"
	// fat-tree
	K int `json:"k,omitempty"`
	// leaf-spine
	Spines       int `json:"spines,omitempty"`
	Leaves       int `json:"leaves,omitempty"`
	HostsPerLeaf int `json:"hostsPerLeaf,omitempty"`
}

// Build generates the topology.
func (t TopologySpec) Build() (*fabric.Topology, error) {
	switch t.Kind {
	case "fattree":
		return fabric.FatTree(t.K)
	case "leafspine":
		return fabric.LeafSpine(t.Spines, t.Leaves, t.HostsPerLeaf)
	}
	return nil, fmt.Errorf("sim: unknown topology kind %q (want fattree or leafspine)", t.Kind)
}

// WorkloadSpec selects and parameterizes an arrival stream.
type WorkloadSpec struct {
	Kind        string  `json:"kind"` // poisson | diurnal | heavyhitter | incast
	Flows       int     `json:"flows,omitempty"`
	RatePerSec  float64 `json:"ratePerSec,omitempty"`
	MeanPackets int     `json:"meanPackets,omitempty"`
	// diurnal
	Amplitude float64  `json:"amplitude,omitempty"`
	Period    Duration `json:"period,omitempty"`
	// heavyhitter
	Elephants       int     `json:"elephants,omitempty"`
	Mice            int     `json:"mice,omitempty"`
	PacketShare     float64 `json:"packetShare,omitempty"`
	ElephantPackets int     `json:"elephantPackets,omitempty"`
	MousePackets    int     `json:"mousePackets,omitempty"`
	MouseLife       int     `json:"mouseLife,omitempty"`
	// incast
	Bursts      int      `json:"bursts,omitempty"`
	FanIn       int      `json:"fanIn,omitempty"`
	BurstSpread Duration `json:"burstSpread,omitempty"`
	Packets     int      `json:"packets,omitempty"`
}

// Build instantiates the workload over nHosts hosts from the run seed
// plus one; every recorded verdict digest was drawn with that offset.
func (w WorkloadSpec) Build(nHosts int, seed int64) (fabric.Workload, error) {
	switch w.Kind {
	case "poisson":
		return fabric.NewPoissonWorkload(nHosts, w.Flows, w.RatePerSec, w.MeanPackets, seed+1)
	case "diurnal":
		return fabric.NewDiurnalWorkload(nHosts, w.Flows, w.RatePerSec, w.Amplitude,
			w.Period.Duration, w.MeanPackets, seed+1)
	case "heavyhitter":
		return fabric.NewHeavyHitterWorkload(nHosts, w.Flows, w.RatePerSec, w.Elephants,
			w.Mice, w.PacketShare, w.ElephantPackets, w.MousePackets, w.MouseLife, seed+1)
	case "incast":
		return fabric.NewIncastWorkload(nHosts, w.Bursts, w.FanIn, w.Period.Duration,
			w.BurstSpread.Duration, w.Packets, seed+1)
	}
	return nil, fmt.Errorf("sim: unknown workload kind %q", w.Kind)
}

// TotalArrivals returns how many arrivals the spec will emit.
func (w WorkloadSpec) TotalArrivals() int {
	if w.Kind == "incast" {
		return w.Bursts * w.FanIn
	}
	return w.Flows
}

// Fault kinds.
const (
	FaultLinkDown     = "linkDown"
	FaultLinkUp       = "linkUp"
	FaultSwitchDown   = "switchDown"
	FaultSwitchUp     = "switchUp"
	FaultCtrlFailover = "ctrlFailover"
)

// FaultSpec is one scheduled fault. Link faults name both endpoints;
// switch faults and controller failover name one node (ctrlFailover's
// Node is informational — the failover is fabric-wide).
type FaultSpec struct {
	At   Duration `json:"at"`
	Kind string   `json:"kind"`
	Node string   `json:"node,omitempty"`
	Peer string   `json:"peer,omitempty"`
}

// Scenario is one reproducible fleet-simulation run: a topology, a
// workload, a fault schedule and the knobs tying them to virtual time.
type Scenario struct {
	Name     string       `json:"name"`
	Seed     int64        `json:"seed"`
	Mode     string       `json:"mode,omitempty"` // "flow" (default) or "packet"
	Topology TopologySpec `json:"topology"`
	Workload WorkloadSpec `json:"workload"`
	Faults   []FaultSpec  `json:"faults,omitempty"`
	// LinkLatency is the per-hop propagation delay (flow mode charges
	// it per path hop; packet mode configures it on every netem link).
	LinkLatency Duration `json:"linkLatency,omitempty"`
	// Reconvergence is how long after a fault the fabric needs before
	// flows are steered around it; primary-path flows hitting the
	// faulted element before then are lost (and attributed to the
	// fault's convergence record).
	Reconvergence Duration `json:"reconvergence,omitempty"`
	// Horizon stops the run at this virtual offset (0 = drain).
	Horizon Duration `json:"horizon,omitempty"`
}

// withDefaults fills unset knobs.
func (s Scenario) withDefaults() Scenario {
	if s.Mode == "" {
		s.Mode = "flow"
	}
	if s.LinkLatency.Duration == 0 {
		s.LinkLatency.Duration = 10 * time.Microsecond
	}
	if s.Reconvergence.Duration == 0 {
		s.Reconvergence.Duration = 50 * time.Millisecond
	}
	return s
}

// Validate rejects malformed scenarios before any simulation state is
// built, resolving fault targets against the generated topology.
func (s Scenario) Validate() error {
	if s.Mode != "" && s.Mode != "flow" && s.Mode != "packet" {
		return fmt.Errorf("sim: mode %q (want flow or packet)", s.Mode)
	}
	topo, err := s.Topology.Build()
	if err != nil {
		return err
	}
	if _, err := s.Workload.Build(len(topo.HostIDs), s.Seed); err != nil {
		return err
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultLinkDown, FaultLinkUp:
			a, ok := topo.NodeByName(f.Node)
			if !ok {
				return fmt.Errorf("sim: fault %d names unknown node %q", i, f.Node)
			}
			b, ok := topo.NodeByName(f.Peer)
			if !ok {
				return fmt.Errorf("sim: fault %d names unknown peer %q", i, f.Peer)
			}
			if topo.LinkBetween(a, b) < 0 {
				return fmt.Errorf("sim: fault %d: no link %s <-> %s", i, f.Node, f.Peer)
			}
		case FaultSwitchDown, FaultSwitchUp:
			if _, ok := topo.NodeByName(f.Node); !ok {
				return fmt.Errorf("sim: fault %d names unknown node %q", i, f.Node)
			}
		case FaultCtrlFailover:
			// fabric-wide; nothing to resolve
		default:
			return fmt.Errorf("sim: fault %d has unknown kind %q", i, f.Kind)
		}
		if f.At.Duration < 0 {
			return fmt.Errorf("sim: fault %d scheduled at negative offset %v", i, f.At.Duration)
		}
	}
	return nil
}

// ParseScenario decodes and validates a scenario document.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("sim: scenario parse: %w", err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenario reads a scenario file.
func LoadScenario(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	return ParseScenario(data)
}
