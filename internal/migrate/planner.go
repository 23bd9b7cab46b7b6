// Package migrate is the hybrid-SDN migration campaign engine: the
// layer that sequences the paper's actual story — a fleet of installed
// legacy switches transitioning to HARMLESS-S4, switch by switch,
// under a capital budget, with continuous traffic and a rollback path
// for waves that go wrong.
//
// It composes the repo's existing subsystems instead of reimplementing
// them:
//
//   - the planner orders migration waves under a per-wave budget and
//     prices every wave through internal/cost (Das et al.'s
//     budget-constrained framing: highest-demand switches first);
//   - the executor runs each wave against a live mixed fabric —
//     harmless.Manager drives the emulated vendor CLIs (internal/
//     legacy + internal/mgmt), SS_1/SS_2 pairs attach to real
//     controlplane channels, and hosts exchange real frames on netem
//     links — all on internal/sim virtual time;
//   - the verifier injects faults mid-wave (server death, trunk flap,
//     controller loss with PR 5 failover), checks the zero-traffic-
//     loss and cost-conformance invariants after every wave, and rolls
//     failed waves back to their pre-wave legacy configuration.
//
// A campaign is reproducible: one goroutine event loop on virtual time,
// no randomness, and a report whose digest is byte-identical across runs
// and machines.
package migrate

import (
	"fmt"
	"sort"
	"strings"

	"github.com/harmless-sdn/harmless/internal/cost"
)

// SwitchSpec is one legacy switch in the fabric inventory.
type SwitchSpec struct {
	// Name identifies the device (unique within a campaign).
	Name string `json:"name"`
	// Ports is the physical port count; the highest-numbered port
	// becomes the HARMLESS trunk, the rest are access ports.
	Ports int `json:"ports"`
	// Demand is the switch's relative traffic demand. The planner
	// migrates high-demand switches first (they profit most from SDN
	// control); ties keep inventory order.
	Demand float64 `json:"demand,omitempty"`
}

// AccessPorts is the number of ports that migrate (one port is
// consumed as the trunk).
func (s SwitchSpec) AccessPorts() int { return s.Ports - 1 }

// Wave is one planned migration step: the switches that flip to
// HARMLESS-S4 together, priced against the cost model.
type Wave struct {
	// Index is 1-based.
	Index int `json:"index"`
	// Switches migrating in this wave, in planned execution order.
	Switches []SwitchSpec `json:"switches"`
	// Ports is the access ports migrated by this wave.
	Ports int `json:"ports"`
	// Cost is this wave's spend (one commodity server per switch,
	// legacy gear sunk), straight from cost.Catalog.WaveCost.
	Cost cost.Breakdown `json:"cost"`
	// CumulativePorts and CumulativeSpend accumulate through this wave.
	CumulativePorts int     `json:"cumulativePorts"`
	CumulativeSpend float64 `json:"cumulativeSpend"`
	// BaselineRipAndReplace / BaselinePureSoftware price serving the
	// same cumulative ports with the two comparison strategies.
	BaselineRipAndReplace float64 `json:"baselineRipAndReplace"`
	BaselinePureSoftware  float64 `json:"baselinePureSoftware"`
}

// Names lists the wave's switch names.
func (w Wave) Names() []string {
	out := make([]string, len(w.Switches))
	for i, s := range w.Switches {
		out[i] = s.Name
	}
	return out
}

// Plan is a full campaign plan.
type Plan struct {
	Catalog    cost.Catalog `json:"catalog"`
	WaveBudget float64      `json:"waveBudget"`
	Waves      []Wave       `json:"waves"`
	// TotalPorts / TotalSpend cover the whole campaign.
	TotalPorts int     `json:"totalPorts"`
	TotalSpend float64 `json:"totalSpend"`
	// FinalRipAndReplace / FinalPureSoftware price the whole fabric
	// under the comparison strategies.
	FinalRipAndReplace float64 `json:"finalRipAndReplace"`
	FinalPureSoftware  float64 `json:"finalPureSoftware"`
	// CrossoverWave is the first wave whose cumulative HARMLESS spend
	// exceeds the rip-and-replace baseline for the same cumulative
	// ports — the point where incremental migration stops being the
	// cheaper path (0 = never crosses; with 2017 street prices it
	// never does, which is the paper's headline).
	CrossoverWave int `json:"crossoverWave"`
}

// PlanCampaign orders the inventory into migration waves under the
// per-wave budget: switches sort by descending demand (stable, so ties
// keep inventory order), and each wave takes as many switches as the
// budget buys servers for. Every wave is priced with
// cost.Catalog.WaveCost, so the executor can later hold the campaign
// to the cost model exactly.
func PlanCampaign(switches []SwitchSpec, catalog cost.Catalog, waveBudget float64) (*Plan, error) {
	if len(switches) == 0 {
		return nil, fmt.Errorf("migrate: empty inventory")
	}
	seen := make(map[string]bool, len(switches))
	for _, s := range switches {
		if s.Name == "" {
			return nil, fmt.Errorf("migrate: switch with empty name")
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("migrate: duplicate switch name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Ports < 2 {
			return nil, fmt.Errorf("migrate: switch %s has %d ports, need at least 2 (one is the trunk)", s.Name, s.Ports)
		}
	}
	if catalog.ServerPrice <= 0 {
		return nil, fmt.Errorf("migrate: catalog server price must be positive")
	}
	perWave := int(waveBudget / catalog.ServerPrice)
	if perWave < 1 {
		return nil, fmt.Errorf("migrate: wave budget $%.0f does not buy one $%.0f server", waveBudget, catalog.ServerPrice)
	}

	ordered := make([]SwitchSpec, len(switches))
	copy(ordered, switches)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Demand > ordered[j].Demand })

	p := &Plan{Catalog: catalog, WaveBudget: waveBudget}
	for start := 0; start < len(ordered); start += perWave {
		end := start + perWave
		if end > len(ordered) {
			end = len(ordered)
		}
		w := Wave{Index: len(p.Waves) + 1, Switches: ordered[start:end]}
		for _, s := range w.Switches {
			w.Ports += s.AccessPorts()
		}
		b, err := catalog.WaveCost(len(w.Switches), w.Ports)
		if err != nil {
			return nil, fmt.Errorf("migrate: pricing wave %d: %w", w.Index, err)
		}
		w.Cost = b
		p.TotalPorts += w.Ports
		p.TotalSpend += b.Total
		w.CumulativePorts = p.TotalPorts
		w.CumulativeSpend = p.TotalSpend

		rr, err := catalog.Cost(cost.RipAndReplace, w.CumulativePorts, false)
		if err != nil {
			return nil, err
		}
		ps, err := catalog.Cost(cost.PureSoftware, w.CumulativePorts, false)
		if err != nil {
			return nil, err
		}
		w.BaselineRipAndReplace = rr.Total
		w.BaselinePureSoftware = ps.Total
		if p.CrossoverWave == 0 && w.CumulativeSpend > w.BaselineRipAndReplace {
			p.CrossoverWave = w.Index
		}
		p.Waves = append(p.Waves, w)
	}
	last := p.Waves[len(p.Waves)-1]
	p.FinalRipAndReplace = last.BaselineRipAndReplace
	p.FinalPureSoftware = last.BaselinePureSoftware
	return p, nil
}

// FormatCampaignTable renders the per-wave cumulative-spend table
// (shared by `costcalc -campaign` and `migrate -plan`).
func FormatCampaignTable(p *Plan) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s %-24s %-6s %-11s %-11s %-13s %-13s %-9s\n",
		"wave", "switches", "ports", "wave-cost", "cum-spend", "cum-rip&repl", "cum-puresoft", "$/port")
	for _, w := range p.Waves {
		names := strings.Join(w.Names(), ",")
		if len(names) > 24 {
			names = names[:21] + "..."
		}
		fmt.Fprintf(&sb, "%-5d %-24s %-6d $%-10.0f $%-10.0f $%-12.0f $%-12.0f $%-8.2f\n",
			w.Index, names, w.Ports, w.Cost.Total, w.CumulativeSpend,
			w.BaselineRipAndReplace, w.BaselinePureSoftware,
			w.CumulativeSpend/float64(w.CumulativePorts))
	}
	if p.CrossoverWave == 0 {
		fmt.Fprintf(&sb, "\ncrossover vs rip-and-replace: never (HARMLESS stays cheaper through wave %d: $%.0f vs $%.0f)\n",
			len(p.Waves), p.TotalSpend, p.FinalRipAndReplace)
	} else {
		fmt.Fprintf(&sb, "\ncrossover vs rip-and-replace: wave %d (cumulative HARMLESS spend exceeds the COTS baseline there)\n",
			p.CrossoverWave)
	}
	return sb.String()
}
