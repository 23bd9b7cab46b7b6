package migrate

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"github.com/harmless-sdn/harmless/internal/cost"
	"github.com/harmless-sdn/harmless/internal/sim"
)

// FaultKind names a mid-wave fault the executor can inject.
type FaultKind string

// The supported fault kinds.
const (
	// FaultServerDown kills the wave's commodity server: the S4 stops
	// receiving on the trunk and the controller channels drop. The
	// wave's health check fails and the wave rolls back.
	FaultServerDown FaultKind = "serverDown"
	// FaultTrunkFlap administratively downs the trunk port for
	// Duration. The wave rolls back; the port re-enables later as a
	// plain access port.
	FaultTrunkFlap FaultKind = "trunkFlap"
	// FaultCtrlLoss kills the master controller channel; the slave
	// promotes with a bumped generation (the PR 5 failover path). The
	// wave survives and commits.
	FaultCtrlLoss FaultKind = "ctrlLoss"
)

// FaultSpec schedules one fault relative to the deploy instant of the
// wave migrating the targeted switch.
type FaultSpec struct {
	Kind   FaultKind `json:"kind"`
	Switch string    `json:"switch"`
	// AfterDeploy is the virtual-time offset into the wave's soak
	// window (0 = half the soak).
	AfterDeploy sim.Duration `json:"afterDeploy,omitempty"`
	// Duration applies to trunkFlap: how long the port stays down
	// (0 = 5ms).
	Duration sim.Duration `json:"duration,omitempty"`
}

// CatalogSpec overrides individual 2017 catalog prices.
type CatalogSpec struct {
	COTSPrice   float64 `json:"cotsPrice,omitempty"`
	ServerPrice float64 `json:"serverPrice,omitempty"`
	LegacyPrice float64 `json:"legacyPrice,omitempty"`
}

// Spec is a JSON campaign description (the cmd/migrate input format,
// following fleetsim's duration conventions).
type Spec struct {
	Name string `json:"name"`
	// WaveBudget is the per-wave capital budget (USD).
	WaveBudget float64 `json:"waveBudget"`
	// Switches is the fabric inventory.
	Switches []SwitchSpec `json:"switches"`
	// Catalog optionally overrides the 2017 street prices.
	Catalog *CatalogSpec `json:"catalog,omitempty"`
	// TrafficInterval is the virtual-time spacing of traffic ticks;
	// every tick, every paired host sends one UDP datagram each way.
	TrafficInterval sim.Duration `json:"trafficInterval,omitempty"`
	// WaveSoak is how long a deployed wave carries traffic before the
	// commit check; WaveGap separates a commit from the next deploy;
	// Tail keeps traffic flowing after the last commit.
	WaveSoak sim.Duration `json:"waveSoak,omitempty"`
	WaveGap  sim.Duration `json:"waveGap,omitempty"`
	Tail     sim.Duration `json:"tail,omitempty"`
	// Faults to inject mid-wave.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// withDefaults fills unset knobs.
func (s Spec) withDefaults() Spec {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.TrafficInterval.Duration <= 0 {
		s.TrafficInterval.Duration = 2 * time.Millisecond
	}
	if s.WaveSoak.Duration <= 0 {
		s.WaveSoak.Duration = 30 * time.Millisecond
	}
	if s.WaveGap.Duration <= 0 {
		s.WaveGap.Duration = 10 * time.Millisecond
	}
	if s.Tail.Duration <= 0 {
		s.Tail.Duration = 20 * time.Millisecond
	}
	if s.WaveBudget == 0 {
		s.WaveBudget = s.ResolveCatalog().ServerPrice
	}
	for i := range s.Faults {
		if s.Faults[i].AfterDeploy.Duration <= 0 {
			s.Faults[i].AfterDeploy.Duration = s.WaveSoak.Duration / 2
		}
		if s.Faults[i].Kind == FaultTrunkFlap && s.Faults[i].Duration.Duration <= 0 {
			s.Faults[i].Duration.Duration = 5 * time.Millisecond
		}
	}
	return s
}

// ResolveCatalog returns the 2017 catalog with the spec's overrides.
func (s Spec) ResolveCatalog() cost.Catalog {
	c := cost.DefaultCatalog2017()
	if s.Catalog == nil {
		return c
	}
	if s.Catalog.COTSPrice > 0 {
		c.COTSSDNSwitchPrice = s.Catalog.COTSPrice
	}
	if s.Catalog.ServerPrice > 0 {
		c.ServerPrice = s.Catalog.ServerPrice
	}
	if s.Catalog.LegacyPrice > 0 {
		c.LegacySwitchPrice = s.Catalog.LegacyPrice
	}
	return c
}

// Validate checks the campaign for executability. Planner-level
// constraints (names, budget) are checked by PlanCampaign; this adds
// the executor's requirements.
func (s Spec) Validate() error {
	if len(s.Switches) == 0 {
		return fmt.Errorf("migrate: campaign has no switches")
	}
	if len(s.Switches) > 64 {
		return fmt.Errorf("migrate: campaign caps at 64 switches, got %d", len(s.Switches))
	}
	names := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		// The executor needs at least one traffic pair per switch and
		// addresses ports in one byte.
		if sw.Ports < 3 {
			return fmt.Errorf("migrate: switch %s has %d ports; the executor needs >= 3 (two hosts + trunk)", sw.Name, sw.Ports)
		}
		if sw.Ports > 250 {
			return fmt.Errorf("migrate: switch %s has %d ports; the executor caps at 250", sw.Name, sw.Ports)
		}
		names[sw.Name] = true
	}
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultServerDown, FaultTrunkFlap, FaultCtrlLoss:
		default:
			return fmt.Errorf("migrate: fault %d has unknown kind %q", i, f.Kind)
		}
		if !names[f.Switch] {
			return fmt.Errorf("migrate: fault %d targets unknown switch %q", i, f.Switch)
		}
		if f.AfterDeploy.Duration >= s.WaveSoak.Duration {
			return fmt.Errorf("migrate: fault %d fires %v after deploy, outside the %v soak window",
				i, f.AfterDeploy.Duration, s.WaveSoak.Duration)
		}
	}
	return nil
}

// ParseSpec decodes, defaults and validates a campaign spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("migrate: spec parse: %w", err)
	}
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a campaign spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}
