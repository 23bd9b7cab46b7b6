// Package harmless implements the paper's contribution: the Hybrid
// ARchitecture to Migrate Legacy Ethernet Switches to SDN.
//
// A migration turns a legacy 802.1Q switch plus a commodity server
// into one OpenFlow switch, with full data-plane transparency:
//
//   - The legacy switch is configured (via the mgmt driver, as the
//     paper does with NAPALM) so every migrated access port is an
//     untagged member of a unique VLAN and one trunk port carries all
//     of them to the server ("tagging").
//   - On the server, two software switch instances form HARMLESS-S4:
//     SS_1, the translator, maps VLAN ids to patch ports and back
//     ("hairpinning"); SS_2 is the controller-facing OpenFlow switch
//     whose port numbers equal the legacy access port numbers, so
//     controller programs need no knowledge of the VLAN mapping.
//
// Ports not (yet) migrated keep classic L2 switching among themselves
// in the legacy switch's native VLAN; their broadcast domain appears
// on SS_2 as one extra logical port (the "legacy segment"), enabling
// the incremental migration strategy the paper's introduction calls
// for. See Manager for the orchestration workflow.
package harmless

import (
	"fmt"
	"sort"

	"github.com/harmless-sdn/harmless/internal/legacy"
)

// Plan is the computed migration layout for one legacy switch.
type Plan struct {
	// Hostname of the device (diagnostics).
	Hostname string
	// TrunkPort is the legacy port cabled to the server.
	TrunkPort int
	// VLANForPort maps each migrated access port to its unique VLAN.
	VLANForPort map[int]uint16
	// NativeVLAN carries the unmigrated segment over the trunk
	// untagged (the legacy switch's default VLAN).
	NativeVLAN uint16
	// LegacySegment is true when unmigrated ports exist and must be
	// represented as a logical port on SS_2.
	LegacySegment bool
	// LegacySegmentPort is the SS_2 logical port number representing
	// the unmigrated broadcast domain (only meaningful when
	// LegacySegment is true). It equals the trunk port number, which
	// can never collide with an access port.
	LegacySegmentPort uint32
}

// baseVLAN numbers the per-port VLANs: access port p gets VLAN
// baseVLAN+p, the 101, 102, ... of the paper's Fig. 1.
const baseVLAN = 100

// PlanConfig parameterizes PlanMigration. The layout is fixed: the
// highest-numbered port is the trunk, access port p gets VLAN 100+p,
// and unmigrated ports stay in the legacy default VLAN.
type PlanConfig struct {
	// Hostname for diagnostics.
	Hostname string
	// NumPorts is the legacy switch's port count.
	NumPorts int
	// AccessPorts lists the ports to migrate; nil migrates every port
	// except the trunk.
	AccessPorts []int
}

// PlanMigration validates the configuration and computes the layout.
func PlanMigration(cfg PlanConfig) (*Plan, error) {
	if cfg.NumPorts < 2 {
		return nil, fmt.Errorf("harmless: need at least 2 ports, have %d", cfg.NumPorts)
	}
	trunk := cfg.NumPorts
	access := cfg.AccessPorts
	if access == nil {
		for p := 1; p < trunk; p++ {
			access = append(access, p)
		}
	}
	plan := &Plan{
		Hostname:    cfg.Hostname,
		TrunkPort:   trunk,
		VLANForPort: make(map[int]uint16, len(access)),
		NativeVLAN:  legacy.DefaultVLAN,
	}
	for _, p := range access {
		vlan, err := plan.vlanFor(p)
		if err != nil {
			return nil, err
		}
		if _, dup := plan.VLANForPort[p]; dup {
			return nil, fmt.Errorf("harmless: access port %d listed twice", p)
		}
		plan.VLANForPort[p] = vlan
	}
	if len(plan.VLANForPort) == 0 {
		return nil, fmt.Errorf("harmless: no ports to migrate")
	}
	// Any port that is neither trunk nor migrated forms the legacy
	// segment.
	if len(plan.VLANForPort) < cfg.NumPorts-1 {
		plan.LegacySegment = true
		plan.LegacySegmentPort = uint32(trunk)
	}
	return plan, nil
}

// vlanFor checks that port can be migrated under the plan and returns
// its VLAN: access port p gets baseVLAN+p, never the native VLAN.
// PlanMigration and Manager.MigratePort both take a port's VLAN from
// here.
func (p *Plan) vlanFor(port int) (uint16, error) {
	if port < 1 || port > p.TrunkPort { // the trunk is the highest port
		return 0, fmt.Errorf("harmless: access port %d out of range", port)
	}
	if port == p.TrunkPort {
		return 0, fmt.Errorf("harmless: port %d is the trunk, cannot migrate it", port)
	}
	// In int: the port count comes from the device, and a port past
	// 65435 would wrap a uint16 sum back into the valid range.
	vlan := baseVLAN + port
	if vlan > int(legacy.MaxVLAN) {
		return 0, fmt.Errorf("harmless: VLAN %d for port %d exceeds %d", vlan, port, legacy.MaxVLAN)
	}
	return uint16(vlan), nil
}

// MigratedPorts returns the migrated access ports in ascending order.
func (p *Plan) MigratedPorts() []int {
	out := make([]int, 0, len(p.VLANForPort))
	for port := range p.VLANForPort {
		out = append(out, port)
	}
	sort.Ints(out)
	return out
}

// TrunkVLANs returns all VLANs the trunk must carry (sorted).
func (p *Plan) TrunkVLANs() []uint16 {
	out := make([]uint16, 0, len(p.VLANForPort)+1)
	for _, v := range p.VLANForPort {
		out = append(out, v)
	}
	if p.LegacySegment {
		out = append(out, p.NativeVLAN)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LogicalPorts returns the SS_2 port numbers the controller will see
// (access ports plus the legacy segment port, ascending).
func (p *Plan) LogicalPorts() []uint32 {
	out := make([]uint32, 0, len(p.VLANForPort)+1)
	for _, port := range p.MigratedPorts() {
		out = append(out, uint32(port))
	}
	if p.LegacySegment {
		out = append(out, p.LegacySegmentPort)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarizes the plan.
func (p *Plan) String() string {
	return fmt.Sprintf("plan(%s: trunk=%d, %d migrated ports, legacy-segment=%v)",
		p.Hostname, p.TrunkPort, len(p.VLANForPort), p.LegacySegment)
}
