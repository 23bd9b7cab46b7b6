package harmless

import (
	"errors"
	"fmt"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/mgmt"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/snmp"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// Manager orchestrates a migration end to end, reproducing the
// workflow of the paper's HARMLESS Manager (§2): query the legacy
// switch (SNMP), configure its VLANs (vendor driver), instantiate
// HARMLESS-S4, install the translator flows, and connect SS_2 to the
// SDN controller.
type Manager struct {
	driver mgmt.Driver
	snmp   *snmp.Client // optional discovery path
	cfg    ManagerConfig

	plan       *Plan
	s4         *S4
	rolledBack bool
}

// ManagerConfig parameterizes a migration. The tagging layout is
// PlanMigration's: the highest-numbered port is the trunk and access
// port p gets VLAN 100+p.
type ManagerConfig struct {
	// AccessPorts to migrate (nil = all but the trunk).
	AccessPorts []int
	// DatapathID for SS_2 (0 = default).
	DatapathID uint64
	// SweepInterval for flow expiry on SS_2 (0 = disabled).
	SweepInterval time.Duration
	// ControlPlane tunes SS_2's controller channels (keepalive,
	// backoff, logger for dial/liveness diagnostics). Zero = defaults.
	// Its Clock, when set, is the deployment's one clock: SS_1 and SS_2
	// run on it too.
	ControlPlane controlplane.Config
}

// NewManager creates a manager driving the device behind driver.
// snmpClient may be nil; when present it is used for discovery just as
// the paper's manager queries the switch over SNMP.
func NewManager(driver mgmt.Driver, snmpClient *snmp.Client, cfg ManagerConfig) *Manager {
	return &Manager{driver: driver, snmp: snmpClient, cfg: cfg}
}

// Plan returns the computed migration plan (nil before Deploy).
func (m *Manager) Plan() *Plan { return m.plan }

// S4 returns the instantiated group node (nil before Deploy).
func (m *Manager) S4() *S4 { return m.s4 }

// Discover queries the device identity, preferring SNMP.
func (m *Manager) Discover() (*mgmt.Facts, error) {
	if m.snmp != nil {
		f, err := mgmt.DiscoverSNMP(m.snmp)
		if err == nil {
			return f, nil
		}
		// SNMP unreachable: fall through to the CLI.
	}
	return m.driver.Facts()
}

// Deploy executes the full migration:
//
//	discover -> plan -> configure legacy switch -> build S4 ->
//	attach trunk -> connect controller.
//
// trunkPort is the server-side end of the link cabled to the legacy
// switch's trunk; controllers names the SDN controller endpoints SS_2
// maintains channels to — addresses are dialed with backoff redial,
// established transports are served directly (nil/empty defers
// connection, e.g. for staged bring-up).
func (m *Manager) Deploy(trunkPort *netem.Port, controllers []controlplane.Endpoint) (*S4, error) {
	facts, err := m.Discover()
	if err != nil {
		return nil, fmt.Errorf("harmless: discovery failed: %w", err)
	}
	plan, err := PlanMigration(PlanConfig{
		Hostname:    facts.Hostname,
		NumPorts:    facts.PortCount,
		AccessPorts: m.cfg.AccessPorts,
	})
	if err != nil {
		return nil, err
	}
	m.plan = plan
	m.rolledBack = false

	if err := m.configureLegacy(plan); err != nil {
		// A partially applied tagging layout would leave the switch
		// tagged with no S4 attached; undo what was pushed before
		// reporting the failure.
		err = fmt.Errorf("harmless: configuring %s: %w", facts.Hostname, err)
		if rbErr := m.rollbackLegacy(plan); rbErr != nil {
			err = errors.Join(err, rbErr)
		}
		m.plan = nil
		return nil, err
	}

	s4, err := BuildS4(plan, S4Config{
		Name:       facts.Hostname,
		DatapathID: m.cfg.DatapathID,
		Clock:      m.cfg.ControlPlane.Clock,
	})
	if err != nil {
		if rbErr := m.rollbackLegacy(plan); rbErr != nil {
			err = errors.Join(err, rbErr)
		}
		m.plan = nil
		return nil, err
	}
	s4.AttachTrunk(trunkPort)
	if len(controllers) > 0 {
		s4.ConnectControllers(controllers, m.cfg.ControlPlane, m.cfg.SweepInterval)
	}
	m.s4 = s4
	return s4, nil
}

// configureLegacy pushes the tagging layout through the vendor driver.
func (m *Manager) configureLegacy(plan *Plan) error {
	for _, port := range plan.MigratedPorts() {
		vlan := plan.VLANForPort[port]
		if err := m.driver.DeclareVLAN(vlan, fmt.Sprintf("harmless-p%d", port)); err != nil {
			return err
		}
		if err := m.driver.ConfigureAccessPort(port, vlan); err != nil {
			return err
		}
	}
	return m.driver.ConfigureTrunkPort(plan.TrunkPort, plan.NativeVLAN, plan.TrunkVLANs())
}

// Rollback restores the legacy switch to its pre-migration state —
// every migrated port (and the trunk) back to an access port in the
// native VLAN, the per-port HARMLESS VLANs removed — and stops the
// S4's control plane. configureLegacy departs from the all-access
// native-VLAN layout, so undoing it lands exactly there; callers that
// started from a different layout must restore it themselves.
//
// Rollback is idempotent: after a successful Deploy the first call
// does the work and further calls are no-ops, and it is a no-op when
// nothing was deployed (Deploy cleans up its own partial failures).
// Device errors do not stop the sweep; everything that could not be
// undone is reported in one aggregated error, and the rollback is NOT
// considered done so a later retry can finish the job.
func (m *Manager) Rollback() error {
	if m.plan == nil || m.rolledBack {
		return nil
	}
	if m.s4 != nil {
		m.s4.Stop()
		m.s4 = nil
	}
	if err := m.rollbackLegacy(m.plan); err != nil {
		return err
	}
	m.rolledBack = true
	return nil
}

// rollbackLegacy undoes the tagging layout of configureLegacy,
// best-effort: a failing port does not strand the rest, and every
// failure is reported.
func (m *Manager) rollbackLegacy(plan *Plan) error {
	var errs []error
	for _, port := range plan.MigratedPorts() {
		errs = append(errs, undoErr(m.driver.ConfigureAccessPort(port, plan.NativeVLAN), "port %d", port))
	}
	errs = append(errs, undoErr(m.driver.ConfigureAccessPort(plan.TrunkPort, plan.NativeVLAN), "trunk port %d", plan.TrunkPort))
	for _, port := range plan.MigratedPorts() {
		vlan := plan.VLANForPort[port]
		errs = append(errs, undoErr(m.driver.RemoveVLAN(vlan), "vlan %d", vlan))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("harmless: rollback of %s incomplete: %w", plan.Hostname, err)
	}
	return nil
}

// MigratePort extends a deployed migration by one more access port
// (the incremental strategy): the legacy switch is reconfigured, a
// patch pair is added, and the translator learns the new mapping.
// The controller observes a new port on SS_2 via PORT_STATUS.
func (m *Manager) MigratePort(port int) error {
	if m.s4 == nil {
		return fmt.Errorf("harmless: not deployed")
	}
	plan := m.plan
	if _, done := plan.VLANForPort[port]; done {
		return fmt.Errorf("harmless: port %d already migrated", port)
	}
	vlan, err := plan.vlanFor(port)
	if err != nil {
		return err
	}
	if err := m.driver.DeclareVLAN(vlan, fmt.Sprintf("harmless-p%d", port)); err != nil {
		return err
	}
	plan.VLANForPort[port] = vlan
	err = m.driver.ConfigureAccessPort(port, vlan)
	if err == nil {
		err = m.driver.ConfigureTrunkPort(plan.TrunkPort, plan.NativeVLAN, plan.TrunkVLANs())
	}
	if err != nil {
		// Leave no trace: the port back in the native VLAN, the trunk
		// back to the plan's list, the declared VLAN gone. Each undo
		// that fails is reported under the step it undoes.
		delete(plan.VLANForPort, port)
		return errors.Join(err,
			undoErr(m.driver.ConfigureAccessPort(port, plan.NativeVLAN), "port %d", port),
			undoErr(m.driver.ConfigureTrunkPort(plan.TrunkPort, plan.NativeVLAN, plan.TrunkVLANs()), "trunk port %d", plan.TrunkPort),
			undoErr(m.driver.RemoveVLAN(vlan), "vlan %d", vlan))
	}
	// Wire the new logical port and extend the translator (the two
	// new rules are simple FLOW_MOD adds; existing rules are
	// untouched, so traffic on already-migrated ports is unaffected —
	// the "no flag day" property).
	softConnectPatch(m.s4, uint32(port))
	onePortPlan := &Plan{
		TrunkPort:   plan.TrunkPort,
		VLANForPort: map[int]uint16{port: vlan},
		NativeVLAN:  plan.NativeVLAN,
	}
	return InstallTranslator(m.s4.SS1, onePortPlan)
}

// undoErr prefixes a failed undo step's error with the step it undoes;
// nil stays nil.
func undoErr(err error, step string, args ...any) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf(step+": %w", append(args, err)...)
}

// softConnectPatch adds the patch pair for a logical port on a live
// S4, guarding against double wiring.
func softConnectPatch(s4 *S4, logical uint32) {
	for _, existing := range s4.SS2.PortNumbers() {
		if existing == logical {
			return
		}
	}
	softswitch.ConnectPatch(s4.SS1, SS1PatchBase+logical, s4.SS2, logical)
}
