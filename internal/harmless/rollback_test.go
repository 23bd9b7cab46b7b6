package harmless

import (
	"fmt"
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/mgmt"
)

// flakyDriver passes through to a real CLI driver until armed, then
// fails the named method (ConfigureAccessPort counts successes so a
// partial configureLegacy can be simulated).
type flakyDriver struct {
	mgmt.Driver
	failMethod  string
	accessCalls int
	failAfter   int // ConfigureAccessPort: refuse the Nth call (transiently)
}

func (f *flakyDriver) ConfigureAccessPort(port int, vlan uint16) error {
	if f.failMethod == "ConfigureAccessPort" {
		n := f.accessCalls
		f.accessCalls++
		if n == f.failAfter {
			return fmt.Errorf("injected: access port %d refused", port)
		}
	}
	return f.Driver.ConfigureAccessPort(port, vlan)
}

func (f *flakyDriver) ConfigureTrunkPort(port int, native uint16, allowed []uint16) error {
	if f.failMethod == "ConfigureTrunkPort" {
		return fmt.Errorf("injected: trunk port %d refused", port)
	}
	return f.Driver.ConfigureTrunkPort(port, native, allowed)
}

func (f *flakyDriver) RemoveVLAN(id uint16) error {
	if f.failMethod == "RemoveVLAN" {
		return fmt.Errorf("injected: vlan %d sticky", id)
	}
	return f.Driver.RemoveVLAN(id)
}

func TestManagerRollbackRestoresRunningConfig(t *testing.T) {
	r := newManagerRig(t, 5, false)
	before, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(r.driver, nil, ManagerConfig{})
	if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
		t.Fatal(err)
	}
	mid, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if mid == before {
		t.Fatal("deploy did not change the running config")
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("rollback did not restore the running config:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if m.S4() != nil {
		t.Error("S4 survived rollback")
	}
	// Idempotent: a second rollback is a no-op.
	if err := m.Rollback(); err != nil {
		t.Errorf("second rollback: %v", err)
	}
}

func TestManagerDeployPartialFailureCleansUp(t *testing.T) {
	for _, tc := range []struct {
		name      string
		method    string
		failAfter int
	}{
		// Trunk config refused after every access port was retagged —
		// the worst partial state: fully tagged, no S4.
		{"trunk-refused", "ConfigureTrunkPort", 0},
		// Third access port refused midway through the tagging sweep.
		{"access-midway", "ConfigureAccessPort", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newManagerRig(t, 5, false)
			before, err := r.driver.RunningConfig()
			if err != nil {
				t.Fatal(err)
			}
			fd := &flakyDriver{Driver: r.driver, failMethod: tc.method, failAfter: tc.failAfter}
			m := NewManager(fd, nil, ManagerConfig{})
			_, err = m.Deploy(r.trunk.B(), nil)
			if err == nil {
				t.Fatal("deploy succeeded despite injected failure")
			}
			if !strings.Contains(err.Error(), "injected") {
				t.Errorf("error does not carry the device failure: %v", err)
			}
			// The partial tagging must have been undone: running config
			// identical to the pre-deploy snapshot, no plan, no S4.
			fd.failMethod = "" // rollback already ran; disarm for the probe
			after, err := r.driver.RunningConfig()
			if err != nil {
				t.Fatal(err)
			}
			if after != before {
				t.Errorf("partial deploy left residue:\n--- before ---\n%s\n--- after ---\n%s", before, after)
			}
			if m.Plan() != nil || m.S4() != nil {
				t.Error("failed deploy left plan/S4 state behind")
			}
		})
	}
}

func TestManagerRollbackReportsAndRetries(t *testing.T) {
	r := newManagerRig(t, 5, false)
	before, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	fd := &flakyDriver{Driver: r.driver}
	m := NewManager(fd, nil, ManagerConfig{})
	if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
		t.Fatal(err)
	}
	// First rollback: VLAN removal fails; the error must name every
	// VLAN it could not remove, and the rollback must not be marked
	// done.
	fd.failMethod = "RemoveVLAN"
	err = m.Rollback()
	if err == nil {
		t.Fatal("rollback swallowed device errors")
	}
	for _, vlan := range []string{"vlan 101", "vlan 104"} {
		if !strings.Contains(err.Error(), vlan) {
			t.Errorf("aggregated error missing %q: %v", vlan, err)
		}
	}
	// Retry with the device healthy again: finishes the job.
	fd.failMethod = ""
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("retried rollback did not restore the config")
	}
	// The legacy switch is back to one declared VLAN (the default).
	if cfg := r.sw.Config(); len(cfg.VLANs) != 1 || cfg.VLANs[legacy.DefaultVLAN] == "" {
		t.Errorf("VLANs after rollback: %v", cfg.VLANs)
	}
}

// TestMigratePortFailureLeavesNoTrace: a MigratePort the device or the
// plan refuses changes nothing, so Rollback still lands exactly on the
// pre-deploy running config.
func TestMigratePortFailureLeavesNoTrace(t *testing.T) {
	r := newManagerRig(t, 5, false)
	before, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	fd := &flakyDriver{Driver: r.driver}
	m := NewManager(fd, nil, ManagerConfig{AccessPorts: []int{1, 2}})
	if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
		t.Fatal(err)
	}
	// Ports the switch does not have: refused before the device is
	// touched.
	for _, port := range []int{9, 0} {
		if err := m.MigratePort(port); err == nil {
			t.Errorf("MigratePort(%d) accepted", port)
		}
	}
	// A port the device refuses midway: the declared VLAN is removed.
	fd.failMethod = "ConfigureTrunkPort"
	if err := m.MigratePort(3); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Errorf("MigratePort(3) with the trunk refused: %v", err)
	}
	fd.failMethod = ""
	if _, ok := m.Plan().VLANForPort[3]; ok {
		t.Error("refused port 3 left in the plan")
	}
	if cfg := r.sw.Config(); cfg.VLANs[103] != "" || cfg.Ports[3].PVID != legacy.DefaultVLAN {
		t.Errorf("refused port 3 left VLAN %q, PVID %d", cfg.VLANs[103], cfg.Ports[3].PVID)
	}
	// The port can still be migrated once the device accepts it.
	if err := m.MigratePort(3); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Errorf("rollback after failed MigratePort calls differs:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
}
