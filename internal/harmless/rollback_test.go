package harmless

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/mgmt"
)

// errInjected is the device failure flakyDriver returns. It names no
// port or VLAN, so an error that does had the step named by the
// Manager.
var errInjected = errors.New("injected device fault")

// call is one driver call: a method, and the index of the call among
// that method's calls since the driver was armed (every: all of them).
type call struct {
	method string
	n      int
}

const every = -1

// flakyDriver passes through to a real CLI driver, refusing the calls
// it is armed with.
type flakyDriver struct {
	mgmt.Driver
	fail  map[call]bool
	calls map[string]int
}

// arm refuses the listed calls, counting each method's calls from now
// on; arm() with no calls disarms the driver.
func (f *flakyDriver) arm(fail ...call) {
	f.fail, f.calls = map[call]bool{}, map[string]int{}
	for _, c := range fail {
		f.fail[c] = true
	}
}

func (f *flakyDriver) refuse(method string) error {
	if f.fail == nil {
		return nil
	}
	n := f.calls[method]
	f.calls[method] = n + 1
	if f.fail[call{method, n}] || f.fail[call{method, every}] {
		return errInjected
	}
	return nil
}

func (f *flakyDriver) ConfigureAccessPort(port int, vlan uint16) error {
	if err := f.refuse("ConfigureAccessPort"); err != nil {
		return err
	}
	return f.Driver.ConfigureAccessPort(port, vlan)
}

func (f *flakyDriver) ConfigureTrunkPort(port int, native uint16, allowed []uint16) error {
	if err := f.refuse("ConfigureTrunkPort"); err != nil {
		return err
	}
	return f.Driver.ConfigureTrunkPort(port, native, allowed)
}

func (f *flakyDriver) RemoveVLAN(id uint16) error {
	if err := f.refuse("RemoveVLAN"); err != nil {
		return err
	}
	return f.Driver.RemoveVLAN(id)
}

// runningConfig returns the device's running config through the
// unwrapped driver.
func (r *managerRig) runningConfig(t *testing.T) string {
	t.Helper()
	cfg, err := r.driver.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
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
			fd := &flakyDriver{Driver: r.driver}
			fd.arm(call{tc.method, tc.failAfter})
			m := NewManager(fd, nil, ManagerConfig{})
			_, err = m.Deploy(r.trunk.B(), nil)
			if err == nil {
				t.Fatal("deploy succeeded despite injected failure")
			}
			if !errors.Is(err, errInjected) {
				t.Errorf("error does not carry the device failure: %v", err)
			}
			// The partial tagging must have been undone: running config
			// identical to the pre-deploy snapshot, no plan, no S4.
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
	fd.arm(call{"RemoveVLAN", every})
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
	fd.arm()
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
	// A port the device refuses midway, and keeps refusing while the
	// undo restores the trunk: the undo goes on past that failure, so
	// port 3 is back in the native VLAN and the declared VLAN is
	// removed.
	fd.arm(call{"ConfigureTrunkPort", every})
	if err := m.MigratePort(3); !errors.Is(err, errInjected) {
		t.Errorf("MigratePort(3) with the trunk refused: %v", err)
	}
	fd.arm()
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

// TestUnwindStepFailures fails each undo step of the Manager's three
// unwind paths in turn — Rollback, the cleanup of a Deploy whose trunk
// the device refused, and the undo of a MigratePort whose trunk the
// device refused. Each time the returned error must carry the device
// failure under the name of the step that failed, and a retry on a
// healthy device must land on the pre-deploy running config byte for
// byte.
func TestUnwindStepFailures(t *testing.T) {
	type step struct {
		fail call
		name string
	}
	// Five ports: 1-4 migrated into VLANs 101-104, 5 the trunk. An
	// undo of that layout sends ports 1-4 back to the native VLAN
	// (access calls 0-3), then the trunk (access call 4), then removes
	// the four VLANs (RemoveVLAN calls 0-3). skip shifts the access
	// calls past the ones made before the undo starts.
	undo := func(skip int) []step {
		var steps []step
		for p := 1; p <= 4; p++ {
			steps = append(steps, step{call{"ConfigureAccessPort", skip + p - 1}, fmt.Sprintf("port %d: ", p)})
		}
		steps = append(steps, step{call{"ConfigureAccessPort", skip + 4}, "trunk port 5: "})
		for p := 1; p <= 4; p++ {
			steps = append(steps, step{call{"RemoveVLAN", p - 1}, fmt.Sprintf("vlan %d: ", 100+p)})
		}
		return steps
	}
	named := func(t *testing.T, err error, name string) {
		t.Helper()
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), name+errInjected.Error()) {
			t.Errorf("error does not name the failed step %q: %v", name, err)
		}
	}
	// undone checks, before the retry, that every undo step but the
	// failed one took effect: an undo goes on past a failure.
	undone := func(t *testing.T, r *managerRig, failed string, ports ...int) {
		t.Helper()
		cfg := r.sw.Config()
		for _, p := range ports {
			if failed != fmt.Sprintf("port %d: ", p) && cfg.Ports[p].PVID != legacy.DefaultVLAN {
				t.Errorf("undo stopped before port %d: PVID %d", p, cfg.Ports[p].PVID)
			}
			if vlan := uint16(100 + p); failed != fmt.Sprintf("vlan %d: ", vlan) && cfg.VLANs[vlan] != "" {
				t.Errorf("undo stopped before VLAN %d: %q", vlan, cfg.VLANs[vlan])
			}
		}
	}
	run := func(t *testing.T, accessPorts []int, body func(m *Manager, fd *flakyDriver, r *managerRig)) {
		r := newManagerRig(t, 5, false)
		before := r.runningConfig(t)
		fd := &flakyDriver{Driver: r.driver}
		m := NewManager(fd, nil, ManagerConfig{AccessPorts: accessPorts})
		body(m, fd, r)
		fd.arm()
		if err := m.Rollback(); err != nil {
			t.Fatalf("rollback on a healthy device: %v", err)
		}
		if after := r.runningConfig(t); after != before {
			t.Errorf("retry did not restore the running config:\n--- before ---\n%s\n--- after ---\n%s", before, after)
		}
	}

	for _, st := range undo(0) {
		t.Run("rollback/"+strings.TrimSuffix(st.name, ": "), func(t *testing.T) {
			run(t, nil, func(m *Manager, fd *flakyDriver, r *managerRig) {
				if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
					t.Fatal(err)
				}
				fd.arm(st.fail)
				named(t, m.Rollback(), st.name)
				undone(t, r, st.name, 1, 2, 3, 4)
			})
		})
	}
	// Deploy tags ports 1-4 (access calls 0-3), then the device refuses
	// the trunk; the cleanup follows.
	for _, st := range undo(4) {
		t.Run("deploy/"+strings.TrimSuffix(st.name, ": "), func(t *testing.T) {
			run(t, nil, func(m *Manager, fd *flakyDriver, r *managerRig) {
				fd.arm(call{"ConfigureTrunkPort", 0}, st.fail)
				_, err := m.Deploy(r.trunk.B(), nil)
				named(t, err, st.name)
				undone(t, r, st.name, 1, 2, 3, 4)
				// The retry deploys again; run rolls it back.
				fd.arm()
				if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
	// MigratePort(3) declares VLAN 103 and puts port 3 in it (access
	// call 0), then the device refuses the trunk (trunk call 0); the
	// undo puts port 3 back (access call 1), restores the trunk's list
	// (trunk call 1) and removes VLAN 103.
	for _, st := range []step{
		{call{"ConfigureAccessPort", 1}, "port 3: "},
		{call{"ConfigureTrunkPort", 1}, "trunk port 5: "},
		{call{"RemoveVLAN", 0}, "vlan 103: "},
	} {
		t.Run("migrate-port/"+strings.TrimSuffix(st.name, ": "), func(t *testing.T) {
			run(t, []int{1, 2}, func(m *Manager, fd *flakyDriver, r *managerRig) {
				if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
					t.Fatal(err)
				}
				fd.arm(call{"ConfigureTrunkPort", 0}, st.fail)
				named(t, m.MigratePort(3), st.name)
				undone(t, r, st.name, 3)
				// The retry migrates the port; run rolls it back.
				fd.arm()
				if err := m.MigratePort(3); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
