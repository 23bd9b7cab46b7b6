package harmless

import (
	"net"
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/mgmt"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/snmp"
)

// managerRig wires a legacy switch with CLI + SNMP endpoints and
// returns a manager driving it.
type managerRig struct {
	sw     *legacy.Switch
	driver mgmt.Driver
	snmpC  *snmp.Client
	trunk  *netem.Link
}

func newManagerRig(t *testing.T, ports int, withSNMP bool) *managerRig {
	t.Helper()
	r := &managerRig{sw: legacy.NewSwitch("mgr-sw", ports)}
	cli := legacy.NewCLIServer(r.sw, legacy.DialectCiscoish)
	clientSide, serverSide := net.Pipe()
	go func() { _ = cli.ServeConn(serverSide) }()
	driver, err := mgmt.NewDriver(clientSide)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { driver.Close() })
	r.driver = driver

	if withSNMP {
		mib := snmp.NewMIB()
		legacy.BindMIB(r.sw, mib, legacy.DialectCiscoish)
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pc.Close() })
		go snmp.NewAgent(mib, "public").Serve(pc) //nolint:errcheck
		c, err := snmp.Dial(pc.LocalAddr().String(), "public")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		r.snmpC = c
	}

	r.trunk = netem.NewLink(netem.LinkConfig{Name: "mgr-trunk"})
	t.Cleanup(r.trunk.Close)
	r.sw.AttachPort(ports, r.trunk.A())
	return r
}

func TestManagerDeployConfiguresLegacy(t *testing.T) {
	r := newManagerRig(t, 5, false)
	m := NewManager(r.driver, nil, ManagerConfig{})
	s4, err := m.Deploy(r.trunk.B(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s4 == nil || m.S4() != s4 || m.Plan() == nil {
		t.Fatal("accessors broken")
	}
	cfg := r.sw.Config()
	for p := 1; p <= 4; p++ {
		if cfg.Ports[p].Mode != legacy.ModeAccess || cfg.Ports[p].PVID != uint16(100+p) {
			t.Errorf("port %d: %+v", p, cfg.Ports[p])
		}
	}
	if cfg.Ports[5].Mode != legacy.ModeTrunk {
		t.Errorf("trunk: %+v", cfg.Ports[5])
	}
	if al := cfg.Ports[5].AllowedList(); len(al) != 4 {
		t.Errorf("trunk allowed: %v", al)
	}
	// VLANs got harmless names.
	if !strings.Contains(cfg.VLANs[101], "harmless") {
		t.Errorf("vlan names: %v", cfg.VLANs)
	}
	// SS_2 logical ports mirror the access ports.
	ports := s4.SS2.PortNumbers()
	if len(ports) != 4 || ports[0] != 1 || ports[3] != 4 {
		t.Errorf("logical ports: %v", ports)
	}
}

func TestManagerDiscoverPrefersSNMP(t *testing.T) {
	r := newManagerRig(t, 4, true)
	m := NewManager(r.driver, r.snmpC, ManagerConfig{})
	facts, err := m.Discover()
	if err != nil {
		t.Fatal(err)
	}
	if facts.Hostname != "mgr-sw" || facts.PortCount != 4 || facts.Vendor != "ciscoish" {
		t.Errorf("facts: %+v", facts)
	}
	// Deploy with the SNMP path active.
	if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestManagerMigratePortErrors(t *testing.T) {
	r := newManagerRig(t, 5, false)
	m := NewManager(r.driver, nil, ManagerConfig{AccessPorts: []int{1, 2}})
	if err := m.MigratePort(3); err == nil {
		t.Error("MigratePort before Deploy accepted")
	}
	if _, err := m.Deploy(r.trunk.B(), nil); err != nil {
		t.Fatal(err)
	}
	if err := m.MigratePort(1); err == nil {
		t.Error("re-migrating port 1 accepted")
	}
	if err := m.MigratePort(5); err == nil {
		t.Error("migrating the trunk accepted")
	}
	// A valid incremental migration extends plan + translator + SS_2.
	if err := m.MigratePort(3); err != nil {
		t.Fatal(err)
	}
	if m.Plan().VLANForPort[3] != 103 {
		t.Errorf("plan: %v", m.Plan().VLANForPort)
	}
	found := false
	for _, p := range m.S4().SS2.PortNumbers() {
		if p == 3 {
			found = true
		}
	}
	if !found {
		t.Error("logical port 3 not wired")
	}
	// Translator gained two rules for the port.
	if got := m.S4().SS1.Table(0).Len(); got != 2*2+2+2 { // 2 initial ports + segment + new port
		t.Errorf("translator rules: %d", got)
	}
	// Idempotent wiring guard.
	softConnectPatch(m.S4(), 3)
}

func TestManagerDeployBadPlan(t *testing.T) {
	r := newManagerRig(t, 4, false)
	m := NewManager(r.driver, nil, ManagerConfig{AccessPorts: []int{9}})
	if _, err := m.Deploy(r.trunk.B(), nil); err == nil {
		t.Error("out-of-range access port accepted")
	}
}
