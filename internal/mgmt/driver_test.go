package mgmt

import (
	"net"
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/snmp"
)

// newDeviceRig starts a legacy switch CLI on a loopback TCP listener
// and returns its address.
func newDeviceRig(t *testing.T, sw *legacy.Switch, dialect legacy.Dialect) string {
	t.Helper()
	srv := legacy.NewCLIServer(sw, dialect)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// connect dials a device CLI over TCP and returns the driver NewDriver
// identifies.
func connect(addr string) (Driver, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewDriver(conn)
}

func TestDriverFactsCisco(t *testing.T) {
	sw := legacy.NewSwitch("lab-sw", 8)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f, err := d.Facts()
	if err != nil {
		t.Fatal(err)
	}
	if f.Vendor != "ciscoish" || f.Hostname != "lab-sw" || f.PortCount != 8 {
		t.Errorf("facts: %+v", f)
	}
	if f.OSVersion == "" {
		t.Error("no OS version")
	}
}

func TestDriverFactsArista(t *testing.T) {
	sw := legacy.NewSwitch("ar-sw", 4)
	addr := newDeviceRig(t, sw, legacy.DialectAristaish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	f, err := d.Facts()
	if err != nil {
		t.Fatal(err)
	}
	if f.Vendor != "aristaish" || f.PortCount != 4 || f.Hostname != "ar-sw" {
		t.Errorf("facts: %+v", f)
	}
	if d.InterfaceName(2) != "Ethernet2" {
		t.Errorf("ifname: %s", d.InterfaceName(2))
	}
}

func TestDriverConfiguresHARMLESSLayout(t *testing.T) {
	// The exact sequence the HARMLESS manager issues: per-port VLANs
	// plus one trunk.
	sw := legacy.NewSwitch("h-sw", 4)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for p := 1; p <= 3; p++ {
		vlan := uint16(100 + p)
		if err := d.DeclareVLAN(vlan, "harmless"); err != nil {
			t.Fatal(err)
		}
		if err := d.ConfigureAccessPort(p, vlan); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ConfigureTrunkPort(4, 1, []uint16{101, 102, 103}); err != nil {
		t.Fatal(err)
	}

	cfg := sw.Config()
	for p := 1; p <= 3; p++ {
		if cfg.Ports[p].Mode != legacy.ModeAccess || cfg.Ports[p].PVID != uint16(100+p) {
			t.Errorf("port %d: %+v", p, cfg.Ports[p])
		}
	}
	if cfg.Ports[4].Mode != legacy.ModeTrunk {
		t.Errorf("port 4 not trunk: %+v", cfg.Ports[4])
	}
	if al := cfg.Ports[4].AllowedList(); len(al) != 3 {
		t.Errorf("allowed: %v", al)
	}

	rc, err := d.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rc, "switchport access vlan 101") {
		t.Errorf("running config missing access stanza:\n%s", rc)
	}
}

func TestDriverShutdown(t *testing.T) {
	sw := legacy.NewSwitch("sd-sw", 2)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.SetPortShutdown(1, true); err != nil {
		t.Fatal(err)
	}
	if !sw.Config().Ports[1].Shutdown {
		t.Error("not shut down")
	}
	if err := d.SetPortShutdown(1, false); err != nil {
		t.Fatal(err)
	}
	if sw.Config().Ports[1].Shutdown {
		t.Error("still shut down")
	}
}

func TestDriverInterfaceStatuses(t *testing.T) {
	sw := legacy.NewSwitch("st-sw", 3)
	_ = sw.SetPortShutdown(2, true)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sts, err := d.InterfaceStatuses()
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("statuses: %+v", sts)
	}
	byPort := map[int]InterfaceStatus{}
	for _, s := range sts {
		byPort[s.Port] = s
	}
	if byPort[2].Status != "disabled" {
		t.Errorf("port 2: %+v", byPort[2])
	}
	if byPort[1].Status != "notconnect" {
		t.Errorf("port 1: %+v", byPort[1])
	}
}

func TestDriverRejectsBadCommand(t *testing.T) {
	sw := legacy.NewSwitch("err-sw", 2)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Port 9 does not exist; the CLI rejects it and the driver must
	// surface a CommandError.
	err = d.ConfigureAccessPort(9, 10)
	if err == nil {
		t.Fatal("expected error")
	}
	if _, ok := err.(*CommandError); !ok {
		t.Errorf("want CommandError, got %T: %v", err, err)
	}
}

// TestNewDriverAutodetect: NewDriver tells the two dialects apart from
// "show version" alone, and the driver it returns configures the port
// under the dialect's own interface names.
func TestNewDriverAutodetect(t *testing.T) {
	for _, tc := range []struct {
		dialect legacy.Dialect
		vendor  string
		ifName  string
	}{
		{legacy.DialectCiscoish, "ciscoish", "GigabitEthernet0/1"},
		{legacy.DialectAristaish, "aristaish", "Ethernet1"},
	} {
		sw := legacy.NewSwitch("probe-sw", 2)
		d, err := connect(newDeviceRig(t, sw, tc.dialect))
		if err != nil {
			t.Fatalf("%s: %v", tc.vendor, err)
		}
		if d.Vendor() != tc.vendor || d.InterfaceName(1) != tc.ifName {
			t.Errorf("detected %s naming %s, want %s naming %s", d.Vendor(), d.InterfaceName(1), tc.vendor, tc.ifName)
		}
		if err := d.ConfigureAccessPort(1, 33); err != nil {
			t.Errorf("%s: configure after autodetect: %v", tc.vendor, err)
		}
		if sw.Config().Ports[1].PVID != 33 {
			t.Errorf("%s: config not applied", tc.vendor)
		}
		d.Close()
	}
}

func TestDiscoverSNMP(t *testing.T) {
	sw := legacy.NewSwitch("disc-sw", 12)
	mib := snmp.NewMIB()
	legacy.BindMIB(sw, mib, legacy.DialectAristaish)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go snmp.NewAgent(mib, "public").Serve(pc) //nolint:errcheck
	c, err := snmp.Dial(pc.LocalAddr().String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f, err := DiscoverSNMP(c)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hostname != "disc-sw" || f.PortCount != 12 || f.Vendor != "aristaish" {
		t.Errorf("facts: %+v", f)
	}
}

func TestPortFromIfName(t *testing.T) {
	cases := map[string]int{
		"GigabitEthernet0/7": 7,
		"Ethernet12":         12,
		"Port":               0,
		"xe-0/0/1":           1,
	}
	for in, want := range cases {
		if got := portFromIfName(in); got != want {
			t.Errorf("portFromIfName(%q) = %d, want %d", in, got, want)
		}
	}
}

// newLoopPipe returns the two ends of an in-memory duplex connection.
func newLoopPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return c1, c2
}
