package legacy

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// runScript feeds lines to a fresh session and returns the concatenated
// output of all commands.
func runScript(t *testing.T, srv *CLIServer, lines ...string) string {
	t.Helper()
	sess := &cliSession{srv: srv, mode: modeExec}
	var out strings.Builder
	for _, l := range lines {
		o, quit := sess.handleLine(l)
		out.WriteString(o)
		if quit {
			break
		}
	}
	return out.String()
}

func TestCLIConfigureAccessAndTrunk(t *testing.T) {
	sw := NewSwitch("sw1", 4)
	srv := NewCLIServer(sw, DialectCiscoish)
	out := runScript(t, srv,
		"enable",
		"configure terminal",
		"vlan 101",
		"name harmless-p1",
		"exit",
		"interface GigabitEthernet0/1",
		"switchport mode access",
		"switchport access vlan 101",
		"exit",
		"interface gi0/4",
		"switchport mode trunk",
		"switchport trunk allowed vlan 101,102",
		"switchport trunk native vlan 1",
		"end",
	)
	if strings.Contains(out, "% Invalid") {
		t.Fatalf("unexpected error in output: %q", out)
	}
	cfg := sw.Config()
	if cfg.Ports[1].Mode != ModeAccess || cfg.Ports[1].PVID != 101 {
		t.Errorf("port 1: %+v", cfg.Ports[1])
	}
	if cfg.Ports[4].Mode != ModeTrunk || cfg.Ports[4].PVID != 1 {
		t.Errorf("port 4: %+v", cfg.Ports[4])
	}
	if al := cfg.Ports[4].AllowedList(); len(al) != 2 || al[0] != 101 || al[1] != 102 {
		t.Errorf("allowed: %v", al)
	}
	if cfg.VLANs[101] != "harmless-p1" {
		t.Errorf("vlan name: %v", cfg.VLANs)
	}
}

func TestCLIVLANRanges(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	out := runScript(t, srv,
		"enable", "configure terminal",
		"interface gi0/2",
		"switchport mode trunk",
		"switchport trunk allowed vlan 100-103,200",
	)
	if strings.Contains(out, "%") {
		t.Fatalf("error: %q", out)
	}
	al := sw.Config().Ports[2].AllowedList()
	if len(al) != 5 || al[0] != 100 || al[3] != 103 || al[4] != 200 {
		t.Errorf("allowed: %v", al)
	}
}

func TestCLIShutdownNoShutdown(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	runScript(t, srv, "enable", "configure terminal", "interface gi0/1", "shutdown")
	if !sw.Config().Ports[1].Shutdown {
		t.Error("port not shut down")
	}
	runScript(t, srv, "enable", "configure terminal", "interface gi0/1", "no shutdown")
	if sw.Config().Ports[1].Shutdown {
		t.Error("port still shut down")
	}
}

func TestCLIHostname(t *testing.T) {
	sw := NewSwitch("sw1", 1)
	srv := NewCLIServer(sw, DialectCiscoish)
	runScript(t, srv, "enable", "conf t", "hostname core-switch")
	if sw.Hostname() != "core-switch" {
		t.Errorf("hostname = %q", sw.Hostname())
	}
}

func TestCLIShowCommands(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	_ = sw.SetPortAccess(1, 101)
	_ = sw.SetPortTrunk(2, 1, []uint16{101})
	sw.FDB().AddStatic(101, macA, 1)

	out := runScript(t, srv, "enable", "show version")
	if !strings.Contains(out, "Cisco IOS Software") {
		t.Errorf("show version: %q", out)
	}
	out = runScript(t, srv, "enable", "show running-config")
	for _, want := range []string{"hostname sw1", "switchport access vlan 101", "switchport mode trunk", "switchport trunk allowed vlan 101"} {
		if !strings.Contains(out, want) {
			t.Errorf("show run missing %q in:\n%s", want, out)
		}
	}
	out = runScript(t, srv, "enable", "show mac address-table")
	if !strings.Contains(out, "STATIC") || !strings.Contains(out, "GigabitEthernet0/1") {
		t.Errorf("show mac: %q", out)
	}
	out = runScript(t, srv, "enable", "show vlan")
	if !strings.Contains(out, "101") {
		t.Errorf("show vlan: %q", out)
	}
	out = runScript(t, srv, "enable", "show interfaces status")
	if !strings.Contains(out, "notconnect") {
		t.Errorf("show interfaces: %q", out)
	}
}

func TestCLIAristaDialect(t *testing.T) {
	sw := NewSwitch("ar1", 2, WithModel("DCS-7050T"))
	srv := NewCLIServer(sw, DialectAristaish)
	out := runScript(t, srv, "enable", "show version")
	if !strings.Contains(out, "Arista") {
		t.Errorf("show version: %q", out)
	}
	out = runScript(t, srv,
		"enable", "configure terminal",
		"interface Ethernet1",
		"switchport access vlan 55",
	)
	if strings.Contains(out, "%") {
		t.Fatalf("error: %q", out)
	}
	if sw.Config().Ports[1].PVID != 55 {
		t.Errorf("pvid: %d", sw.Config().Ports[1].PVID)
	}
	// Cisco-style interface name must NOT parse in arista dialect.
	out = runScript(t, srv, "enable", "conf t", "interface gi0/1")
	if !strings.Contains(out, "% Invalid") {
		t.Errorf("expected invalid: %q", out)
	}
}

func TestCLIEnableSecret(t *testing.T) {
	sw := NewSwitch("sec", 1)
	srv := NewCLIServer(sw, DialectCiscoish)
	srv.SetEnableSecret("s3cret")
	sess := &cliSession{srv: srv, mode: modeExec}
	if _, _ = sess.handleLine("enable"); !sess.waitingEnablePw {
		t.Fatal("expected password prompt")
	}
	out, _ := sess.handleLine("wrong")
	if !strings.Contains(out, "denied") || sess.mode != modeExec {
		t.Errorf("wrong password accepted: %q mode=%d", out, sess.mode)
	}
	_, _ = sess.handleLine("enable")
	_, _ = sess.handleLine("s3cret")
	if sess.mode != modeEnable {
		t.Error("correct password rejected")
	}
}

func TestCLIInvalidCommands(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	cases := [][]string{
		{"bogus"},
		{"enable", "bogus"},
		{"enable", "conf t", "bogus"},
		{"enable", "conf t", "interface gi0/9"}, // no such port
		{"enable", "conf t", "vlan 9999"},       // out of range
		{"enable", "conf t", "interface gi0/1", "switchport mode weird"},
		{"enable", "conf t", "interface gi0/1", "switchport trunk allowed vlan 1-x"},
		{"show"},
	}
	for _, script := range cases {
		out := runScript(t, srv, script...)
		if !strings.Contains(out, "%") {
			t.Errorf("script %v produced no error, output %q", script, out)
		}
	}
}

func TestCLIModeNavigation(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	sess := &cliSession{srv: srv, mode: modeExec}
	steps := []struct {
		line string
		mode cliMode
	}{
		{"enable", modeEnable},
		{"configure terminal", modeConfig},
		{"interface gi0/1", modeConfigIf},
		{"exit", modeConfig},
		{"vlan 10", modeConfigVLAN},
		{"end", modeEnable},
		{"disable", modeExec},
	}
	for _, s := range steps {
		_, _ = sess.handleLine(s.line)
		if sess.mode != s.mode {
			t.Fatalf("after %q mode = %d, want %d", s.line, sess.mode, s.mode)
		}
	}
	// Prompts per mode.
	sess.mode = modeConfig
	if p := sess.prompt(); !strings.Contains(p, "(config)#") {
		t.Errorf("config prompt %q", p)
	}
}

func TestCLIOverTCP(t *testing.T) {
	sw := NewSwitch("tcp-sw", 4)
	srv := NewCLIServer(sw, DialectCiscoish)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l) //nolint:errcheck

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)

	// readUntil consumes bytes until the buffer ends with suffix.
	readUntil := func(suffix string) string {
		var sb strings.Builder
		buf := make([]byte, 1)
		for !strings.HasSuffix(sb.String(), suffix) {
			if _, err := r.Read(buf); err != nil {
				t.Fatalf("read: %v (so far %q)", err, sb.String())
			}
			sb.WriteByte(buf[0])
		}
		return sb.String()
	}
	readUntil("tcp-sw>")
	fmt.Fprintf(conn, "enable\n")
	readUntil("tcp-sw#")
	fmt.Fprintf(conn, "configure terminal\n")
	readUntil("(config)#")
	fmt.Fprintf(conn, "interface gi0/2\n")
	readUntil("(config-if)#")
	fmt.Fprintf(conn, "switchport access vlan 42\n")
	readUntil("(config-if)#")
	fmt.Fprintf(conn, "end\n")
	readUntil("tcp-sw#")

	if sw.Config().Ports[2].PVID != 42 {
		t.Errorf("TCP session config not applied: %+v", sw.Config().Ports[2])
	}
}

func TestParseVLANList(t *testing.T) {
	cases := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"101", 1, false},
		{"101,102", 2, false},
		{"1-4", 4, false},
		{"1-4,10,20-21", 7, false},
		{"", 0, true},
		{"0", 0, true},
		{"5000", 0, true},
		{"4-1", 0, true},
		{"0-3", 0, true},
		{"a,b", 0, true},
	}
	for _, c := range cases {
		got, err := parseVLANList(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("parseVLANList(%q) err=%v", c.in, err)
			continue
		}
		if err == nil && len(got) != c.want {
			t.Errorf("parseVLANList(%q) = %v", c.in, got)
		}
	}
}

func TestDialectHelpers(t *testing.T) {
	if DialectCiscoish.IfName(3) != "GigabitEthernet0/3" {
		t.Error("cisco ifname")
	}
	if DialectAristaish.IfName(3) != "Ethernet3" {
		t.Error("arista ifname")
	}
	if DialectCiscoish.parsePort("GigabitEthernet0/7") != 7 {
		t.Error("cisco full parse")
	}
	if DialectCiscoish.parsePort("gi0/7") != 7 {
		t.Error("cisco short parse")
	}
	if DialectAristaish.parsePort("Ethernet12") != 12 {
		t.Error("arista full parse")
	}
	if DialectAristaish.parsePort("et12") != 12 {
		t.Error("arista short parse")
	}
	if DialectCiscoish.parsePort("Ethernet1") != 0 {
		t.Error("cross-dialect parse should fail")
	}
	if DialectCiscoish.String() != "ciscoish" || DialectAristaish.String() != "aristaish" {
		t.Error("dialect strings")
	}
}

// TestCLIRefusedTrunkListChangesNothing: a trunk list the switch
// refuses (a range from VLAN 0) is answered with an error and leaves
// the port exactly as it was.
func TestCLIRefusedTrunkListChangesNothing(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	before := sw.Config()
	out := runScript(t, srv,
		"enable", "configure terminal",
		"interface gi0/2",
		"switchport trunk allowed vlan 0-3",
	)
	if !strings.Contains(out, "% Invalid") {
		t.Errorf("range from VLAN 0 accepted: %q", out)
	}
	if got, want := *sw.Config().Ports[2], *before.Ports[2]; got.Mode != want.Mode || got.PVID != want.PVID || got.Allowed != nil {
		t.Errorf("refused command changed gi0/2: %+v, was %+v", got, want)
	}
}

// TestCLITrunkAllowedAdd: "allowed vlan add" extends the trunk's list
// instead of replacing it, and leaves a trunk that carries every VLAN
// carrying every VLAN.
func TestCLITrunkAllowedAdd(t *testing.T) {
	sw := NewSwitch("sw1", 2)
	srv := NewCLIServer(sw, DialectCiscoish)
	out := runScript(t, srv,
		"enable", "configure terminal",
		"interface gi0/1",
		"switchport mode trunk",
		"switchport trunk allowed vlan add 7",
		"exit",
		"interface gi0/2",
		"switchport mode trunk",
		"switchport trunk allowed vlan 101,102",
		"switchport trunk allowed vlan add 103-104,101",
	)
	if strings.Contains(out, "%") {
		t.Fatalf("error: %q", out)
	}
	cfg := sw.Config()
	if al := cfg.Ports[1].AllowedList(); al != nil {
		t.Errorf("gi0/1 (all VLANs) after add: %v, want all", al)
	}
	if al := cfg.Ports[2].AllowedList(); fmt.Sprint(al) != "[101 102 103 104]" {
		t.Errorf("gi0/2 after add: %v, want [101 102 103 104]", al)
	}
}
