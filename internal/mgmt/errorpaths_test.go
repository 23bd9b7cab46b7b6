package mgmt

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/snmp"
)

// The error paths a migration-wave executor hits when a device pushes
// back mid-wave: rejected VLAN retags, conflicting trunk configs, and
// an SNMP agent that stops answering. Each must surface a typed,
// actionable error AND leave the device configuration untouched, or
// the executor cannot decide between retry and rollback.

func TestDriverRejectedVLANRetag(t *testing.T) {
	sw := legacy.NewSwitch("retag-sw", 4)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	before := sw.Config()
	// VLAN 5000 is past the 802.1Q range; the CLI rejects the retag.
	err = d.ConfigureAccessPort(1, 5000)
	var cmdErr *CommandError
	if !errors.As(err, &cmdErr) {
		t.Fatalf("want CommandError, got %T: %v", err, err)
	}
	// Declaring the out-of-range VLAN is refused too.
	if err := d.DeclareVLAN(4095, "too-big"); !errors.As(err, &cmdErr) {
		t.Errorf("DeclareVLAN(4095): want CommandError, got %v", err)
	}
	// The device must be exactly where it was: port 1 still an access
	// port in the default VLAN, no stray VLAN declared.
	after := sw.Config()
	if after.Ports[1].PVID != before.Ports[1].PVID || after.Ports[1].Mode != legacy.ModeAccess {
		t.Errorf("rejected retag modified port 1: %+v", after.Ports[1])
	}
	if len(after.VLANs) != len(before.VLANs) {
		t.Errorf("rejected retag declared VLANs: %v", after.VLANs)
	}
}

func TestDriverTrunkPortConflict(t *testing.T) {
	sw := legacy.NewSwitch("trunk-sw", 4)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var cmdErr *CommandError
	// Trunking a port the chassis does not have.
	if err := d.ConfigureTrunkPort(9, 1, []uint16{101}); !errors.As(err, &cmdErr) {
		t.Fatalf("trunk on missing port: want CommandError, got %v", err)
	}
	// An allowed list carrying an invalid VLAN id conflicts with the
	// 802.1Q range check; the CLI rejects the whole allowed statement.
	if err := d.ConfigureTrunkPort(4, 1, []uint16{101, 0}); !errors.As(err, &cmdErr) {
		t.Fatalf("invalid allowed list: want CommandError, got %v", err)
	}
	// The port flipped to trunk mode (that command succeeded) but the
	// conflicting allowed list must not have been applied.
	pc := sw.Config().Ports[4]
	if pc.Allowed != nil {
		t.Errorf("conflicting allowed list applied: %v", pc.Allowed)
	}
	// A clean retry with a valid list must succeed on the same session.
	if err := d.ConfigureTrunkPort(4, 1, []uint16{101, 102}); err != nil {
		t.Fatalf("valid trunk config after conflict: %v", err)
	}
	if al := sw.Config().Ports[4].AllowedList(); len(al) != 2 {
		t.Errorf("allowed list after retry: %v", al)
	}
}

func TestDriverRemoveVLAN(t *testing.T) {
	sw := legacy.NewSwitch("rm-sw", 4)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.DeclareVLAN(101, "harmless-p1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Config().VLANs[101]; !ok {
		t.Fatal("vlan 101 not declared")
	}
	if err := d.RemoveVLAN(101); err != nil {
		t.Fatal(err)
	}
	if _, ok := sw.Config().VLANs[101]; ok {
		t.Error("vlan 101 survived removal")
	}
	// Removing an absent VLAN is a no-op on the device, not an error —
	// rollback must be idempotent.
	if err := d.RemoveVLAN(101); err != nil {
		t.Errorf("second removal: %v", err)
	}
}

// TestSNMPTimeoutFallsBackToCLI covers the mid-wave failure mode where
// the device's SNMP agent goes quiet: the client must time out (not
// hang the wave), DiscoverSNMP must surface the timeout, and a
// CLI-backed facts query on the same device still works — the
// executor's discovery fallback path.
func TestSNMPTimeoutFallsBackToCLI(t *testing.T) {
	// A pipe with a silent peer: requests are read but never answered.
	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := serverSide.Read(buf); err != nil {
				return
			}
		}
	}()
	c := snmp.NewClient(clientSide, "public")
	defer c.Close()
	c.SetTimeout(50 * time.Millisecond)
	c.SetRetries(1)

	start := time.Now()
	_, err := DiscoverSNMP(c)
	if !errors.Is(err, snmp.ErrTimeout) {
		t.Fatalf("want snmp.ErrTimeout, got %v", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("timeout took %v, retries not bounded", waited)
	}

	// Same device, CLI path: still answers.
	sw := legacy.NewSwitch("quiet-snmp-sw", 4)
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
	if f.Hostname != "quiet-snmp-sw" || f.PortCount != 4 {
		t.Errorf("cli facts: %+v", f)
	}
}
