package legacy

import (
	"net"
	"testing"

	"github.com/harmless-sdn/harmless/internal/snmp"
)

func newSNMPRig(t *testing.T, sw *Switch, dialect Dialect) *snmp.Client {
	t.Helper()
	mib := snmp.NewMIB()
	BindMIB(sw, mib, dialect)
	agent := snmp.NewAgent(mib, "public")
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go agent.Serve(pc) //nolint:errcheck
	t.Cleanup(func() { pc.Close() })
	c, err := snmp.Dial(pc.LocalAddr().String(), "public")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestMIBSystemGroup(t *testing.T) {
	sw := NewSwitch("snmp-sw", 4, WithModel("LGS-2400"))
	c := newSNMPRig(t, sw, DialectCiscoish)

	v, err := c.GetOne(OIDSysDescr)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(v.(snmp.OctetString)); s == "" || s != "LGS-2400 (ciscoish emulation)" {
		t.Errorf("sysDescr = %q", s)
	}
	v, err = c.GetOne(OIDSysName)
	if err != nil {
		t.Fatal(err)
	}
	if string(v.(snmp.OctetString)) != "snmp-sw" {
		t.Errorf("sysName = %v", v)
	}
	v, err = c.GetOne(OIDIfNumber)
	if err != nil {
		t.Fatal(err)
	}
	if int(v.(snmp.Integer)) != 4 {
		t.Errorf("ifNumber = %v", v)
	}
	// sysName is writable.
	if _, err := c.Set(snmp.VarBind{OID: OIDSysName, Value: snmp.OctetString("renamed")}); err != nil {
		t.Fatal(err)
	}
	if sw.Hostname() != "renamed" {
		t.Errorf("hostname = %q", sw.Hostname())
	}
}

func TestMIBIfTableWalk(t *testing.T) {
	sw := NewSwitch("walk-sw", 3)
	c := newSNMPRig(t, sw, DialectCiscoish)
	var descrs []string
	err := c.Walk(OIDIfTable.Append(2), func(vb snmp.VarBind) error {
		descrs = append(descrs, string(vb.Value.(snmp.OctetString)))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(descrs) != 3 || descrs[0] != "GigabitEthernet0/1" || descrs[2] != "GigabitEthernet0/3" {
		t.Errorf("ifDescr walk: %v", descrs)
	}
}

func TestMIBOperStatus(t *testing.T) {
	sw := NewSwitch("st-sw", 2)
	c := newSNMPRig(t, sw, DialectCiscoish)
	// Unattached port: down.
	v, err := c.GetOne(OIDIfTable.Append(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if int(v.(snmp.Integer)) != 2 {
		t.Errorf("unattached port status = %v", v)
	}
}

func TestMIBVLANConfigViaSNMP(t *testing.T) {
	sw := NewSwitch("cfg-sw", 4)
	c := newSNMPRig(t, sw, DialectCiscoish)

	// Set port 2 PVID to 102 (access).
	if _, err := c.Set(snmp.VarBind{OID: OIDPortPVIDTable.Append(2), Value: snmp.Integer(102)}); err != nil {
		t.Fatal(err)
	}
	if got := sw.Config().Ports[2].PVID; got != 102 {
		t.Errorf("PVID = %d", got)
	}
	// Flip port 4 to trunk and set allowed list.
	if _, err := c.Set(snmp.VarBind{OID: OIDPortModeTable.Append(4), Value: snmp.Integer(2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set(snmp.VarBind{OID: OIDPortAllowedTable.Append(4), Value: snmp.OctetString("101,102")}); err != nil {
		t.Fatal(err)
	}
	pc := sw.Config().Ports[4]
	if pc.Mode != ModeTrunk {
		t.Errorf("mode = %v", pc.Mode)
	}
	if al := pc.AllowedList(); len(al) != 2 || al[0] != 101 {
		t.Errorf("allowed = %v", al)
	}
	// Read back.
	v, err := c.GetOne(OIDPortAllowedTable.Append(4))
	if err != nil {
		t.Fatal(err)
	}
	if string(v.(snmp.OctetString)) != "101,102" {
		t.Errorf("allowed readback = %v", v)
	}
	// Bad values rejected.
	if _, err := c.Set(snmp.VarBind{OID: OIDPortModeTable.Append(4), Value: snmp.Integer(9)}); err == nil {
		t.Error("mode 9 accepted")
	}
	if _, err := c.Set(snmp.VarBind{OID: OIDPortPVIDTable.Append(2), Value: snmp.Integer(0)}); err == nil {
		t.Error("pvid 0 accepted")
	}
	if _, err := c.Set(snmp.VarBind{OID: OIDPortAllowedTable.Append(4), Value: snmp.OctetString("abc")}); err == nil {
		t.Error("garbage allowed list accepted")
	}
}

func TestMIBCounters(t *testing.T) {
	sw := NewSwitch("ctr-sw", 2)
	sw.PortCounters(1).RxPackets.Inc()
	sw.PortCounters(1).RxBytes.Add(150)
	c := newSNMPRig(t, sw, DialectAristaish)
	v, err := c.GetOne(OIDIfTable.Append(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if uint32(v.(snmp.Counter32)) != 150 {
		t.Errorf("ifInOctets = %v", v)
	}
}
