// Package mgmt is the multi-vendor device-management layer of the
// HARMLESS manager — the role NAPALM plays in the paper. A Driver
// hides vendor CLI differences behind one configuration interface;
// NewDriver identifies the device from "show version" and drives
// either of the CLI dialects emulated by internal/legacy (ciscoish and
// aristaish); DiscoverSNMP is the SNMP-based discovery helper.
package mgmt

import (
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"strconv"
	"strings"
	"time"

	"github.com/harmless-sdn/harmless/internal/snmp"
)

// Facts summarizes a managed device, in the spirit of NAPALM get_facts.
type Facts struct {
	Hostname  string
	Vendor    string
	OSVersion string
	PortCount int
}

// InterfaceStatus is the administrative/operational state of one port.
type InterfaceStatus struct {
	Port   int
	Name   string
	Status string // "connected", "notconnect", "disabled"
	Mode   string // "access" or "trunk"
	VLAN   string // VLAN id or "trunk"
}

// Driver configures a legacy switch through its vendor CLI.
//
// All methods are safe to call repeatedly; Close must be called when
// done. Implementations are NOT safe for concurrent use — the manager
// serializes device operations, as NAPALM does.
type Driver interface {
	// Vendor returns the driver's vendor tag ("ciscoish"/"aristaish").
	Vendor() string
	// Facts queries device identity.
	Facts() (*Facts, error)
	// InterfaceName renders the vendor name of a port number.
	InterfaceName(port int) string
	// DeclareVLAN creates a VLAN with a name.
	DeclareVLAN(id uint16, name string) error
	// RemoveVLAN deletes a VLAN declaration (used when rolling a
	// migration back to the pre-wave configuration).
	RemoveVLAN(id uint16) error
	// ConfigureAccessPort makes port an access port in vlan.
	ConfigureAccessPort(port int, vlan uint16) error
	// ConfigureTrunkPort makes port a trunk with the given native
	// VLAN and allowed list.
	ConfigureTrunkPort(port int, native uint16, allowed []uint16) error
	// SetPortShutdown administratively disables/enables a port.
	SetPortShutdown(port int, down bool) error
	// RunningConfig fetches the device configuration text.
	RunningConfig() (string, error)
	// InterfaceStatuses lists per-port state.
	InterfaceStatuses() ([]InterfaceStatus, error)
	// Close terminates the management session.
	Close() error
}

// promptRE matches a CLI prompt at the end of the receive buffer:
// hostname plus optional (config...) suffix, ending in > or #.
var promptRE = regexp.MustCompile(`(?m)^[\w.-]+(\(config[\w-]*\))?[>#] ?$`)

// cliConn drives one CLI session: write a line, read until prompt.
type cliConn struct {
	rw      io.ReadWriteCloser
	timeout time.Duration
	buf     []byte
}

func newCLIConn(rw io.ReadWriteCloser) *cliConn {
	return &cliConn{rw: rw, timeout: 5 * time.Second}
}

// readUntilPrompt consumes input until a prompt line appears at the
// end of the buffer, returning everything before the prompt.
func (c *cliConn) readUntilPrompt() (string, error) {
	deadline := time.Now().Add(c.timeout)
	if conn, ok := c.rw.(net.Conn); ok {
		_ = conn.SetReadDeadline(deadline)
	}
	tmp := make([]byte, 4096)
	for {
		// Check for a prompt terminating the buffer.
		s := string(c.buf)
		lastNL := strings.LastIndexByte(s, '\n')
		tail := s[lastNL+1:]
		if tail != "" && promptRE.MatchString(tail) {
			c.buf = nil
			return s[:lastNL+1], nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("mgmt: timeout waiting for prompt (buffer %q)", s)
		}
		n, err := c.rw.Read(tmp)
		if n > 0 {
			c.buf = append(c.buf, tmp[:n]...)
		}
		if err != nil {
			return "", fmt.Errorf("mgmt: read: %w", err)
		}
	}
}

// cmd sends one command line and returns its output.
func (c *cliConn) cmd(line string) (string, error) {
	if _, err := io.WriteString(c.rw, line+"\n"); err != nil {
		return "", fmt.Errorf("mgmt: write: %w", err)
	}
	out, err := c.readUntilPrompt()
	if err != nil {
		return "", err
	}
	if strings.Contains(out, "% ") {
		return out, &CommandError{Command: line, Output: strings.TrimSpace(out)}
	}
	return out, nil
}

// CommandError reports a CLI-level rejection ("% Invalid input ...").
type CommandError struct {
	Command string
	Output  string
}

// Error implements error.
func (e *CommandError) Error() string {
	return fmt.Sprintf("mgmt: command %q rejected: %s", e.Command, e.Output)
}

// cliDriver is the shared implementation; vendor differences are
// captured in a dialect.
type cliDriver struct {
	conn *cliConn
	dialect
}

// dialect is what tells one vendor CLI from another: the marker its
// "show version" output carries, its vendor tag, how it names a port
// and how its version output parses.
type dialect struct {
	marker       string
	vendor       string
	ifFormat     string
	parseVersion func(string) (*Facts, error)
}

var dialects = []dialect{
	{"Cisco IOS", "ciscoish", "GigabitEthernet0/%d", parseCiscoVersion},
	{"Arista", "aristaish", "Ethernet%d", parseAristaVersion},
}

// NewDriver wraps an established management connection and identifies
// the device from its "show version" output — the NAPALM-style
// autodetection, so the caller need not know what the legacy switch
// is. It consumes the banner and enters privileged mode; on error the
// connection is closed.
func NewDriver(rw io.ReadWriteCloser) (Driver, error) {
	d := &cliDriver{conn: newCLIConn(rw)}
	if err := d.identify(); err != nil {
		rw.Close()
		return nil, err
	}
	return d, nil
}

func (d *cliDriver) identify() error {
	if _, err := d.conn.readUntilPrompt(); err != nil {
		return err
	}
	out, err := d.conn.cmd("show version")
	if err != nil {
		return err
	}
	for _, dl := range dialects {
		if strings.Contains(out, dl.marker) {
			d.dialect = dl
			_, err := d.conn.cmd("enable")
			return err
		}
	}
	return fmt.Errorf("mgmt: cannot identify device from version output %q", out)
}

func (d *cliDriver) Vendor() string                { return d.vendor }
func (d *cliDriver) InterfaceName(port int) string { return fmt.Sprintf(d.ifFormat, port) }
func (d *cliDriver) Close() error                  { return d.conn.rw.Close() }

func parseCiscoVersion(out string) (*Facts, error) {
	f := &Facts{Vendor: "ciscoish"}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Cisco IOS Software") {
			if i := strings.LastIndex(line, "Version "); i >= 0 {
				f.OSVersion = strings.TrimSpace(line[i+len("Version "):])
			}
		}
		if strings.Contains(line, " uptime is ") {
			f.Hostname = strings.SplitN(line, " ", 2)[0]
		}
		if strings.HasSuffix(line, "Gigabit Ethernet interfaces") {
			fmt.Sscanf(line, "%d", &f.PortCount)
		}
	}
	if f.OSVersion == "" {
		return nil, errors.New("mgmt: unparsable cisco version output")
	}
	return f, nil
}

func parseAristaVersion(out string) (*Facts, error) {
	f := &Facts{Vendor: "aristaish"}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Software image version: ") {
			f.OSVersion = strings.TrimPrefix(line, "Software image version: ")
		}
		if strings.HasSuffix(line, "Gigabit Ethernet interfaces") {
			fmt.Sscanf(line, "%d", &f.PortCount)
		}
	}
	if f.OSVersion == "" {
		return nil, errors.New("mgmt: unparsable arista version output")
	}
	return f, nil
}

func (d *cliDriver) Facts() (*Facts, error) {
	out, err := d.conn.cmd("show version")
	if err != nil {
		return nil, err
	}
	f, err := d.parseVersion(out)
	if err != nil {
		return nil, err
	}
	if f.Hostname == "" {
		// Fall back to the running config hostname line.
		if rc, err := d.RunningConfig(); err == nil {
			for _, line := range strings.Split(rc, "\n") {
				line = strings.TrimSpace(line)
				if strings.HasPrefix(line, "hostname ") {
					f.Hostname = strings.TrimPrefix(line, "hostname ")
					break
				}
			}
		}
	}
	return f, nil
}

// configSession runs a sequence of commands inside configure terminal,
// always leaving config mode afterwards.
func (d *cliDriver) configSession(cmds ...string) error {
	if _, err := d.conn.cmd("configure terminal"); err != nil {
		return err
	}
	var firstErr error
	for _, c := range cmds {
		if _, err := d.conn.cmd(c); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if _, err := d.conn.cmd("end"); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (d *cliDriver) DeclareVLAN(id uint16, name string) error {
	return d.configSession(
		fmt.Sprintf("vlan %d", id),
		fmt.Sprintf("name %s", name),
		"exit",
	)
}

func (d *cliDriver) RemoveVLAN(id uint16) error {
	return d.configSession(fmt.Sprintf("no vlan %d", id))
}

func (d *cliDriver) ConfigureAccessPort(port int, vlan uint16) error {
	return d.configSession(
		fmt.Sprintf("interface %s", d.InterfaceName(port)),
		"switchport mode access",
		fmt.Sprintf("switchport access vlan %d", vlan),
		"exit",
	)
}

func (d *cliDriver) ConfigureTrunkPort(port int, native uint16, allowed []uint16) error {
	list := make([]string, len(allowed))
	for i, v := range allowed {
		list[i] = strconv.Itoa(int(v))
	}
	cmds := []string{
		fmt.Sprintf("interface %s", d.InterfaceName(port)),
		"switchport mode trunk",
	}
	if len(list) > 0 {
		cmds = append(cmds, fmt.Sprintf("switchport trunk allowed vlan %s", strings.Join(list, ",")))
	}
	cmds = append(cmds,
		fmt.Sprintf("switchport trunk native vlan %d", native),
		"exit",
	)
	return d.configSession(cmds...)
}

func (d *cliDriver) SetPortShutdown(port int, down bool) error {
	cmd := "no shutdown"
	if down {
		cmd = "shutdown"
	}
	return d.configSession(
		fmt.Sprintf("interface %s", d.InterfaceName(port)),
		cmd,
		"exit",
	)
}

func (d *cliDriver) RunningConfig() (string, error) {
	return d.conn.cmd("show running-config")
}

func (d *cliDriver) InterfaceStatuses() ([]InterfaceStatus, error) {
	out, err := d.conn.cmd("show interfaces status")
	if err != nil {
		return nil, err
	}
	var statuses []InterfaceStatus
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) < 4 || fields[0] == "Port" {
			continue
		}
		port := portFromIfName(fields[0])
		if port == 0 {
			continue
		}
		statuses = append(statuses, InterfaceStatus{
			Port: port, Name: fields[0], Status: fields[1], VLAN: fields[2], Mode: fields[3],
		})
	}
	return statuses, nil
}

// portFromIfName extracts the trailing port number of any dialect's
// interface name.
func portFromIfName(name string) int {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) {
		return 0
	}
	n, err := strconv.Atoi(name[i:])
	if err != nil {
		return 0
	}
	return n
}

// DiscoverSNMP queries device identity over SNMP — the discovery path
// the paper's manager uses before committing to a CLI driver.
func DiscoverSNMP(client *snmp.Client) (*Facts, error) {
	descr, err := client.GetOne(snmp.MustOID("1.3.6.1.2.1.1.1.0"))
	if err != nil {
		return nil, fmt.Errorf("mgmt: snmp sysDescr: %w", err)
	}
	name, err := client.GetOne(snmp.MustOID("1.3.6.1.2.1.1.5.0"))
	if err != nil {
		return nil, fmt.Errorf("mgmt: snmp sysName: %w", err)
	}
	ifNum, err := client.GetOne(snmp.MustOID("1.3.6.1.2.1.2.1.0"))
	if err != nil {
		return nil, fmt.Errorf("mgmt: snmp ifNumber: %w", err)
	}
	f := &Facts{
		Hostname:  string(name.(snmp.OctetString)),
		PortCount: int(ifNum.(snmp.Integer)),
	}
	ds := string(descr.(snmp.OctetString))
	switch {
	case strings.Contains(ds, "ciscoish"):
		f.Vendor = "ciscoish"
	case strings.Contains(ds, "aristaish"):
		f.Vendor = "aristaish"
	default:
		f.Vendor = "unknown"
	}
	return f, nil
}
