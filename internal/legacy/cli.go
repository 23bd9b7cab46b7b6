package legacy

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
)

// Dialect selects which vendor CLI the switch emulates. Both dialects
// share the industry-standard configuration grammar (Arista's CLI is
// deliberately Cisco-compatible); they differ in interface naming,
// banners and show-command formatting — exactly the differences a
// NAPALM-style driver layer must absorb.
type Dialect int

// Supported CLI dialects.
const (
	// DialectCiscoish emulates an IOS-like CLI
	// (interfaces GigabitEthernet0/N).
	DialectCiscoish Dialect = iota
	// DialectAristaish emulates an EOS-like CLI (interfaces EthernetN).
	DialectAristaish
)

// String implements fmt.Stringer.
func (d Dialect) String() string {
	switch d {
	case DialectCiscoish:
		return "ciscoish"
	case DialectAristaish:
		return "aristaish"
	}
	return fmt.Sprintf("Dialect(%d)", int(d))
}

// IfName renders the canonical interface name for a port number.
func (d Dialect) IfName(port int) string {
	if d == DialectAristaish {
		return fmt.Sprintf("Ethernet%d", port)
	}
	return fmt.Sprintf("GigabitEthernet0/%d", port)
}

// parsePort resolves an interface argument (full or abbreviated) to a
// port number, or 0 if unparsable.
func (d Dialect) parsePort(arg string) int {
	a := strings.ToLower(arg)
	switch d {
	case DialectCiscoish:
		// Accept gi0/N, gigabitethernet0/N, g0/N.
		for _, pfx := range []string{"gigabitethernet", "gig", "gi", "g"} {
			if strings.HasPrefix(a, pfx) {
				rest := strings.TrimPrefix(a, pfx)
				if !strings.HasPrefix(rest, "0/") {
					return 0
				}
				n, err := strconv.Atoi(strings.TrimPrefix(rest, "0/"))
				if err != nil {
					return 0
				}
				return n
			}
		}
	case DialectAristaish:
		for _, pfx := range []string{"ethernet", "eth", "et", "e"} {
			if strings.HasPrefix(a, pfx) {
				n, err := strconv.Atoi(strings.TrimPrefix(a, pfx))
				if err != nil {
					return 0
				}
				return n
			}
		}
	}
	return 0
}

// cliMode is the session's position in the command hierarchy.
type cliMode int

const (
	modeExec       cliMode = iota // user EXEC ">"
	modeEnable                    // privileged EXEC "#"
	modeConfig                    // global configuration
	modeConfigIf                  // interface configuration
	modeConfigVLAN                // VLAN configuration
)

// CLIServer exposes a Switch over a vendor-style command line. One
// server can serve many concurrent sessions; all state is per-session
// except the switch itself.
type CLIServer struct {
	sw           *Switch
	dialect      Dialect
	enableSecret string // empty means "enable" needs no password
	version      string
}

// NewCLIServer creates a CLI front-end for sw.
func NewCLIServer(sw *Switch, dialect Dialect) *CLIServer {
	v := "15.2(4)E10"
	if dialect == DialectAristaish {
		v = "4.20.1F"
	}
	return &CLIServer{sw: sw, dialect: dialect, version: v}
}

// Serve accepts connections on l until it is closed, running one
// session per connection.
func (s *CLIServer) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			_ = s.ServeConn(conn)
		}()
	}
}

// ServeConn runs a single CLI session over rw until the peer quits or
// the transport fails.
func (s *CLIServer) ServeConn(rw io.ReadWriter) error {
	sess := &cliSession{srv: s, mode: modeExec}
	w := bufio.NewWriter(rw)
	fmt.Fprintf(w, "%s\r\n", s.banner())
	fmt.Fprint(w, sess.prompt())
	if err := w.Flush(); err != nil {
		return err
	}
	scanner := bufio.NewScanner(rw)
	scanner.Buffer(make([]byte, 16384), 16384)
	for scanner.Scan() {
		line := scanner.Text()
		out, quit := sess.handleLine(line)
		if out != "" {
			fmt.Fprint(w, out)
		}
		if quit {
			return w.Flush()
		}
		fmt.Fprint(w, sess.prompt())
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return scanner.Err()
}

func (s *CLIServer) banner() string {
	if s.dialect == DialectAristaish {
		return "Arista Networks EOS\r\nlast login: console"
	}
	return "User Access Verification"
}

// cliSession is the per-connection interpreter state.
type cliSession struct {
	srv             *CLIServer
	mode            cliMode
	curIf           int
	curVLAN         uint16
	waitingEnablePw bool
}

func (c *cliSession) prompt() string {
	h := c.srv.sw.Hostname()
	if c.waitingEnablePw {
		return "Password: "
	}
	switch c.mode {
	case modeExec:
		return h + ">"
	case modeEnable:
		return h + "#"
	case modeConfig:
		return h + "(config)#"
	case modeConfigIf:
		return h + "(config-if)#"
	case modeConfigVLAN:
		return h + "(config-vlan)#"
	}
	return h + ">"
}

const (
	errInvalid    = "% Invalid input detected\r\n"
	errIncomplete = "% Incomplete command\r\n"
)

// handleLine interprets one input line, returning the output text and
// whether the session should terminate.
func (c *cliSession) handleLine(line string) (string, bool) {
	if c.waitingEnablePw {
		c.waitingEnablePw = false
		if line == c.srv.enableSecret {
			c.mode = modeEnable
			return "", false
		}
		return "% Access denied\r\n", false
	}
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "!") {
		return "", false
	}
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	args := fields[1:]

	// Universal commands.
	switch cmd {
	case "exit", "quit", "logout":
		switch c.mode {
		case modeConfigIf, modeConfigVLAN:
			c.mode = modeConfig
			return "", false
		case modeConfig:
			c.mode = modeEnable
			return "", false
		default:
			return "", true
		}
	case "end":
		if c.mode >= modeConfig {
			c.mode = modeEnable
			return "", false
		}
		return errInvalid, false
	}

	switch c.mode {
	case modeExec:
		return c.handleExec(cmd, args)
	case modeEnable:
		return c.handleEnable(cmd, args, line)
	case modeConfig:
		return c.handleConfig(cmd, args)
	case modeConfigIf:
		return c.handleConfigIf(cmd, args)
	case modeConfigVLAN:
		return c.handleConfigVLAN(cmd, args)
	}
	return errInvalid, false
}

func (c *cliSession) handleExec(cmd string, args []string) (string, bool) {
	switch cmd {
	case "enable", "en":
		if c.srv.enableSecret == "" {
			c.mode = modeEnable
			return "", false
		}
		c.waitingEnablePw = true
		return "", false
	case "show", "sh":
		return c.handleShow(args), false
	}
	return errInvalid, false
}

func (c *cliSession) handleEnable(cmd string, args []string, line string) (string, bool) {
	switch cmd {
	case "configure", "conf":
		// "configure terminal" / "conf t"
		c.mode = modeConfig
		return "Enter configuration commands, one per line.\r\n", false
	case "show", "sh":
		return c.handleShow(args), false
	case "disable":
		c.mode = modeExec
		return "", false
	case "write", "copy":
		// "write memory" / "copy running-config startup-config":
		// configuration persistence is a no-op in the emulation.
		return "Copy completed.\r\n", false
	case "clear":
		if len(args) >= 2 && args[0] == "mac" {
			c.srv.sw.FDB().Sweep()
			for n := range c.srv.sw.Config().Ports {
				c.srv.sw.FDB().FlushPort(n)
			}
			return "", false
		}
		return errInvalid, false
	}
	_ = line
	return errInvalid, false
}

func (c *cliSession) handleConfig(cmd string, args []string) (string, bool) {
	switch cmd {
	case "hostname":
		if len(args) != 1 {
			return errIncomplete, false
		}
		c.srv.sw.SetHostname(args[0])
		return "", false
	case "vlan":
		if len(args) != 1 {
			return errIncomplete, false
		}
		id, err := strconv.ParseUint(args[0], 10, 16)
		if err != nil || id < 1 || id > uint64(MaxVLAN) {
			return errInvalid, false
		}
		if err := c.srv.sw.DeclareVLAN(uint16(id), ""); err != nil {
			return errInvalid, false
		}
		c.curVLAN = uint16(id)
		c.mode = modeConfigVLAN
		return "", false
	case "no":
		if len(args) == 2 && args[0] == "vlan" {
			id, err := strconv.ParseUint(args[1], 10, 16)
			if err != nil {
				return errInvalid, false
			}
			c.srv.sw.RemoveVLAN(uint16(id))
			return "", false
		}
		return errInvalid, false
	case "interface", "int":
		if len(args) == 0 {
			return errIncomplete, false
		}
		// Accept "interface GigabitEthernet0/1" and
		// "interface GigabitEthernet 0/1".
		arg := strings.Join(args, "")
		port := c.srv.dialect.parsePort(arg)
		if port == 0 || port > c.srv.sw.NumPorts() {
			return errInvalid, false
		}
		c.curIf = port
		c.mode = modeConfigIf
		return "", false
	}
	return errInvalid, false
}

func (c *cliSession) handleConfigIf(cmd string, args []string) (string, bool) {
	join := strings.ToLower(strings.Join(args, " "))
	switch cmd {
	case "switchport":
		switch {
		case join == "mode access":
			cfg := c.srv.sw.Config()
			pvid := cfg.Ports[c.curIf].PVID
			if err := c.srv.sw.SetPortAccess(c.curIf, pvid); err != nil {
				return errInvalid, false
			}
			return "", false
		case join == "mode trunk":
			cfg := c.srv.sw.Config()
			pc := cfg.Ports[c.curIf]
			native := pc.PVID
			if pc.Mode == ModeAccess {
				native = DefaultVLAN
			}
			if err := c.srv.sw.SetPortTrunk(c.curIf, native, pc.AllowedList()); err != nil {
				return errInvalid, false
			}
			return "", false
		case strings.HasPrefix(join, "access vlan "):
			id, err := strconv.ParseUint(strings.TrimPrefix(join, "access vlan "), 10, 16)
			if err != nil {
				return errInvalid, false
			}
			if err := c.srv.sw.SetPortAccess(c.curIf, uint16(id)); err != nil {
				return errInvalid, false
			}
			return "", false
		case strings.HasPrefix(join, "trunk allowed vlan "):
			spec := strings.TrimPrefix(join, "trunk allowed vlan ")
			add := strings.HasPrefix(spec, "add ")
			vlans, err := parseVLANList(strings.TrimPrefix(spec, "add "))
			if err != nil {
				return errInvalid, false
			}
			cfg := c.srv.sw.Config()
			pc := cfg.Ports[c.curIf]
			native := pc.PVID
			if pc.Mode == ModeAccess {
				native = DefaultVLAN
			}
			if add && pc.Mode == ModeTrunk {
				if pc.Allowed == nil {
					vlans = nil // the trunk already carries every VLAN
				} else {
					vlans = append(pc.AllowedList(), vlans...)
				}
			}
			if err := c.srv.sw.SetPortTrunk(c.curIf, native, vlans); err != nil {
				return errInvalid, false
			}
			return "", false
		case strings.HasPrefix(join, "trunk native vlan "):
			id, err := strconv.ParseUint(strings.TrimPrefix(join, "trunk native vlan "), 10, 16)
			if err != nil {
				return errInvalid, false
			}
			cfg := c.srv.sw.Config()
			if err := c.srv.sw.SetPortTrunk(c.curIf, uint16(id), cfg.Ports[c.curIf].AllowedList()); err != nil {
				return errInvalid, false
			}
			return "", false
		}
		return errInvalid, false
	case "shutdown":
		_ = c.srv.sw.SetPortShutdown(c.curIf, true)
		return "", false
	case "no":
		if join == "shutdown" {
			_ = c.srv.sw.SetPortShutdown(c.curIf, false)
			return "", false
		}
		return errInvalid, false
	case "description":
		return "", false // accepted and ignored
	}
	return errInvalid, false
}

func (c *cliSession) handleConfigVLAN(cmd string, args []string) (string, bool) {
	switch cmd {
	case "name":
		if len(args) != 1 {
			return errIncomplete, false
		}
		_ = c.srv.sw.DeclareVLAN(c.curVLAN, args[0])
		return "", false
	}
	return errInvalid, false
}

// parseVLANList parses "101,102,200-203" style lists.
func parseVLANList(spec string) ([]uint16, error) {
	var out []uint16
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			l, err1 := strconv.ParseUint(lo, 10, 16)
			h, err2 := strconv.ParseUint(hi, 10, 16)
			if err1 != nil || err2 != nil || l < 1 || l > h || h > uint64(MaxVLAN) {
				return nil, fmt.Errorf("legacy: bad VLAN range %q", part)
			}
			for v := l; v <= h; v++ {
				out = append(out, uint16(v))
			}
			continue
		}
		v, err := strconv.ParseUint(part, 10, 16)
		if err != nil || v < 1 || v > uint64(MaxVLAN) {
			return nil, fmt.Errorf("legacy: bad VLAN %q", part)
		}
		out = append(out, uint16(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("legacy: empty VLAN list")
	}
	return out, nil
}

// --- show commands ---------------------------------------------------

func (c *cliSession) handleShow(args []string) string {
	if len(args) == 0 {
		return errIncomplete
	}
	topic := strings.ToLower(args[0])
	rest := args[1:]
	switch topic {
	case "version":
		return c.showVersion()
	case "running-config", "run":
		return c.showRunning()
	case "vlan":
		return c.showVLANs()
	case "mac":
		// "show mac address-table"
		return c.showMACTable()
	case "interfaces", "int":
		if len(rest) > 0 && strings.ToLower(rest[0]) == "status" {
			return c.showIfStatus()
		}
		return c.showIfStatus()
	}
	return errInvalid
}

func (c *cliSession) showVersion() string {
	sw := c.srv.sw
	var sb strings.Builder
	if c.srv.dialect == DialectAristaish {
		fmt.Fprintf(&sb, "Arista %s\r\n", sw.Model())
		fmt.Fprintf(&sb, "Software image version: %s\r\n", c.srv.version)
		fmt.Fprintf(&sb, "Uptime: %s\r\n", sw.Uptime().Round(1e9))
	} else {
		fmt.Fprintf(&sb, "Cisco IOS Software, %s, Version %s\r\n", sw.Model(), c.srv.version)
		fmt.Fprintf(&sb, "%s uptime is %s\r\n", sw.Hostname(), sw.Uptime().Round(1e9))
	}
	fmt.Fprintf(&sb, "%d Gigabit Ethernet interfaces\r\n", sw.NumPorts())
	return sb.String()
}

func (c *cliSession) showRunning() string {
	sw := c.srv.sw
	cfg := sw.Config()
	var sb strings.Builder
	fmt.Fprintf(&sb, "hostname %s\r\n!\r\n", cfg.Hostname)
	vlanIDs := make([]int, 0, len(cfg.VLANs))
	for v := range cfg.VLANs {
		vlanIDs = append(vlanIDs, int(v))
	}
	sort.Ints(vlanIDs)
	for _, v := range vlanIDs {
		fmt.Fprintf(&sb, "vlan %d\r\n name %s\r\n!\r\n", v, cfg.VLANs[uint16(v)])
	}
	for _, n := range cfg.PortNumbers() {
		pc := cfg.Ports[n]
		fmt.Fprintf(&sb, "interface %s\r\n", c.srv.dialect.IfName(n))
		switch pc.Mode {
		case ModeAccess:
			fmt.Fprintf(&sb, " switchport mode access\r\n switchport access vlan %d\r\n", pc.PVID)
		case ModeTrunk:
			fmt.Fprintf(&sb, " switchport mode trunk\r\n")
			if al := pc.AllowedList(); al != nil {
				strs := make([]string, len(al))
				for i, v := range al {
					strs[i] = strconv.Itoa(int(v))
				}
				fmt.Fprintf(&sb, " switchport trunk allowed vlan %s\r\n", strings.Join(strs, ","))
			}
			fmt.Fprintf(&sb, " switchport trunk native vlan %d\r\n", pc.PVID)
		}
		if pc.Shutdown {
			fmt.Fprintf(&sb, " shutdown\r\n")
		}
		fmt.Fprintf(&sb, "!\r\n")
	}
	return sb.String()
}

func (c *cliSession) showVLANs() string {
	cfg := c.srv.sw.Config()
	var sb strings.Builder
	fmt.Fprintf(&sb, "VLAN Name                 Ports\r\n")
	vlanIDs := make([]int, 0, len(cfg.VLANs))
	for v := range cfg.VLANs {
		vlanIDs = append(vlanIDs, int(v))
	}
	sort.Ints(vlanIDs)
	for _, v := range vlanIDs {
		var members []string
		for _, n := range cfg.PortNumbers() {
			if pc := cfg.Ports[n]; pc.Mode == ModeAccess && pc.PVID == uint16(v) {
				members = append(members, c.srv.dialect.IfName(n))
			}
		}
		fmt.Fprintf(&sb, "%-4d %-20s %s\r\n", v, cfg.VLANs[uint16(v)], strings.Join(members, ", "))
	}
	return sb.String()
}

func (c *cliSession) showMACTable() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Vlan    Mac Address       Type        Port\r\n")
	for _, e := range c.srv.sw.FDB().Entries() {
		typ := "DYNAMIC"
		if e.Static {
			typ = "STATIC"
		}
		fmt.Fprintf(&sb, "%-7d %s %-11s %s\r\n", e.VLAN, e.MAC, typ, c.srv.dialect.IfName(e.Port))
	}
	return sb.String()
}

func (c *cliSession) showIfStatus() string {
	cfg := c.srv.sw.Config()
	var sb strings.Builder
	fmt.Fprintf(&sb, "Port                 Status       Vlan  Mode\r\n")
	for _, n := range cfg.PortNumbers() {
		pc := cfg.Ports[n]
		status := "connected"
		if pc.Shutdown {
			status = "disabled"
		} else if !c.srv.sw.PortAttached(n) {
			status = "notconnect"
		}
		mode := pc.Mode.String()
		vlan := strconv.Itoa(int(pc.PVID))
		if pc.Mode == ModeTrunk {
			vlan = "trunk"
		}
		fmt.Fprintf(&sb, "%-20s %-12s %-5s %s\r\n", c.srv.dialect.IfName(n), status, vlan, mode)
	}
	return sb.String()
}
