package legacy

import (
	"fmt"
	"sort"
)

// PortMode is the 802.1Q role of a switch port.
type PortMode int

// Port modes.
const (
	// ModeAccess: untagged ingress classified into PVID; egress
	// untagged; tagged ingress accepted only if it matches PVID.
	ModeAccess PortMode = iota
	// ModeTrunk: tagged ingress accepted for allowed VLANs; egress
	// tagged (except the native VLAN, which travels untagged).
	ModeTrunk
)

// String implements fmt.Stringer.
func (m PortMode) String() string {
	switch m {
	case ModeAccess:
		return "access"
	case ModeTrunk:
		return "trunk"
	}
	return fmt.Sprintf("PortMode(%d)", int(m))
}

// DefaultVLAN is the factory-default VLAN of every port.
const DefaultVLAN uint16 = 1

// MaxVLAN is the highest valid 802.1Q VLAN id (4095 is reserved).
const MaxVLAN uint16 = 4094

// VLANSet is a set of 802.1Q VLAN ids, one bit per id: the bridge asks
// it for every frame it admits and every port it sends to, so membership
// is a shift and a mask.
type VLANSet [4096 / 64]uint64

// Add puts vlan, at most 4095, in the set.
func (s *VLANSet) Add(vlan uint16) { s[vlan>>6] |= 1 << (vlan & 63) }

// Has reports whether vlan is in the set (ids past 4095 never are).
func (s *VLANSet) Has(vlan uint16) bool {
	return vlan < 4096 && s[vlan>>6]&(1<<(vlan&63)) != 0
}

// PortConfig is the administrative configuration of one port.
type PortConfig struct {
	Mode     PortMode
	PVID     uint16   // access VLAN, or native VLAN on a trunk
	Allowed  *VLANSet // trunk allowed set; nil means "all"
	Shutdown bool
	Name     string // interface name as shown by the CLI
}

// clone returns a deep copy.
func (pc *PortConfig) clone() *PortConfig {
	c := *pc
	if pc.Allowed != nil {
		allowed := *pc.Allowed
		c.Allowed = &allowed
	}
	return &c
}

// allows reports whether the port carries the given VLAN.
func (pc *PortConfig) allows(vlan uint16) bool {
	switch pc.Mode {
	case ModeAccess:
		return pc.PVID == vlan
	case ModeTrunk:
		return pc.Allowed == nil || pc.Allowed.Has(vlan)
	}
	return false
}

// classify is 802.1Q ingress classification: the VLAN a frame arriving
// on the port belongs to, given its outermost tag (vid, tagged), or
// ok=false when the port does not admit it. An access port takes
// untagged frames into its PVID and accepts a tagged frame only for
// that same VLAN (common vendor behaviour); a trunk takes untagged
// frames into its native VLAN and tagged ones into any allowed VLAN.
func (pc *PortConfig) classify(vid uint16, tagged bool) (vlan uint16, ok bool) {
	vlan = pc.PVID
	if tagged {
		vlan = vid
	}
	return vlan, pc.allows(vlan)
}

// AllowedList returns the sorted trunk allowed VLANs (nil = all).
func (pc *PortConfig) AllowedList() []uint16 {
	if pc.Allowed == nil {
		return nil
	}
	out := []uint16{}
	for v := range uint16(4096) {
		if pc.Allowed.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// Config is the administrative configuration of the whole switch.
type Config struct {
	Hostname string
	Ports    map[int]*PortConfig // keyed by 1-based port number
	VLANs    map[uint16]string   // declared VLANs with names
}

// NewDefaultConfig returns a factory-default configuration for a
// switch with n ports: all access ports in VLAN 1.
func NewDefaultConfig(hostname string, n int) *Config {
	c := &Config{
		Hostname: hostname,
		Ports:    make(map[int]*PortConfig, n),
		VLANs:    map[uint16]string{DefaultVLAN: "default"},
	}
	for i := 1; i <= n; i++ {
		c.Ports[i] = &PortConfig{
			Mode: ModeAccess,
			PVID: DefaultVLAN,
			Name: fmt.Sprintf("GigabitEthernet0/%d", i),
		}
	}
	return c
}

// clone returns a deep copy.
func (c *Config) clone() *Config {
	nc := &Config{
		Hostname: c.Hostname,
		Ports:    make(map[int]*PortConfig, len(c.Ports)),
		VLANs:    make(map[uint16]string, len(c.VLANs)),
	}
	for n, p := range c.Ports {
		nc.Ports[n] = p.clone()
	}
	for v, name := range c.VLANs {
		nc.VLANs[v] = name
	}
	return nc
}

// PortNumbers returns the sorted port numbers.
func (c *Config) PortNumbers() []int {
	out := make([]int, 0, len(c.Ports))
	for n := range c.Ports {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
