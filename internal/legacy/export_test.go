package legacy

import (
	"fmt"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// SetEnableSecret requires a password for the enable command.
func (s *CLIServer) SetEnableSecret(pw string) { s.enableSecret = pw }

// Validate checks internal consistency.
func (c *Config) Validate() error {
	for n, p := range c.Ports {
		if p.PVID < 1 || p.PVID > MaxVLAN {
			return fmt.Errorf("legacy: port %d: PVID %d out of range", n, p.PVID)
		}
		for _, v := range p.AllowedList() {
			if v < 1 || v > MaxVLAN {
				return fmt.Errorf("legacy: port %d: allowed VLAN %d out of range", n, v)
			}
		}
	}
	for v := range c.VLANs {
		if v < 1 || v > MaxVLAN {
			return fmt.Errorf("legacy: VLAN %d out of range", v)
		}
	}
	return nil
}

// Learn records that mac was seen on port within vlan. Static entries
// are never displaced by learning. Learning a full table is a no-op
// (as in hardware, where the entry simply isn't installed).
func (f *FDB) Learn(vlan uint16, mac pkt.MAC, port int) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.learnLocked(now, vlan, mac, port)
}

// AddStatic installs a permanent entry.
func (f *FDB) AddStatic(vlan uint16, mac pkt.MAC, port int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[makeFDBKey(vlan, mac)] = &FDBEntry{
		VLAN: vlan, MAC: mac, Port: port, Static: true, LastSeen: f.clock.Now(),
	}
}

// Lookup returns the egress port for (vlan, mac), or ok=false if the
// address is unknown (or the entry has aged out).
func (f *FDB) Lookup(vlan uint16, mac pkt.MAC) (port int, ok bool) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lookupLocked(now, makeFDBKey(vlan, mac))
}

// Len returns the number of entries currently stored (including any
// not-yet-swept expired entries).
func (f *FDB) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.entries)
}

// WithModel sets the model string reported by the management planes.
func WithModel(m string) Option { return func(s *Switch) { s.model = m } }
