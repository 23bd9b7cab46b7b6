package apps

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// HostPair is an unordered pair of host addresses.
type HostPair struct {
	A, B pkt.IPv4
}

// DMZ implements demo use case (b): VM-level pairwise access policy in
// a multi-tenant setting. It owns a filter table with default deny for
// IPv4: only explicitly permitted host pairs pass (both directions);
// ARP passes so hosts can resolve each other before the IP policy
// applies. Permitted traffic continues in the next table (normally the
// learning app), matching the Fig. 1 walk-through where Host 1 and
// Host 2 are "permitted to exchange traffic only with each other".
//
// The policy is dynamic: Permit and Revoke reprogram connected
// switches immediately.
type DMZ struct {
	controller.BaseApp
	// Table is the filter table this app owns.
	Table uint8
	// NextTable receives permitted traffic.
	NextTable uint8

	mu       sync.Mutex
	pairs    map[HostPair]bool
	switches []*controller.SwitchHandle
}

// Name implements controller.App.
func (d *DMZ) Name() string { return "dmz" }

// Permit allows traffic between a and b (in both directions) and
// programs all connected switches.
func (d *DMZ) Permit(a, b pkt.IPv4) {
	d.mu.Lock()
	if d.pairs == nil {
		d.pairs = make(map[HostPair]bool)
	}
	d.pairs[normalizePair(a, b)] = true
	switches := liveSwitches(&d.switches)
	d.mu.Unlock()
	for _, sw := range switches {
		d.installPair(sw, a, b)
	}
}

// Revoke removes the permission for the pair and deletes the flows.
func (d *DMZ) Revoke(a, b pkt.IPv4) {
	d.mu.Lock()
	delete(d.pairs, normalizePair(a, b))
	switches := liveSwitches(&d.switches)
	d.mu.Unlock()
	for _, sw := range switches {
		for _, dir := range [][2]pkt.IPv4{{a, b}, {b, a}} {
			match := openflow.Match{}
			match.WithEthType(pkt.EtherTypeIPv4).WithIPv4Src(dir[0]).WithIPv4Dst(dir[1])
			_ = sw.FlowMod(&openflow.FlowMod{
				TableID: d.Table, Command: openflow.FlowDeleteStrict, Priority: 200,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Match: match,
			})
		}
	}
}

// Permitted reports whether the pair is currently allowed.
func (d *DMZ) Permitted(a, b pkt.IPv4) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pairs[normalizePair(a, b)]
}

func normalizePair(a, b pkt.IPv4) HostPair {
	if a.Uint32() > b.Uint32() {
		a, b = b, a
	}
	return HostPair{A: a, B: b}
}

// SwitchConnected installs the base policy: ARP passes, IPv4 defaults
// to drop, permitted pairs pass.
func (d *DMZ) SwitchConnected(sw *controller.SwitchHandle) {
	d.mu.Lock()
	d.switches = append(d.switches, sw)
	pairs := make([]HostPair, 0, len(d.pairs))
	for p := range d.pairs {
		pairs = append(pairs, p)
	}
	d.mu.Unlock()

	// ARP flows to the next table so address resolution works.
	arp := openflow.Match{}
	arp.WithEthType(pkt.EtherTypeARP)
	_ = sw.InstallFlow(d.Table, 100, arp, &openflow.InstrGotoTable{TableID: d.NextTable})

	// Default deny: explicit priority-0 drop (no instructions).
	_ = sw.InstallFlow(d.Table, 0, openflow.Match{})

	for _, p := range pairs {
		d.installPair(sw, p.A, p.B)
	}
}

func (d *DMZ) installPair(sw *controller.SwitchHandle, a, b pkt.IPv4) {
	for _, dir := range [][2]pkt.IPv4{{a, b}, {b, a}} {
		match := openflow.Match{}
		match.WithEthType(pkt.EtherTypeIPv4).WithIPv4Src(dir[0]).WithIPv4Dst(dir[1])
		_ = sw.InstallFlow(d.Table, 200, match, &openflow.InstrGotoTable{TableID: d.NextTable})
	}
}
