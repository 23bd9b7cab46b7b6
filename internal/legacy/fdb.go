// Package legacy emulates the "plain old legacy Ethernet switch" that
// HARMLESS migrates to SDN: an 802.1Q transparent bridge with per-port
// access/trunk VLAN configuration, MAC learning with aging, per-port
// counters, and two remote management planes — a vendor-style CLI (two
// dialects, see cli.go) and an SNMP agent binding (see mib.go).
//
// The dataplane implements exactly the standard behaviours the
// HARMLESS trick depends on (§2 of the paper): untagged frames entering
// an access port are classified into the port's VLAN; frames leaving on
// the trunk carry the 802.1Q tag; frames returning on the trunk tagged
// with an access port's VLAN are forwarded to that port with the tag
// stripped.
package legacy

import (
	"sort"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// DefaultFDBAging is the MAC table aging time; 300s matches common
// vendor defaults.
const DefaultFDBAging = 300 * time.Second

// fdbKey identifies a learned entry: learning is per (VLAN, MAC) as in
// an IVL (independent VLAN learning) bridge. The pair is packed into
// one word — VLAN above the 48 address bits — so the table is a map
// keyed by uint64, which the runtime hashes and compares as a word.
type fdbKey uint64

func makeFDBKey(vlan uint16, mac pkt.MAC) fdbKey {
	return fdbKey(vlan)<<48 | fdbKey(mac[0])<<40 | fdbKey(mac[1])<<32 | fdbKey(mac[2])<<24 |
		fdbKey(mac[3])<<16 | fdbKey(mac[4])<<8 | fdbKey(mac[5])
}

// FDBEntry is one visible forwarding-database entry.
type FDBEntry struct {
	VLAN     uint16
	MAC      pkt.MAC
	Port     int
	Static   bool
	LastSeen time.Time
}

// FDB is the filtering/forwarding database of the bridge. It is safe
// for concurrent use. Aging is lazy: expired entries are ignored by
// Lookup and physically removed by Sweep (or by re-learning).
type FDB struct {
	mu      sync.Mutex
	entries map[fdbKey]*FDBEntry
	clock   netem.Clock
	max     int
}

// NewFDB creates a table with the given capacity (zero selects an
// effectively unlimited one) that ages entries after DefaultFDBAging.
func NewFDB(max int, clock netem.Clock) *FDB {
	if clock == nil {
		clock = netem.RealClock{}
	}
	return &FDB{
		entries: make(map[fdbKey]*FDBEntry),
		clock:   clock,
		max:     max,
	}
}

func (f *FDB) learnLocked(now time.Time, vlan uint16, mac pkt.MAC, port int) {
	if !mac.IsUnicast() {
		return // never learn multicast/broadcast sources
	}
	k := makeFDBKey(vlan, mac)
	if e, ok := f.entries[k]; ok {
		if e.Static {
			return
		}
		e.Port = port
		e.LastSeen = now
		return
	}
	if f.max > 0 && len(f.entries) >= f.max {
		// Opportunistically evict one expired entry to make room.
		if !f.evictExpiredLocked(now) {
			return
		}
	}
	f.entries[k] = &FDBEntry{VLAN: vlan, MAC: mac, Port: port, LastSeen: now}
}

func (f *FDB) lookupLocked(now time.Time, k fdbKey) (port int, ok bool) {
	e, ok := f.entries[k]
	if !ok {
		return 0, false
	}
	if !e.Static && now.Sub(e.LastSeen) > DefaultFDBAging {
		delete(f.entries, k)
		return 0, false
	}
	return e.Port, true
}

// stepLocked is the bridge's per-frame use of the table: learn the
// source on the ingress port, then resolve the destination, both at the
// caller's clock reading now. known is false for a group address and
// for a unicast address that is unknown or has aged out — the frame
// floods. Caller holds f.mu (the dataplane takes it once per burst).
func (f *FDB) stepLocked(now time.Time, vlan uint16, src pkt.MAC, in int, dst pkt.MAC) (out int, known bool) {
	f.learnLocked(now, vlan, src, in)
	if !dst.IsUnicast() {
		return 0, false
	}
	return f.lookupLocked(now, makeFDBKey(vlan, dst))
}

// evictExpiredLocked removes one expired entry if any exists.
func (f *FDB) evictExpiredLocked(now time.Time) bool {
	for k, e := range f.entries {
		if !e.Static && now.Sub(e.LastSeen) > DefaultFDBAging {
			delete(f.entries, k)
			return true
		}
	}
	return false
}

// Sweep removes all expired entries and returns how many were removed.
func (f *FDB) Sweep() int {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	removed := 0
	for k, e := range f.entries {
		if !e.Static && now.Sub(e.LastSeen) > DefaultFDBAging {
			delete(f.entries, k)
			removed++
		}
	}
	return removed
}

// FlushPort removes all dynamic entries pointing at port (issued when a
// port goes down or is reconfigured).
func (f *FDB) FlushPort(port int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, e := range f.entries {
		if e.Port == port && !e.Static {
			delete(f.entries, k)
		}
	}
}

// FlushVLAN removes all dynamic entries within vlan.
func (f *FDB) FlushVLAN(vlan uint16) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, e := range f.entries {
		if e.VLAN == vlan && !e.Static {
			delete(f.entries, k)
		}
	}
}

// Entries returns a snapshot sorted by (VLAN, MAC) for the management
// plane ("show mac address-table").
func (f *FDB) Entries() []FDBEntry {
	f.mu.Lock()
	out := make([]FDBEntry, 0, len(f.entries))
	for _, e := range f.entries {
		out = append(out, *e)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].VLAN != out[j].VLAN {
			return out[i].VLAN < out[j].VLAN
		}
		for b := 0; b < 6; b++ {
			if out[i].MAC[b] != out[j].MAC[b] {
				return out[i].MAC[b] < out[j].MAC[b]
			}
		}
		return false
	})
	return out
}
