package legacy

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// Switch is the emulated legacy Ethernet switch dataplane: an 802.1Q
// IVL transparent bridge. Ports are attached to netem links; all
// configuration goes through the management API used by the CLI, the
// SNMP agent and the HARMLESS manager.
//
// Locking discipline: the configuration lock is held while a burst is
// classified, learned and its egress frames are built; it is released
// before any frame is transmitted so hairpinned frames can re-enter the
// switch on the same goroutine (see the netem package comment).
type Switch struct {
	mu    sync.Mutex
	cfg   *Config
	ports []port // indexed by port number; ports[0] is unused
	fdb   *FDB
	clock netem.Clock

	// scratch pools the per-burst egress queues (*egressScratch). A
	// hairpinned burst re-enters forward while the outer call still
	// holds its scratch, so each call draws its own.
	scratch sync.Pool

	bootTime time.Time
	model    string
}

// port is the dataplane's view of one physical port.
type port struct {
	// pc is cfg.Ports[n]: the management API rewrites the struct in
	// place under mu and never replaces it.
	pc *PortConfig
	np *netem.Port // attached link end; nil until AttachPort
	// counters are the switch-side numbers, separate from the netem
	// link counters so the SNMP ifTable can expose them. They are
	// atomics: the dataplane adds to them without holding mu.
	counters stats.PortCounters
}

// Option configures a Switch at construction time.
type Option func(*Switch)

// WithClock injects a clock (tests use netem.ManualClock to exercise
// FDB aging deterministically).
func WithClock(c netem.Clock) Option { return func(s *Switch) { s.clock = c } }

// NewSwitch creates a legacy switch with n ports in factory-default
// configuration (all access, VLAN 1).
func NewSwitch(hostname string, n int, opts ...Option) *Switch {
	s := &Switch{
		cfg:   NewDefaultConfig(hostname, n),
		ports: make([]port, n+1),
		clock: netem.RealClock{},
		model: "LGS-2400 Series L2 Switch",
	}
	for _, o := range opts {
		o(s)
	}
	if s.fdb == nil {
		s.fdb = NewFDB(0, s.clock)
	}
	s.bootTime = s.clock.Now()
	for i := 1; i <= n; i++ {
		s.ports[i].pc = s.cfg.Ports[i]
	}
	s.scratch.New = func() any { return &egressScratch{queues: make([]egressQueue, n+1)} }
	return s
}

// hasPort reports whether n is a physical port number of this switch.
func (s *Switch) hasPort(n int) bool { return n >= 1 && n < len(s.ports) }

// AttachPort connects physical port number n (1-based) to one end of a
// netem link. It panics on an unknown port number — attaching is
// topology construction, not runtime input.
func (s *Switch) AttachPort(n int, p *netem.Port) {
	if !s.hasPort(n) {
		panic(fmt.Sprintf("legacy: switch %q has no port %d", s.Hostname(), n))
	}
	s.mu.Lock()
	s.ports[n].np = p
	s.mu.Unlock()
	p.SetReceiver(func(frame []byte) { s.receive(n, frame) })
	p.SetBatchReceiver(func(frames [][]byte) { s.forward(n, frames) })
}

// receive is the one-frame wrapper over forward, so the per-frame and
// the burst entry cannot diverge.
func (s *Switch) receive(in int, frame []byte) {
	one := [1][]byte{frame}
	s.forward(in, one[:])
}

// egressQueue is the frames one burst sends out of one port.
type egressQueue struct {
	np     *netem.Port
	frames [][]byte
}

// egressScratch coalesces one burst's egress per port. queues is
// indexed by port number; active lists the ports holding frames, in
// the order the burst first used them.
type egressScratch struct {
	queues []egressQueue
	active []int
}

// add queues frame for transmission on port p, whose attached link end
// is np.
func (sc *egressScratch) add(p int, np *netem.Port, frame []byte) {
	q := &sc.queues[p]
	if len(q.frames) == 0 {
		q.np = np
		sc.active = append(sc.active, p)
	}
	q.frames = append(q.frames, frame)
}

// forward implements the bridge forwarding process for a burst of
// frames arriving on port in. The whole burst is classified, learned
// and resolved under one hold of the configuration lock, one hold of
// the FDB lock and one clock reading; egress frames are built in place
// (the switch owns every frame it is handed, spare capacity included)
// and coalesced per port, then transmitted outside the locks, one
// SendBatch per egress port. Frames leave each port in arrival order.
//
// The burst is walked as runs: stretches of consecutive frames with the
// same address pair in the same VLAN. A run is learned and resolved
// once, by its first frame (resolveLocked). That is exact: at one clock
// reading and under the locks, learning the same source on the same
// port again changes nothing, and looking up the same destination again
// sees what the first lookup left, an aged entry it deleted included.
// The answer lives in this call alone. Counters, the tag rewrite and
// flood copies stay per frame.
func (s *Switch) forward(in int, frames [][]byte) {
	sc := s.scratch.Get().(*egressScratch)
	now := s.fdb.clock.Now() // learning and aging run on the FDB's clock
	var rxBytes uint64
	var rxFrames, rxDropped, rxErrors uint64
	var run runKey // the zero key opens no run: makeRunKey sets a bit it lacks
	var out int    // the open run's egress: a port, flood, or 0 to filter

	s.mu.Lock()
	pc := s.ports[in].pc
	s.fdb.mu.Lock()
	for _, frame := range frames {
		if len(frame) < pkt.EthernetHeaderLen {
			rxErrors++
			continue
		}
		if pc.Shutdown {
			continue
		}
		rxFrames++
		rxBytes += uint64(len(frame))

		vid, tagged := pkt.VLANID(frame)
		vlan, ok := pc.classify(vid, tagged)
		if !ok {
			rxDropped++
			continue
		}
		if k := makeRunKey(frame, vlan); k != run {
			run, out = k, s.resolveLocked(now, in, vlan, frame)
		}
		switch {
		case out == flood:
			s.floodLocked(sc, in, vlan, tagged, frame)
		case out != 0:
			ep := &s.ports[out]
			sc.add(out, ep.np, egressFrame(frame, tagged, vlan, ep.pc))
		}
	}
	s.fdb.mu.Unlock()
	s.mu.Unlock()

	c := &s.ports[in].counters
	if rxFrames > 0 {
		c.RxPackets.Add(rxFrames)
		c.RxBytes.Add(rxBytes)
	}
	if rxDropped > 0 {
		c.RxDropped.Add(rxDropped)
	}
	if rxErrors > 0 {
		c.RxErrors.Add(rxErrors)
	}
	for _, p := range sc.active {
		q := &sc.queues[p]
		var txBytes uint64
		for _, f := range q.frames {
			txBytes += uint64(len(f))
		}
		tc := &s.ports[p].counters
		tc.TxPackets.Add(uint64(len(q.frames)))
		tc.TxBytes.Add(txBytes)
		_ = q.np.SendBatch(q.frames) // a closed link counts its own drops
		clear(q.frames)
		q.np, q.frames = nil, q.frames[:0]
	}
	sc.active = sc.active[:0]
	s.scratch.Put(sc)
}

// runKey identifies a run of a burst: the 12 address bytes of a frame
// and the VLAN it was classified into, packed in two words.
type runKey [2]uint64

func makeRunKey(frame []byte, vlan uint16) runKey {
	return runKey{
		binary.LittleEndian.Uint64(frame[0:8]),
		uint64(binary.LittleEndian.Uint32(frame[8:12]))<<16 | uint64(vlan) | 1<<63,
	}
}

// flood is resolveLocked's answer for a frame every member port gets.
const flood = -1

// resolveLocked is the part of forwarding that a run of frames shares:
// learn the source on the ingress port, resolve the destination, and
// check that a known egress port carries vlan. It returns the egress
// port, flood, or 0 when the frame is filtered: its destination sits on
// the ingress port, or on a port that cannot take vlan. Caller holds
// s.mu and the FDB lock.
func (s *Switch) resolveLocked(now time.Time, in int, vlan uint16, frame []byte) int {
	var src, dst pkt.MAC
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	out, known := s.fdb.stepLocked(now, vlan, src, in, dst)
	switch {
	case !known:
		return flood
	case out != in && s.hasPort(out) && s.ports[out].carriesLocked(vlan):
		return out
	}
	return 0
}

// carriesLocked reports whether the port can transmit traffic of vlan:
// attached, administratively up and a member. Caller holds s.mu.
func (p *port) carriesLocked(vlan uint16) bool {
	return p.np != nil && !p.pc.Shutdown && p.pc.allows(vlan)
}

// floodLocked queues frame on every port that carries vlan except the
// ingress, walking the ports in number order. Every recipient but the
// last gets a copy, made before the last rewrites the frame itself.
// Caller holds s.mu.
func (s *Switch) floodLocked(sc *egressScratch, in int, vlan uint16, tagged bool, frame []byte) {
	last := 0
	for p := 1; p < len(s.ports); p++ {
		if p == in || !s.ports[p].carriesLocked(vlan) {
			continue
		}
		if last != 0 {
			lp := &s.ports[last]
			sc.add(last, lp.np, egressFrame(cloneFrame(frame), tagged, vlan, lp.pc))
		}
		last = p
	}
	if last != 0 {
		lp := &s.ports[last]
		sc.add(last, lp.np, egressFrame(frame, tagged, vlan, lp.pc))
	}
}

// cloneFrame copies a frame for one more recipient, with room behind it
// for one VLAN tag so a later push stays in place.
func cloneFrame(frame []byte) []byte {
	return append(make([]byte, 0, len(frame)+pkt.Dot1QHeaderLen), frame...)
}

// egressFrame rewrites an owned frame into what a port with config pc
// transmits for traffic in vlan: access ports and the trunk native VLAN
// send untagged, trunks send tagged.
func egressFrame(frame []byte, tagged bool, vlan uint16, pc *PortConfig) []byte {
	wantTagged := pc.Mode == ModeTrunk && vlan != pc.PVID
	// Neither mutator can fail here: ingress admitted only frames with a
	// full Ethernet header, and tagged means VLANID found a whole tag.
	switch {
	case tagged && !wantTagged:
		frame, _ = pkt.PopVLANOwned(frame)
	case !tagged && wantTagged:
		frame, _ = pkt.PushVLANOwned(frame, pkt.EtherTypeDot1Q, vlan)
	}
	// tagged && wantTagged: the tag already names vlan — ingress
	// classification read it from there.
	return frame
}

// --- Management API ------------------------------------------------

// Hostname returns the configured hostname.
func (s *Switch) Hostname() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Hostname
}

// Model returns the model string.
func (s *Switch) Model() string { return s.model }

// Uptime returns time since boot.
func (s *Switch) Uptime() time.Duration {
	return s.clock.Now().Sub(s.bootTime)
}

// NumPorts returns the number of physical ports.
func (s *Switch) NumPorts() int { return len(s.ports) - 1 }

// Config returns a deep copy of the running configuration.
func (s *Switch) Config() *Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.clone()
}

// SetHostname renames the switch.
func (s *Switch) SetHostname(h string) {
	s.mu.Lock()
	s.cfg.Hostname = h
	s.mu.Unlock()
}

// DeclareVLAN creates (or renames) a VLAN.
func (s *Switch) DeclareVLAN(id uint16, name string) error {
	if id < 1 || id > MaxVLAN {
		return fmt.Errorf("legacy: VLAN %d out of range", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		name = fmt.Sprintf("VLAN%04d", id)
	}
	s.cfg.VLANs[id] = name
	return nil
}

// RemoveVLAN deletes a VLAN declaration and flushes its FDB entries.
func (s *Switch) RemoveVLAN(id uint16) {
	s.mu.Lock()
	delete(s.cfg.VLANs, id)
	s.mu.Unlock()
	s.fdb.FlushVLAN(id)
}

// SetPortAccess configures port n as an access port in vlan.
func (s *Switch) SetPortAccess(n int, vlan uint16) error {
	if vlan < 1 || vlan > MaxVLAN {
		return fmt.Errorf("legacy: VLAN %d out of range", vlan)
	}
	s.mu.Lock()
	pc, ok := s.cfg.Ports[n]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("legacy: no port %d", n)
	}
	pc.Mode = ModeAccess
	pc.PVID = vlan
	pc.Allowed = nil
	if _, declared := s.cfg.VLANs[vlan]; !declared {
		s.cfg.VLANs[vlan] = fmt.Sprintf("VLAN%04d", vlan)
	}
	s.mu.Unlock()
	s.fdb.FlushPort(n)
	return nil
}

// SetPortTrunk configures port n as a trunk carrying the listed VLANs
// (nil allowed = all) with the given native VLAN.
func (s *Switch) SetPortTrunk(n int, native uint16, allowed []uint16) error {
	if native < 1 || native > MaxVLAN {
		return fmt.Errorf("legacy: native VLAN %d out of range", native)
	}
	// Build the set before touching the port: a refused list leaves
	// the port as it was.
	var set *VLANSet
	if allowed != nil {
		set = new(VLANSet)
		for _, v := range allowed {
			if v < 1 || v > MaxVLAN {
				return fmt.Errorf("legacy: allowed VLAN %d out of range", v)
			}
			set.Add(v)
		}
	}
	s.mu.Lock()
	pc, ok := s.cfg.Ports[n]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("legacy: no port %d", n)
	}
	pc.Mode = ModeTrunk
	pc.PVID = native
	pc.Allowed = set
	s.mu.Unlock()
	s.fdb.FlushPort(n)
	return nil
}

// SetPortShutdown administratively disables or enables a port.
func (s *Switch) SetPortShutdown(n int, down bool) error {
	s.mu.Lock()
	pc, ok := s.cfg.Ports[n]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("legacy: no port %d", n)
	}
	pc.Shutdown = down
	s.mu.Unlock()
	if down {
		s.fdb.FlushPort(n)
	}
	return nil
}

// PortCounters returns the dataplane counters of port n (nil if the
// port does not exist).
func (s *Switch) PortCounters(n int) *stats.PortCounters {
	if !s.hasPort(n) {
		return nil
	}
	return &s.ports[n].counters
}

// PortAttached reports whether a link is attached to port n.
func (s *Switch) PortAttached(n int) bool {
	if !s.hasPort(n) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ports[n].np != nil
}

// FDB exposes the forwarding database for the management planes.
func (s *Switch) FDB() *FDB { return s.fdb }
