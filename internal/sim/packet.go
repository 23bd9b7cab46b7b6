package sim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// Packet-mode guards: every switch is a real softswitch.Switch and
// every packet a real frame on a virtual netem link, so the scale knob
// is fidelity, not fleet size. Flow mode covers the fleet; packet mode
// cross-checks its bookkeeping on small fabrics.
const (
	maxPacketSwitches = 64
	maxPacketHosts    = 256
	maxPacketArrivals = 250000
)

// PacketSim executes a scenario at packet granularity: the generated
// topology is instantiated as softswitch datapaths joined by
// virtual-time netem links (LinkConfig.Scheduler = the engine clock),
// per-destination IPv4 routes are installed as real flow entries along
// the h=0 ECMP paths, and every workload arrival injects real frames
// at the source host port. The whole fabric advances on one event
// loop, so counters are exact and a run is reproducible.
type PacketSim struct {
	eng      *Engine
	topo     *fabric.Topology
	sc       Scenario
	wl       fabric.Workload
	switches map[int]*softswitch.Switch
	hostPort map[int]*netem.Port
	hostRx   map[int]uint64
	links    []*netem.Link
	frames   map[uint64][]byte // (src<<32|dst) -> frame template

	// ctrlFailover rig (PR 5 machinery): the first switch is managed
	// by a master/slave controller pair instead of direct table pokes.
	managedSw *softswitch.Switch
	managedID int
	agent     *softswitch.Agent
	ctrl      *controlplane.Pair

	res       Result
	eventHash uint64
}

// NewPacketSim builds the packet-mode simulator. Scenarios with
// link/switch faults are rejected — packet mode models the fabric at
// full fidelity or not at all, and remodeling netem link teardown
// mid-run is flow mode's job.
func NewPacketSim(sc Scenario) (*PacketSim, error) {
	sc = sc.withDefaults()
	topo, err := sc.Topology.Build()
	if err != nil {
		return nil, err
	}
	if n := len(topo.SwitchIDs); n > maxPacketSwitches {
		return nil, fmt.Errorf("sim: packet mode caps at %d switches (scenario has %d); use flow mode", maxPacketSwitches, n)
	}
	if n := len(topo.HostIDs); n > maxPacketHosts {
		return nil, fmt.Errorf("sim: packet mode caps at %d hosts (scenario has %d); use flow mode", maxPacketHosts, n)
	}
	if n := sc.Workload.TotalArrivals(); n > maxPacketArrivals {
		return nil, fmt.Errorf("sim: packet mode caps at %d arrivals (scenario has %d); use flow mode", maxPacketArrivals, n)
	}
	needFailover := false
	for _, f := range sc.Faults {
		if f.Kind != FaultCtrlFailover {
			return nil, fmt.Errorf("sim: packet mode supports only %s faults (got %s); use flow mode for link/switch faults", FaultCtrlFailover, f.Kind)
		}
		needFailover = true
	}
	wl, err := sc.Workload.Build(len(topo.HostIDs), sc.Seed)
	if err != nil {
		return nil, err
	}
	s := &PacketSim{
		eng:       NewEngine(),
		topo:      topo,
		sc:        sc,
		wl:        wl,
		switches:  make(map[int]*softswitch.Switch, len(topo.SwitchIDs)),
		hostPort:  make(map[int]*netem.Port, len(topo.HostIDs)),
		hostRx:    make(map[int]uint64, len(topo.HostIDs)),
		frames:    make(map[uint64][]byte),
		managedID: -1,
		eventHash: fnvOffset,
	}
	s.res = Result{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Mode:     "packet",
		Switches: len(topo.SwitchIDs),
		Hosts:    len(topo.HostIDs),
		Links:    len(topo.Links),
	}
	if err := s.build(needFailover); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// build instantiates switches, links and flow tables.
func (s *PacketSim) build(needFailover bool) error {
	clock := s.eng.Clock()
	for i, id := range s.topo.SwitchIDs {
		s.switches[id] = softswitch.New(s.topo.Nodes[id].Name, uint64(i+1),
			softswitch.WithClock(clock), softswitch.WithNumTables(1))
	}
	// Wire every topology link as a virtual-time netem link. Topology
	// port index i becomes OpenFlow port i+1 (0 is invalid).
	for _, tl := range s.topo.Links {
		l := netem.NewLink(netem.LinkConfig{
			Async:     true,
			Scheduler: clock,
			Latency:   s.sc.LinkLatency.Duration,
			Name:      fmt.Sprintf("%s--%s", s.topo.Nodes[tl.A].Name, s.topo.Nodes[tl.B].Name),
		})
		s.links = append(s.links, l)
		s.attach(tl.A, tl.APort, l.A())
		s.attach(tl.B, tl.BPort, l.B())
	}
	if needFailover {
		if err := s.setupFailoverRig(); err != nil {
			return err
		}
	}
	return s.installRoutes()
}

// attach binds one link end to its node: switches get a datapath port,
// hosts a counting receiver.
func (s *PacketSim) attach(node, topoPort int, p *netem.Port) {
	if sw, ok := s.switches[node]; ok {
		sw.AttachNetPort(uint32(topoPort+1), p.Name(), p)
		return
	}
	s.hostPort[node] = p
	id := node
	p.SetReceiver(func(frame []byte) { s.hostRx[id]++ })
}

// hostIP derives a stable address from the host's index in HostIDs.
func hostIP(idx int) pkt.IPv4 {
	return pkt.IPv4{10, byte(idx >> 16), byte(idx >> 8), byte(idx)}
}

// installRoutes programs every switch with one exact-match IPv4 route
// per destination host along the h=0 ECMP path. The failover-managed
// switch is programmed through its master controller channel — real
// FlowMods over the wire — and everything is barriered before the
// first arrival fires.
func (s *PacketSim) installRoutes() error {
	for hi, dst := range s.topo.HostIDs {
		ip := hostIP(hi)
		for _, swID := range s.topo.SwitchIDs {
			next, ok := s.topo.NextHop(swID, dst, 0)
			if !ok {
				return fmt.Errorf("sim: no next hop from %s to %s",
					s.topo.Nodes[swID].Name, s.topo.Nodes[dst].Name)
			}
			port := s.topo.PortTo(swID, next)
			fm := &openflow.FlowMod{
				Command:  openflow.FlowAdd,
				Priority: 100,
				Match:    *new(openflow.Match).WithEthType(pkt.EtherTypeIPv4).WithIPv4Dst(ip),
				Instructions: []openflow.Instruction{
					&openflow.InstrApplyActions{Actions: []openflow.Action{
						&openflow.ActionOutput{Port: uint32(port + 1), MaxLen: 0xffff},
					}},
				},
			}
			if swID == s.managedID {
				if err := s.ctrl.Master.FlowMod(fm); err != nil {
					return fmt.Errorf("sim: flow-mod via master: %w", err)
				}
				continue
			}
			if _, err := s.switches[swID].ApplyFlowMod(fm); err != nil {
				return fmt.Errorf("sim: flow-mod on %s: %w", s.topo.Nodes[swID].Name, err)
			}
		}
	}
	if s.ctrl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.ctrl.Master.AwaitBarrier(ctx); err != nil {
			return fmt.Errorf("sim: barrier after route install: %w", err)
		}
	}
	return nil
}

// setupFailoverRig puts the first switch under a master/slave
// controller pair over the real PR 5 control plane (keepalive off —
// liveness here is the failover test's job, proven separately on
// virtual time in the controlplane package tests).
func (s *PacketSim) setupFailoverRig() error {
	s.managedID = s.topo.SwitchIDs[0]
	s.managedSw = s.switches[s.managedID]
	cfg := controlplane.Config{EchoInterval: -1}
	s.agent = s.managedSw.NewAgent(cfg, 0)

	mSw, mCtrl := net.Pipe()
	sSw, sCtrl := net.Pipe()
	s.agent.Attach(mSw)
	s.agent.Attach(sSw)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pair, err := controlplane.ConnectPair(ctx, mCtrl, sCtrl, cfg)
	if err != nil {
		return fmt.Errorf("sim: controller pair: %w", err)
	}
	s.ctrl = pair
	return nil
}

// failover kills the master and promotes the slave — PR 5's
// generation-bumped role takeover — then proves the new master owns
// the datapath with a barrier. Runs inside the fault's
// virtual-time callback; the datapath is quiescent while it blocks.
func (s *PacketSim) failover(idx int) {
	now := s.eng.Elapsed()
	s.res.Convergence[idx].At = Duration{now}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.ctrl.Failover(ctx); err != nil {
		s.res.Failures = append(s.res.Failures, fmt.Sprintf("failover: %v", err))
		return
	}
	s.eventHash = mix64(s.eventHash, uint64(now))
	s.eventHash = mix64(s.eventHash, faultCode(FaultCtrlFailover))
}

// frameFor builds (once) the wire frame for a src->dst host pair.
func (s *PacketSim) frameFor(a fabric.FlowArrival) []byte {
	key := uint64(a.Src)<<32 | uint64(uint32(a.Dst))
	if f, ok := s.frames[key]; ok {
		return f
	}
	size := a.FrameSize
	minLen := pkt.EthernetHeaderLen + pkt.IPv4MinHeaderLen + pkt.UDPHeaderLen
	if size < minLen {
		size = minLen
	}
	payload := make(pkt.Payload, size-minLen)
	frame, err := pkt.SerializeLayers(pkt.NewSerializeBuffer(),
		&pkt.Ethernet{
			Src:       pkt.MAC{0x02, 0xff, 0, 0, byte(a.Src >> 8), byte(a.Src)},
			Dst:       pkt.MAC{0x02, 0xfe, 0, 0, byte(a.Dst >> 8), byte(a.Dst)},
			EtherType: pkt.EtherTypeIPv4,
		},
		&pkt.IPv4Header{
			TTL: 64, Protocol: pkt.IPProtoUDP,
			Src: hostIP(a.Src), Dst: hostIP(a.Dst),
		},
		&pkt.UDP{SrcPort: 4096, DstPort: 4097},
		&payload,
	)
	if err != nil {
		panic(fmt.Sprintf("sim: frame build: %v", err))
	}
	s.frames[key] = frame
	return frame
}

// Run executes the scenario and returns its verdict.
func (s *PacketSim) Run(wallBudget time.Duration) (Result, error) {
	defer s.Close()
	wallStart := time.Now() // wall budget and report timing only, never simulation time
	for i, f := range s.sc.Faults {
		i := i
		s.res.Convergence = append(s.res.Convergence, ConvergenceRecord{Kind: f.Kind, Node: f.Node, At: f.At})
		s.eng.At(f.At.Duration, func() { s.failover(i) })
	}
	s.scheduleNextArrival()
	st, err := s.eng.Run(RunOpts{Until: s.sc.Horizon.Duration, WallBudget: wallBudget})
	if err != nil {
		return Result{}, err
	}
	s.finish(st, wallStart)
	return s.res, nil
}

// scheduleNextArrival mirrors FleetSim's pull model.
func (s *PacketSim) scheduleNextArrival() {
	a, ok := s.wl.Next()
	if !ok {
		return
	}
	s.eng.At(a.At, func() {
		s.inject(a)
		s.scheduleNextArrival()
	})
}

// inject transmits one arrival's packets at the source host port, each
// a fresh copy of the pair's frame: the datapath owns what it is sent.
func (s *PacketSim) inject(a fabric.FlowArrival) {
	frame := s.frameFor(a)
	port := s.hostPort[s.topo.HostIDs[a.Src]]
	for i := 0; i < a.Packets; i++ {
		_ = port.Send(append([]byte(nil), frame...)) // tail-drops are counted on the port
	}
	s.res.OfferedFlows++
	s.res.OfferedPackets += uint64(a.Packets)
	s.eventHash = mix64(s.eventHash, uint64(s.eng.Elapsed()))
	s.eventHash = mix64(s.eventHash, uint64(a.FlowID))
	s.eventHash = mix64(s.eventHash, uint64(a.Src)<<32|uint64(uint32(a.Dst)))
}

// finish tallies real datapath counters into the verdict.
func (s *PacketSim) finish(st RunStats, wallStart time.Time) {
	r := &s.res
	r.Events = st.Events
	r.VirtualEnd = Duration{st.VirtualEnd}

	var rx, linkDrops, swDrops uint64
	for _, id := range s.topo.HostIDs {
		rx += s.hostRx[id]
	}
	for _, l := range s.links {
		linkDrops += l.A().Counters().TxDropped.Load() + l.B().Counters().TxDropped.Load()
	}
	for _, sw := range s.switches {
		swDrops += sw.Drops()
	}
	r.DeliveredPackets = rx
	r.LostPackets = linkDrops + swDrops
	r.DeliveredFlows = r.OfferedFlows // flow identity is not tracked per packet
	if r.OfferedPackets > 0 {
		r.LossRate = float64(r.LostPackets) / float64(r.OfferedPackets)
	}

	r.CounterExact = true
	fail := func(format string, args ...any) {
		r.CounterExact = false
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	if r.OfferedPackets != r.DeliveredPackets+r.LostPackets {
		fail("packet conservation: offered %d != delivered %d + dropped %d",
			r.OfferedPackets, r.DeliveredPackets, r.LostPackets)
	}
	if len(s.sc.Faults) > 0 && r.LostPackets != 0 {
		fail("controller failover lost %d packets, want 0 (PR 5 zero-loss property)", r.LostPackets)
	}
	if len(r.Failures) > 0 {
		r.CounterExact = false
	}
	r.Pass = r.CounterExact
	r.EventHash = fmt.Sprintf("%016x", s.eventHash)
	r.WallMS = time.Since(wallStart).Milliseconds()
	r.Digest = r.digest()
}

// Close tears down links and the control-plane rig; the returned
// error aggregates controller transport close failures.
func (s *PacketSim) Close() error {
	var errs []error
	if s.ctrl != nil {
		errs = append(errs, s.ctrl.Close())
	}
	if s.agent != nil {
		s.agent.Stop()
	}
	for _, l := range s.links {
		l.Close()
	}
	return errors.Join(errs...)
}
