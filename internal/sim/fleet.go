package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"github.com/harmless-sdn/harmless/internal/fabric"
)

// ConvergenceRecord summarizes one fault's blast radius: how many
// flows it cost and how long losses kept appearing after it hit (the
// scenario's reconvergence window bounds this from above in flow
// mode, so the record doubles as a model self-check).
type ConvergenceRecord struct {
	Kind       string   `json:"kind"`
	Node       string   `json:"node,omitempty"`
	Peer       string   `json:"peer,omitempty"`
	At         Duration `json:"at"`
	FlowsLost  uint64   `json:"flowsLost"`
	LastLossAt Duration `json:"lastLossAt,omitempty"`
	// Convergence is LastLossAt - At: how long the fault kept eating
	// flows. Zero when the fault cost nothing.
	Convergence Duration `json:"convergence"`
}

// Result is a run's verdict: what was offered, what arrived, what the
// faults cost, whether the books balance — plus the reproducibility
// digest. Digest covers every field except WallMS and Digest itself,
// so identical seeds must produce identical digests regardless of
// machine speed.
type Result struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Mode     string `json:"mode"`

	Switches int `json:"switches"`
	Hosts    int `json:"hosts"`
	Links    int `json:"links"`

	OfferedFlows   uint64 `json:"offeredFlows"`
	DeliveredFlows uint64 `json:"deliveredFlows"`
	LostFlows      uint64 `json:"lostFlows"`
	ReroutedFlows  uint64 `json:"reroutedFlows"`

	OfferedPackets   uint64 `json:"offeredPackets"`
	DeliveredPackets uint64 `json:"deliveredPackets"`
	LostPackets      uint64 `json:"lostPackets"`
	DeliveredBytes   uint64 `json:"deliveredBytes"`

	// FailoverDelayed counts flows admitted during a ctrlFailover
	// window: delivered, but charged the failover setup delay (the
	// PR 5 zero-loss failover property, asserted by CounterExact).
	FailoverDelayed uint64 `json:"failoverDelayed"`

	LossRate   float64  `json:"lossRate"`
	MeanHops   float64  `json:"meanHops"`
	MaxLatency Duration `json:"maxLatency"`

	Convergence []ConvergenceRecord `json:"convergence,omitempty"`

	// CounterExact is the conservation verdict: offered == delivered +
	// lost at flow and packet granularity, and every switch's in ==
	// out + drop. Any violation is listed in Failures.
	CounterExact bool     `json:"counterExact"`
	Failures     []string `json:"failures,omitempty"`
	Pass         bool     `json:"pass"`

	Events     uint64   `json:"events"`
	VirtualEnd Duration `json:"virtualEnd"`
	EventHash  string   `json:"eventHash"`

	WallMS int64  `json:"wallMS"` // excluded from Digest
	Digest string `json:"digest"` // excluded from itself
}

// digest computes the canonical run digest: SHA-256 over the verdict's
// JSON with the wall-time and digest fields zeroed.
func (r Result) digest() string {
	r.WallMS = 0
	r.Digest = ""
	b, err := json.Marshal(r)
	if err != nil {
		return "marshal-error"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix64 folds x into a running FNV-1a 64 hash.
func mix64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * fnvPrime
		x >>= 8
	}
	return h
}

// FleetSim is the flow-level simulator: arrivals from a workload
// stream walk analytic ECMP routes over a generated topology, with
// faults flipping elements down and up on the virtual timeline. No
// per-packet state exists, so thousands of switches and millions of
// flows fit one event loop; counters are exact by construction and the
// conservation checks prove the bookkeeping stayed consistent.
type FleetSim struct {
	eng  *Engine
	topo *fabric.Topology
	sc   Scenario
	wl   fabric.Workload

	linkDown    []bool
	linkFault   []int // fault index that downed the link, -1
	swDown      []bool
	swFault     []int
	downAt      []time.Duration // per fault: when it hit
	reconvEnd   []time.Duration // per fault: downAt + reconvergence
	failoverEnd time.Duration   // latest ctrlFailover window end

	records []ConvergenceRecord

	swIn, swOut, swDrop []uint64
	hostTx, hostRx      []uint64

	res       Result
	hopSum    uint64
	eventHash uint64
	pathBuf   []int
}

// NewFleetSim builds the flow-mode simulator for a validated scenario.
func NewFleetSim(sc Scenario) (*FleetSim, error) {
	sc = sc.withDefaults()
	topo, err := sc.Topology.Build()
	if err != nil {
		return nil, err
	}
	wl, err := sc.Workload.Build(len(topo.HostIDs), sc.Seed)
	if err != nil {
		return nil, err
	}
	s := &FleetSim{
		eng:       NewEngine(),
		topo:      topo,
		sc:        sc,
		wl:        wl,
		linkDown:  make([]bool, len(topo.Links)),
		linkFault: make([]int, len(topo.Links)),
		swDown:    make([]bool, len(topo.Nodes)),
		swFault:   make([]int, len(topo.Nodes)),
		swIn:      make([]uint64, len(topo.Nodes)),
		swOut:     make([]uint64, len(topo.Nodes)),
		swDrop:    make([]uint64, len(topo.Nodes)),
		hostTx:    make([]uint64, len(topo.Nodes)),
		hostRx:    make([]uint64, len(topo.Nodes)),
		eventHash: fnvOffset,
		pathBuf:   make([]int, 0, 8),
	}
	for i := range s.linkFault {
		s.linkFault[i] = -1
	}
	for i := range s.swFault {
		s.swFault[i] = -1
	}
	s.res = Result{
		Scenario: sc.Name,
		Seed:     sc.Seed,
		Mode:     "flow",
		Switches: len(topo.SwitchIDs),
		Hosts:    len(topo.HostIDs),
		Links:    len(topo.Links),
	}
	return s, nil
}

// Run executes the scenario and returns its verdict.
func (s *FleetSim) Run(wallBudget time.Duration) (Result, error) {
	wallStart := time.Now() // wall budget and report timing only, never simulation time
	s.scheduleFaults()
	s.scheduleNextArrival()
	st, err := s.eng.Run(RunOpts{Until: s.sc.Horizon.Duration, WallBudget: wallBudget})
	if err != nil {
		return Result{}, err
	}
	s.finish(st, wallStart)
	return s.res, nil
}

// scheduleFaults registers every fault on the virtual timeline.
func (s *FleetSim) scheduleFaults() {
	s.downAt = make([]time.Duration, len(s.sc.Faults))
	s.reconvEnd = make([]time.Duration, len(s.sc.Faults))
	for i, f := range s.sc.Faults {
		i, f := i, f
		s.records = append(s.records, ConvergenceRecord{
			Kind: f.Kind, Node: f.Node, Peer: f.Peer, At: f.At,
		})
		s.eng.At(f.At.Duration, func() { s.applyFault(i, f) })
	}
}

func (s *FleetSim) applyFault(idx int, f FaultSpec) {
	now := s.eng.Elapsed()
	s.downAt[idx] = now
	s.reconvEnd[idx] = now + s.sc.Reconvergence.Duration
	s.eventHash = mix64(s.eventHash, uint64(now))
	s.eventHash = mix64(s.eventHash, uint64(idx)<<8|faultCode(f.Kind))
	switch f.Kind {
	case FaultLinkDown, FaultLinkUp:
		a, _ := s.topo.NodeByName(f.Node)
		b, _ := s.topo.NodeByName(f.Peer)
		l := s.topo.LinkBetween(a, b)
		if f.Kind == FaultLinkDown {
			s.linkDown[l] = true
			s.linkFault[l] = idx
		} else {
			s.linkDown[l] = false
			s.linkFault[l] = -1
		}
	case FaultSwitchDown, FaultSwitchUp:
		n, _ := s.topo.NodeByName(f.Node)
		if f.Kind == FaultSwitchDown {
			s.swDown[n] = true
			s.swFault[n] = idx
		} else {
			s.swDown[n] = false
			s.swFault[n] = -1
		}
	case FaultCtrlFailover:
		// PR 5's failover machinery: a new master takes over within the
		// reconvergence window; flows admitted meanwhile wait out the
		// setup delay but none are lost.
		if end := now + s.sc.Reconvergence.Duration; end > s.failoverEnd {
			s.failoverEnd = end
		}
	}
}

func faultCode(kind string) uint64 {
	switch kind {
	case FaultLinkDown:
		return 1
	case FaultLinkUp:
		return 2
	case FaultSwitchDown:
		return 3
	case FaultSwitchUp:
		return 4
	case FaultCtrlFailover:
		return 5
	}
	return 0
}

// scheduleNextArrival keeps exactly one pending workload arrival on
// the timer heap (pull model): the heap stays tiny no matter how many
// million arrivals the stream holds.
func (s *FleetSim) scheduleNextArrival() {
	a, ok := s.wl.Next()
	if !ok {
		return
	}
	s.eng.At(a.At, func() {
		s.arrive(a)
		s.scheduleNextArrival()
	})
}

// flowHash spreads a flow id into the ECMP hash space.
func (s *FleetSim) flowHash(id uint64) uint64 {
	return mix64(mix64(fnvOffset, uint64(s.sc.Seed)), id)
}

// arrive processes one flow arrival: route, account, attribute loss.
func (s *FleetSim) arrive(a fabric.FlowArrival) {
	now := s.eng.Elapsed()
	pkts := uint64(a.Packets)
	s.res.OfferedFlows++
	s.res.OfferedPackets += pkts

	src, dst := s.topo.HostIDs[a.Src], s.topo.HostIDs[a.Dst]
	s.hostTx[src]++
	h := s.flowHash(a.FlowID)

	outcome, pathLen := s.route(now, src, dst, h, a, pkts)

	s.eventHash = mix64(s.eventHash, uint64(now))
	s.eventHash = mix64(s.eventHash, uint64(a.FlowID))
	s.eventHash = mix64(s.eventHash, uint64(a.Src)<<32|uint64(uint32(a.Dst)))
	s.eventHash = mix64(s.eventHash, pkts<<16|uint64(pathLen)<<4|outcome)
}

// Outcome codes mixed into the event hash.
const (
	outDelivered = 1
	outRerouted  = 2
	outLost      = 3
)

// route walks the flow's path, charging switch counters hop by hop.
// Before the reconvergence deadline of the fault that downed an
// element, flows keep hitting their primary path and die there; after
// it, alternates are tried in deterministic hash order.
func (s *FleetSim) route(now time.Duration, src, dst int, h uint64, a fabric.FlowArrival, pkts uint64) (outcome uint64, pathLen int) {
	choices := s.topo.RouteChoices()
	for c := 0; ; c++ {
		path, ok := s.topo.RouteInto(s.pathBuf, src, dst, h+uint64(c))
		s.pathBuf = path[:0]
		if !ok {
			s.lose(now, -1, pkts)
			return outLost, 0
		}
		blockIdx, faultIdx := s.firstBlock(path)
		if blockIdx < 0 {
			s.deliver(path, a, pkts, now, c > 0)
			if c > 0 {
				return outRerouted, len(path)
			}
			return outDelivered, len(path)
		}
		// Charge the partial walk on the primary attempt only: the flow
		// physically entered those switches. Alternate attempts model
		// the converged control plane steering around the fault, so
		// nothing is charged for candidates never taken.
		if c == 0 {
			s.chargePartial(path, blockIdx, pkts)
			if faultIdx >= 0 && now < s.reconvEnd[faultIdx] {
				// Unconverged: the fabric still forwards into the hole.
				s.lose(now, faultIdx, pkts)
				return outLost, blockIdx
			}
		}
		if c+1 >= choices {
			s.lose(now, faultIdx, pkts)
			return outLost, blockIdx
		}
	}
}

// firstBlock returns the index of the first unreachable element along
// the path (the node a down link or switch prevents the flow from
// leaving), plus the responsible fault, or (-1, -1) when clear.
func (s *FleetSim) firstBlock(path []int) (int, int) {
	for i := 1; i < len(path); i++ {
		prev, n := path[i-1], path[i]
		if l := s.topo.LinkBetween(prev, n); l >= 0 && s.linkDown[l] {
			return i - 1, s.linkFault[l]
		}
		if s.swDown[n] {
			return i - 1, s.swFault[n]
		}
	}
	return -1, -1
}

// chargePartial books switch in/out up to the blocking element and a
// drop there, so per-switch conservation holds for lost flows too.
func (s *FleetSim) chargePartial(path []int, blockIdx int, pkts uint64) {
	for i := 1; i <= blockIdx; i++ {
		if i == blockIdx {
			// The flow reached path[blockIdx] but cannot leave it.
			if s.topo.Nodes[path[i]].Role != fabric.RoleHost {
				s.swIn[path[i]] += pkts
				s.swDrop[path[i]] += pkts
			}
			return
		}
		s.swIn[path[i]] += pkts
		s.swOut[path[i]] += pkts
	}
	// blockIdx == 0: the source host itself cannot transmit (its edge
	// link or edge switch is down); nothing entered the fabric.
}

// deliver books a successful end-to-end walk.
func (s *FleetSim) deliver(path []int, a fabric.FlowArrival, pkts uint64, now time.Duration, rerouted bool) {
	for i := 1; i < len(path)-1; i++ {
		s.swIn[path[i]] += pkts
		s.swOut[path[i]] += pkts
	}
	s.hostRx[path[len(path)-1]]++
	s.res.DeliveredFlows++
	s.res.DeliveredPackets += pkts
	s.res.DeliveredBytes += pkts * uint64(a.FrameSize)
	if rerouted {
		s.res.ReroutedFlows++
	}
	hops := uint64(len(path) - 1)
	s.hopSum += hops
	lat := time.Duration(hops) * s.sc.LinkLatency.Duration
	if now < s.failoverEnd {
		s.res.FailoverDelayed++
		lat += s.failoverEnd - now // wait out the new master's setup
	}
	if lat > s.res.MaxLatency.Duration {
		s.res.MaxLatency = Duration{lat}
	}
}

// lose books a lost flow against its fault's convergence record.
func (s *FleetSim) lose(now time.Duration, faultIdx int, pkts uint64) {
	s.res.LostFlows++
	s.res.LostPackets += pkts
	if faultIdx >= 0 {
		r := &s.records[faultIdx]
		r.FlowsLost++
		r.LastLossAt = Duration{now}
	}
}

// finish runs the conservation checks and seals the verdict.
func (s *FleetSim) finish(st RunStats, wallStart time.Time) {
	r := &s.res
	r.Events = st.Events
	r.VirtualEnd = Duration{st.VirtualEnd}
	if r.OfferedFlows > 0 {
		r.LossRate = float64(r.LostFlows) / float64(r.OfferedFlows)
	}
	if r.DeliveredFlows > 0 {
		r.MeanHops = float64(s.hopSum) / float64(r.DeliveredFlows)
	}
	for i := range s.records {
		if s.records[i].FlowsLost > 0 {
			s.records[i].Convergence = Duration{s.records[i].LastLossAt.Duration - s.records[i].At.Duration}
		}
	}
	r.Convergence = s.records

	r.CounterExact = true
	fail := func(format string, args ...any) {
		r.CounterExact = false
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	if r.OfferedFlows != r.DeliveredFlows+r.LostFlows {
		fail("flow conservation: offered %d != delivered %d + lost %d",
			r.OfferedFlows, r.DeliveredFlows, r.LostFlows)
	}
	if r.OfferedPackets != r.DeliveredPackets+r.LostPackets {
		fail("packet conservation: offered %d != delivered %d + lost %d",
			r.OfferedPackets, r.DeliveredPackets, r.LostPackets)
	}
	for _, id := range s.topo.SwitchIDs {
		if s.swIn[id] != s.swOut[id]+s.swDrop[id] {
			fail("switch %s: in %d != out %d + drop %d",
				s.topo.Nodes[id].Name, s.swIn[id], s.swOut[id], s.swDrop[id])
		}
	}
	var tx, rx uint64
	for _, id := range s.topo.HostIDs {
		tx += s.hostTx[id]
		rx += s.hostRx[id]
	}
	if tx != r.OfferedFlows || rx != r.DeliveredFlows {
		fail("host conservation: tx %d / rx %d vs offered %d / delivered %d",
			tx, rx, r.OfferedFlows, r.DeliveredFlows)
	}
	if len(s.sc.Faults) == 0 && r.LostFlows != 0 {
		fail("faultless run lost %d flows", r.LostFlows)
	}
	r.Pass = r.CounterExact
	r.EventHash = fmt.Sprintf("%016x", s.eventHash)
	r.WallMS = time.Since(wallStart).Milliseconds()
	r.Digest = r.digest()
}
