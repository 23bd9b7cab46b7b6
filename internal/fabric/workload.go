package fabric

// Statistical workload models for fleet-scale simulation. Where the
// Generator family (traffic.go) prebuilds wire frames for datapath
// benchmark loops, these models emit abstract flow arrivals on a
// virtual timeline — who talks to whom, when, how much — for the
// flow-level fleet simulator and for driving packet-level scenarios.
// Every model is a deterministic pull stream: same parameters and
// seed, same arrival sequence, byte for byte.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// FlowArrival is one flow entering the fabric at virtual offset At
// from run start. Src and Dst index the topology's HostIDs slice.
type FlowArrival struct {
	At        time.Duration
	Src, Dst  int
	FrameSize int
	Packets   int
	FlowID    uint64
}

// Workload is a pull stream of flow arrivals in non-decreasing At
// order. ok=false ends the stream.
type Workload interface {
	Next() (arrival FlowArrival, ok bool)
}

// pickPair draws a src/dst host pair, src != dst (needs nHosts >= 2).
func pickPair(rng *rand.Rand, nHosts int) (int, int) {
	src := rng.Intn(nHosts)
	dst := rng.Intn(nHosts - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// pickSize draws a frame size from the IMIX ladder.
func pickSize(rng *rand.Rand) int {
	return IMIXSizes[rng.Intn(len(IMIXSizes))]
}

// PoissonWorkload emits flows as a homogeneous Poisson process:
// exponential inter-arrivals at a fixed rate, uniform host pairs, IMIX
// frame sizes, geometric-ish flow lengths around MeanPackets.
type PoissonWorkload struct {
	rng         *rand.Rand
	nHosts      int
	interval    float64 // mean inter-arrival, seconds
	meanPackets int
	remaining   int
	now         float64 // seconds
	nextID      uint64
}

// NewPoissonWorkload builds a Poisson arrival stream of total flows at
// ratePerSec across nHosts hosts.
func NewPoissonWorkload(nHosts, flows int, ratePerSec float64, meanPackets int, seed int64) (*PoissonWorkload, error) {
	if nHosts < 2 {
		return nil, fmt.Errorf("fabric: poisson workload needs >= 2 hosts (got %d)", nHosts)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("fabric: poisson workload rate must be > 0 (got %g)", ratePerSec)
	}
	if meanPackets < 1 {
		meanPackets = 8
	}
	return &PoissonWorkload{
		rng:         rand.New(rand.NewSource(seed)),
		nHosts:      nHosts,
		interval:    1 / ratePerSec,
		meanPackets: meanPackets,
		remaining:   flows,
	}, nil
}

// Next implements Workload.
func (w *PoissonWorkload) Next() (FlowArrival, bool) {
	if w.remaining <= 0 {
		return FlowArrival{}, false
	}
	w.remaining--
	w.now += w.rng.ExpFloat64() * w.interval
	src, dst := pickPair(w.rng, w.nHosts)
	a := FlowArrival{
		At:        time.Duration(w.now * float64(time.Second)),
		Src:       src,
		Dst:       dst,
		FrameSize: pickSize(w.rng),
		Packets:   1 + w.rng.Intn(2*w.meanPackets-1),
		FlowID:    w.nextID,
	}
	w.nextID++
	return a, true
}

// DiurnalWorkload modulates a Poisson process with a sinusoidal daily
// cycle — the nonhomogeneous rate λ(t) = base·(1 + amp·sin(2πt/period))
// sampled by thinning, so peak-hour load is (1+amp)/(1-amp) times the
// trough. amp in [0,1).
type DiurnalWorkload struct {
	rng         *rand.Rand
	nHosts      int
	baseRate    float64 // flows/sec at the mean
	amp         float64
	period      float64 // seconds
	meanPackets int
	remaining   int
	now         float64
	nextID      uint64
}

// NewDiurnalWorkload builds a diurnally-modulated arrival stream.
func NewDiurnalWorkload(nHosts, flows int, baseRate, amp float64, period time.Duration, meanPackets int, seed int64) (*DiurnalWorkload, error) {
	if nHosts < 2 {
		return nil, fmt.Errorf("fabric: diurnal workload needs >= 2 hosts (got %d)", nHosts)
	}
	if baseRate <= 0 || period <= 0 {
		return nil, fmt.Errorf("fabric: diurnal workload needs baseRate and period > 0")
	}
	if amp < 0 || amp >= 1 {
		return nil, fmt.Errorf("fabric: diurnal amplitude %g outside [0,1)", amp)
	}
	if meanPackets < 1 {
		meanPackets = 8
	}
	return &DiurnalWorkload{
		rng:         rand.New(rand.NewSource(seed)),
		nHosts:      nHosts,
		baseRate:    baseRate,
		amp:         amp,
		period:      period.Seconds(),
		meanPackets: meanPackets,
		remaining:   flows,
	}, nil
}

// Next implements Workload via Lewis-Shedler thinning: candidate
// arrivals at the peak rate λmax, each kept with probability
// λ(t)/λmax.
func (w *DiurnalWorkload) Next() (FlowArrival, bool) {
	if w.remaining <= 0 {
		return FlowArrival{}, false
	}
	lambdaMax := w.baseRate * (1 + w.amp)
	for {
		w.now += w.rng.ExpFloat64() / lambdaMax
		lambda := w.baseRate * (1 + w.amp*math.Sin(2*math.Pi*w.now/w.period))
		if w.rng.Float64()*lambdaMax <= lambda {
			break
		}
	}
	w.remaining--
	src, dst := pickPair(w.rng, w.nHosts)
	a := FlowArrival{
		At:        time.Duration(w.now * float64(time.Second)),
		Src:       src,
		Dst:       dst,
		FrameSize: pickSize(w.rng),
		Packets:   1 + w.rng.Intn(2*w.meanPackets-1),
		FlowID:    w.nextID,
	}
	w.nextID++
	return a, true
}

// HeavyHitterWorkload is the arrival-stream analogue of MixGenerator:
// a few long-lived elephant pairs carry packetShare of all packets
// while a churning window of short-lived mouse pairs supplies the
// rest. Mouse pairs slide through an 8x pool exactly like
// MixGenerator's frame window, so flow churn — the property HARMLESS
// control planes are sized against — shows up on the virtual timeline.
type HeavyHitterWorkload struct {
	rng          *rand.Rand
	nHosts       int
	interval     float64
	elephants    []FlowArrival // template pairs, reused per burst
	elephantProb float64
	elephantPkts int
	mousePkts    int
	mousePairs   [][2]int
	window       int
	start        int
	perWindow    int
	emitted      int
	churned      int
	remaining    int
	now          float64
	nextID       uint64
}

// NewHeavyHitterWorkload builds a heavy-hitter mix of `elephants`
// persistent pairs taking packetShare of packets over `mice`
// concurrently-active churning pairs, with Poisson arrivals at
// ratePerSec. Elephant arrivals carry elephantPkts packets each, mice
// mousePkts; the per-arrival elephant probability is solved from the
// share equation p·Pe/(p·Pe+(1-p)·Pm) = share.
func NewHeavyHitterWorkload(nHosts, flows int, ratePerSec float64, elephants, mice int,
	packetShare float64, elephantPkts, mousePkts, mouseLife int, seed int64) (*HeavyHitterWorkload, error) {
	if nHosts < 2 {
		return nil, fmt.Errorf("fabric: heavy-hitter workload needs >= 2 hosts (got %d)", nHosts)
	}
	if ratePerSec <= 0 {
		return nil, fmt.Errorf("fabric: heavy-hitter workload rate must be > 0")
	}
	if elephants < 1 {
		elephants = 1
	}
	if mice < 1 {
		mice = 1
	}
	if packetShare <= 0 || packetShare >= 1 {
		packetShare = 0.8
	}
	if elephantPkts < 1 {
		elephantPkts = 128
	}
	if mousePkts < 1 {
		mousePkts = 4
	}
	if mouseLife < 1 {
		mouseLife = 16
	}
	w := &HeavyHitterWorkload{
		rng:          rand.New(rand.NewSource(seed)),
		nHosts:       nHosts,
		interval:     1 / ratePerSec,
		elephantPkts: elephantPkts,
		mousePkts:    mousePkts,
		window:       mice,
		perWindow:    mouseLife * mice,
		remaining:    flows,
	}
	pe, pm := float64(elephantPkts), float64(mousePkts)
	w.elephantProb = packetShare * pm / (pe*(1-packetShare) + packetShare*pm)
	for i := 0; i < elephants; i++ {
		src, dst := pickPair(w.rng, nHosts)
		w.elephants = append(w.elephants, FlowArrival{
			Src: src, Dst: dst, FrameSize: 1500, Packets: elephantPkts, FlowID: uint64(i),
		})
	}
	w.nextID = uint64(elephants)
	pool := make([][2]int, 8*mice)
	for i := range pool {
		src, dst := pickPair(w.rng, nHosts)
		pool[i] = [2]int{src, dst}
	}
	w.mousePairs = pool
	return w, nil
}

// Next implements Workload. Elephant arrivals reuse their flow id
// (re-offered traffic on a persistent pair); mouse arrivals get fresh
// ids, and the active pair window slides after perWindow mouse
// arrivals.
func (w *HeavyHitterWorkload) Next() (FlowArrival, bool) {
	if w.remaining <= 0 {
		return FlowArrival{}, false
	}
	w.remaining--
	w.now += w.rng.ExpFloat64() * w.interval
	at := time.Duration(w.now * float64(time.Second))
	if w.rng.Float64() < w.elephantProb {
		a := w.elephants[w.rng.Intn(len(w.elephants))]
		a.At = at
		return a, true
	}
	w.emitted++
	if w.emitted >= w.perWindow {
		w.emitted = 0
		w.start = (w.start + w.window) % len(w.mousePairs)
		w.churned += w.window
	}
	pair := w.mousePairs[(w.start+w.rng.Intn(w.window))%len(w.mousePairs)]
	a := FlowArrival{
		At:        at,
		Src:       pair[0],
		Dst:       pair[1],
		FrameSize: pickSize(w.rng),
		Packets:   w.mousePkts,
		FlowID:    w.nextID,
	}
	w.nextID++
	return a, true
}

// IncastWorkload emits periodic incast bursts: every period, fanIn
// distinct sources fire one flow each at a single victim host within a
// burstSpread window — the partition/aggregate pattern that stresses
// a ToR's downlink.
type IncastWorkload struct {
	rng       *rand.Rand
	nHosts    int
	fanIn     int
	period    time.Duration
	spread    time.Duration
	packets   int
	remaining int // bursts
	burst     int
	inBurst   int
	victim    int
	srcs      []int
	jitters   []time.Duration
	nextID    uint64
}

// NewIncastWorkload builds `bursts` incast events of fanIn senders
// each, one event per period, senders spread across burstSpread.
func NewIncastWorkload(nHosts, bursts, fanIn int, period, burstSpread time.Duration, packets int, seed int64) (*IncastWorkload, error) {
	if nHosts < 2 {
		return nil, fmt.Errorf("fabric: incast workload needs >= 2 hosts (got %d)", nHosts)
	}
	if fanIn < 1 || fanIn >= nHosts {
		return nil, fmt.Errorf("fabric: incast fan-in %d must be in [1, nHosts)", fanIn)
	}
	if period <= 0 {
		return nil, fmt.Errorf("fabric: incast period must be > 0")
	}
	if burstSpread < 0 || burstSpread >= period {
		burstSpread = period / 10
	}
	if packets < 1 {
		packets = 4
	}
	return &IncastWorkload{
		rng:       rand.New(rand.NewSource(seed)),
		nHosts:    nHosts,
		fanIn:     fanIn,
		period:    period,
		spread:    burstSpread,
		packets:   packets,
		remaining: bursts,
		srcs:      make([]int, 0, fanIn),
	}, nil
}

// Next implements Workload. Arrivals within one burst share a victim;
// each sender is distinct. Per-burst jitters are drawn up front and
// sorted so the stream keeps its non-decreasing At contract.
func (w *IncastWorkload) Next() (FlowArrival, bool) {
	if w.inBurst == 0 {
		if w.remaining <= 0 {
			return FlowArrival{}, false
		}
		w.remaining--
		w.victim = w.rng.Intn(w.nHosts)
		w.srcs = w.srcs[:0]
		used := map[int]bool{w.victim: true}
		for len(w.srcs) < w.fanIn {
			s := w.rng.Intn(w.nHosts)
			if !used[s] {
				used[s] = true
				w.srcs = append(w.srcs, s)
			}
		}
		w.jitters = w.jitters[:0]
		for i := 0; i < w.fanIn; i++ {
			var j time.Duration
			if w.spread > 0 {
				j = time.Duration(w.rng.Int63n(int64(w.spread)))
			}
			w.jitters = append(w.jitters, j)
		}
		sort.Slice(w.jitters, func(i, j int) bool { return w.jitters[i] < w.jitters[j] })
		w.inBurst = w.fanIn
	}
	i := w.fanIn - w.inBurst
	w.inBurst--
	base := time.Duration(w.burst) * w.period
	if w.inBurst == 0 {
		w.burst++
	}
	a := FlowArrival{
		At:        base + w.jitters[i],
		Src:       w.srcs[i],
		Dst:       w.victim,
		FrameSize: 1500,
		Packets:   w.packets,
		FlowID:    w.nextID,
	}
	w.nextID++
	return a, true
}
