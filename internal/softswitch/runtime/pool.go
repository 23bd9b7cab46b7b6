// Package runtime is the poll-mode worker runtime of the softswitch:
// N run-to-completion workers, each owning one RX ring, drain bursts of
// frames into Switch.ReceiveBatch — the OVS-PMD-style answer to "one
// caller thread, one core of throughput".
//
// # Flow sharding (RSS)
//
// Ingress frames are dispatched to workers by their flow's hash
// (pkt.FlatKey.FlowSum: the packed key under pkt.FlowMask), so every
// frame of a given flow lands on the SAME worker, always:
//
//   - per-flow frame order is preserved (one worker, one FIFO ring,
//     run-to-completion draining — no cross-worker reordering within a
//     flow);
//   - the flow's telemetry record and flow-table entry counters stay
//     hot in one core's cache.
//
// Frames whose key cannot be extracted (malformed) are sharded by
// ingress port instead, so they still traverse the datapath and are
// accounted as drops there rather than vanishing at dispatch.
//
// # Ownership rules
//
// The dataplane package rules apply end to end: Dispatch takes
// ownership of each frame; the worker's ring holds it until the worker
// pops it into its private burst vector and hands it to the switch.
// Each RX ring has exactly one consumer (its worker) while the pool
// runs — producers are many (Dispatch is concurrency-safe), the
// consumer is one, and Stop takes over as the sole consumer only after
// every worker has exited.
//
// # Per-worker statistics
//
// Workers tally frames, bytes and bursts into counters in their own
// worker struct, on a cache line no producer writes, so the hot path
// never touches a contended atomic. The counts are exact, not sampled:
// every frame is counted by exactly one worker, so the aggregate
// Stats() equals the sum a single contended counter would have seen.
// These are admission-side counts, what the pool alone knows; what the
// datapath decided for a frame (cache hit, walk, drop) is the switch's
// to report (Switch.CacheStats, Switch.Drops).
//
// # Telemetry
//
// The pool contributes the runtime halves of the telemetry contract for
// whatever table the switch has attached (Switch.Telemetry), on the
// switch's own clock (Switch.Clock): workers run timer sweeps when they
// go idle — so flows keep expiring while the datapath is quiet — and
// Stop flushes every remaining record after the final drain, so a
// stopped pool leaves no unexported counts behind. Size the table with
// Shards == Workers: the RSS flow pinning then makes every shard
// effectively single-writer.
//
// # Idle backoff
//
// An idle worker spins (spinPolls empty polls), then yields the OS
// thread (yieldPolls polls with a Gosched between), then parks on a
// notification channel. A producer pushing to a parked worker's ring
// wakes it; the parking sequence re-checks the ring after publishing
// the parked flag, so a wakeup can never be lost (both sides use
// sequentially consistent atomics).
package runtime

import (
	stdruntime "runtime"
	"sync"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// cacheLine pads a group of counters onto its own cache line.
type cacheLine [64]byte

const (
	// burst bounds how many frames one worker pops off its ring before
	// it runs them through the switch.
	burst = 256
	// spinPolls is how many consecutive empty polls a worker busy-spins
	// before starting to yield.
	spinPolls = 128
	// yieldPolls is how many further empty polls the worker yields the
	// OS thread between, before parking on a notification.
	yieldPolls = 32
)

// Config parameterizes a Pool. The zero value picks sensible defaults.
type Config struct {
	// Workers is the number of poll-mode workers (default GOMAXPROCS).
	Workers int
	// RingSize is the per-worker RX ring capacity in frames (default
	// 4096, rounded up to a power of two by dataplane.NewRing).
	RingSize int
	// Observer, when non-nil, is called by each worker with its id and
	// each run of frames sharing an in-port BEFORE the run enters the
	// switch (frames are still intact). Test hook — e.g. the
	// flow-affinity property test; leave nil in production, it is on
	// the hot path.
	Observer func(worker int, inPort uint32, frames [][]byte)
}

// PoolStats is a point-in-time snapshot of pool (or single-worker)
// statistics. Frames/Bytes count what entered the switch and Batches
// the bursts it entered in; RxDrops counts frames rejected at Dispatch
// because the target worker's ring was full (tail drop, frame never
// entered the switch).
type PoolStats struct {
	Frames  uint64
	Bytes   uint64
	Batches uint64
	RxDrops uint64
}

// worker is one run-to-completion poll loop, the RX ring it owns and
// its statistics. frames/ports are the burst being drained: parallel,
// burst long, reused for every burst.
type worker struct {
	id     int
	ring   *dataplane.Ring
	parked atomic.Bool
	wake   chan struct{}
	frames [][]byte
	ports  []uint32

	// Written by the producers that dispatch to this worker, on a line
	// of their own, away from the fields every producer reads.
	_        cacheLine
	accepted stats.Counter // frames admitted to the ring
	rxDrops  stats.Counter
	// Written by the worker alone.
	_        cacheLine
	nFrames  stats.Counter
	nBytes   stats.Counter
	nBatches stats.Counter
	_        cacheLine
}

// Pool runs N poll-mode workers over one switch.
type Pool struct {
	sw       *softswitch.Switch
	observer func(worker int, inPort uint32, frames [][]byte)
	workers  []*worker

	stopping atomic.Bool
	stopC    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New creates a pool of poll-mode workers over sw. Call Start to spawn
// the workers and Stop to drain and join them.
func New(sw *softswitch.Switch, cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = stdruntime.GOMAXPROCS(0)
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 4096
	}
	p := &Pool{
		sw:       sw,
		observer: cfg.Observer,
		stopC:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		p.workers = append(p.workers, &worker{
			id:     i,
			ring:   dataplane.NewRing(cfg.RingSize),
			wake:   make(chan struct{}, 1),
			frames: make([][]byte, burst),
			ports:  make([]uint32, burst),
		})
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// workerFor selects the worker a frame belongs to: sharding by its
// flow's hash (pkt.FlatKey.FlowSum) for parsable frames — flow affinity,
// and the hash the telemetry table shards its records by — and by
// ingress port for the malformed rest.
func (p *Pool) workerFor(inPort uint32, frame []byte) *worker {
	if len(p.workers) == 1 {
		return p.workers[0]
	}
	var flat pkt.FlatKey
	if pkt.ExtractFlat(frame, inPort, &flat) == nil {
		return p.workers[flat.FlowSum()%uint64(len(p.workers))]
	}
	return p.workers[int(inPort)%len(p.workers)]
}

// Dispatch hands one frame arriving on inPort to its flow's worker,
// taking ownership of the frame. It never blocks: when the worker's
// ring is full — or the pool is stopping — the frame is tail-dropped
// (counted in RxDrops) and false is returned; ownership of a rejected
// frame stays with the caller, exactly like dataplane.Ring.Push. Safe
// for any number of concurrent producers.
func (p *Pool) Dispatch(inPort uint32, frame []byte) bool {
	w := p.workerFor(inPort, frame)
	if p.stopping.Load() || !w.ring.PushFrame(frame, inPort) {
		w.rxDrops.Inc()
		return false
	}
	w.accepted.Inc()
	p.wakeWorker(w)
	return true
}

// DispatchBatch dispatches a frame vector arriving on inPort,
// returning how many frames were admitted (the rest tail-dropped on
// full rings). Ownership of each admitted frame transfers to the pool;
// the vector itself is only borrowed, per the dataplane rules.
func (p *Pool) DispatchBatch(inPort uint32, frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if p.Dispatch(inPort, f) {
			n++
		}
	}
	return n
}

// wakeWorker unparks w if it is parked. The parked flag is published
// before the worker's final ring re-check (seq-cst), so a producer
// that pushed after that re-check necessarily observes parked==true.
func (p *Pool) wakeWorker(w *worker) {
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default: // a wakeup is already pending
		}
	}
}

// Start spawns the workers. Call it once, before any Dispatch traffic
// that should be processed promptly (frames dispatched before Start
// simply wait in the rings).
func (p *Pool) Start() {
	for _, w := range p.workers {
		p.wg.Add(1)
		go p.run(w)
	}
}

// Stop drains and joins the workers: every frame admitted by Dispatch
// before Stop returns is processed through the switch. Workers empty
// their rings before exiting; Stop then keeps sweeping until the
// processed count has caught up with the admitted count AND every
// ring is empty, so a Dispatch that raced past the stopping check and
// pushed after a worker's final poll is still drained. Dispatch calls
// that begin after Stop has are tail-dropped; a call already past the
// stopping check can in principle land its push after the final sweep
// (a descheduling-width window) — producers that need the drain
// guarantee unconditionally should quiesce before calling Stop. Stop
// is idempotent.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() {
		p.stopping.Store(true)
		close(p.stopC)
		p.wg.Wait()
		for {
			for _, w := range p.workers {
				for p.drain(w) {
				}
			}
			// Both checks are needed: a racing Dispatch publishes the
			// frame (ring non-empty) before it bumps `accepted`, so
			// either the counters disagree or the ring shows the frame.
			if p.Stats().Frames >= p.accepted() && p.ringsEmpty() {
				// Every admitted frame has been observed; flush the
				// remaining telemetry records so exported totals catch
				// up with the datapath counters before Stop returns.
				if t := p.sw.Telemetry(); t != nil {
					t.FlushAll(p.sw.Clock().Now().UnixNano())
				}
				return
			}
			stdruntime.Gosched()
		}
	})
}

// ringsEmpty reports whether every worker ring is drained.
func (p *Pool) ringsEmpty() bool {
	for _, w := range p.workers {
		if w.ring.Len() > 0 {
			return false
		}
	}
	return true
}

// Drain blocks until every frame admitted so far has been processed
// through the switch. Meaningful once the producers have quiesced (a
// concurrent Dispatch can admit new frames while Drain returns).
func (p *Pool) Drain() {
	for p.Stats().Frames < p.accepted() {
		stdruntime.Gosched()
	}
}

// run is one worker's poll loop: drain a burst, run it to completion
// through the switch, repeat; back off spin -> yield -> park when the
// ring stays empty.
func (p *Pool) run(w *worker) {
	defer p.wg.Done()
	idle := 0
	for {
		if p.drain(w) {
			idle = 0
			continue
		}
		if p.stopping.Load() {
			return // ring empty and stopping: this worker is drained
		}
		idle++
		switch {
		case idle <= spinPolls:
			// Busy poll: the cheapest reaction to a burst gap.
		case idle <= spinPolls+yieldPolls:
			stdruntime.Gosched()
		default:
			// About to park: run the telemetry timer sweep first. A
			// loaded worker sweeps on its batch boundaries; an idle one
			// would otherwise never expire its flows. The sweep is
			// mutex-guarded per shard, so sweeping another worker's
			// shard here is merely redundant, never racy.
			if t := p.sw.Telemetry(); t != nil {
				t.Sweep(p.sw.Clock().Now().UnixNano())
			}
			// Park. Publish the flag first, then re-check the ring: a
			// producer that pushed after our empty poll must now see
			// parked==true and send the wakeup (seq-cst total order).
			w.parked.Store(true)
			if w.ring.Len() > 0 || p.stopping.Load() {
				w.parked.Store(false)
				idle = 0
				continue
			}
			select {
			case <-w.wake:
			case <-p.stopC:
			}
			w.parked.Store(false)
			idle = 0
		}
	}
}

// drain pops up to a burst of (frame, in-port) pairs off w's ring,
// hands each run of equal in-ports to Switch.ReceiveBatch — a burst off
// one port, which is every burst a deployment produces, keeps the full
// amortization — and tallies the burst on the worker's counters. It
// reports whether the ring held anything.
func (p *Pool) drain(w *worker) bool {
	// Size the burst as it is popped: frame ownership (and possibly the
	// bytes themselves) transfer to the switch.
	n, nbytes := 0, uint64(0)
	for n < burst {
		f, port, ok := w.ring.PopFrame()
		if !ok {
			break
		}
		w.frames[n], w.ports[n] = f, port
		nbytes += uint64(len(f))
		n++
	}
	if n == 0 {
		return false
	}
	frames, ports := w.frames[:n], w.ports[:n]
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && ports[hi] == ports[lo] {
			hi++
		}
		if p.observer != nil {
			p.observer(w.id, ports[lo], frames[lo:hi])
		}
		p.sw.ReceiveBatch(ports[lo], frames[lo:hi])
		lo = hi
	}
	clear(frames) // drop frame references: the vector outlives the burst
	w.nFrames.Add(uint64(n))
	w.nBytes.Add(nbytes)
	w.nBatches.Inc()
	return true
}

// WorkerStats snapshots one worker's counters.
func (p *Pool) WorkerStats(i int) PoolStats {
	w := p.workers[i]
	return PoolStats{
		Frames:  w.nFrames.Load(),
		Bytes:   w.nBytes.Load(),
		Batches: w.nBatches.Load(),
		RxDrops: w.rxDrops.Load(),
	}
}

// Stats snapshots the aggregate over all workers.
func (p *Pool) Stats() PoolStats {
	var s PoolStats
	for i := range p.workers {
		ws := p.WorkerStats(i)
		s.Frames += ws.Frames
		s.Bytes += ws.Bytes
		s.Batches += ws.Batches
		s.RxDrops += ws.RxDrops
	}
	return s
}

// accepted sums the frames admitted to the rings so far.
func (p *Pool) accepted() uint64 {
	var n uint64
	for _, w := range p.workers {
		n += w.accepted.Load()
	}
	return n
}
