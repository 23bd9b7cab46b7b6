// Package runtime is the poll-mode worker runtime of the softswitch:
// N run-to-completion workers, each owning one RX ring, drain frame
// batches through Switch.ReceiveMixedBatch — the OVS-PMD-style answer
// to "one caller thread, one core of throughput".
//
// # Flow sharding (RSS)
//
// Ingress frames are dispatched to workers by pkt.Key.Hash, so every
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
// drains it into its private dataplane.Batch and hands it to the
// switch. Each RX ring has exactly one consumer (its worker) while the
// pool runs — producers are many (Dispatch is concurrency-safe), the
// consumer is one, and Stop takes over as the sole consumer only after
// every worker has exited.
//
// # Per-worker statistics
//
// Workers tally frames, bytes, batches and verdicts into per-worker
// shards of stats.ShardedCounter — cache-line-padded, written only by
// their owning worker — so the hot path never touches a contended
// atomic. The shards are exact, not sampled: every frame is counted on
// exactly one shard (its worker's), so the aggregate Stats() equals
// the sum a single contended counter would have seen.
//
// # Idle backoff
//
// An idle worker spins (SpinPolls empty polls), then yields the OS
// thread (YieldPolls polls with a Gosched between), then parks on a
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
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	"github.com/harmless-sdn/harmless/internal/stats"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// Config parameterizes a Pool. The zero value picks sensible defaults.
type Config struct {
	// Workers is the number of poll-mode workers (default GOMAXPROCS).
	Workers int
	// RingSize is the per-worker RX ring capacity in frames (default
	// 4096, rounded up to a power of two by dataplane.NewRing).
	RingSize int
	// Burst bounds how many frames one worker drains into a single
	// ReceiveMixedBatch call (default 256).
	Burst int
	// SpinPolls is how many consecutive empty polls a worker busy-spins
	// before starting to yield (default 128).
	SpinPolls int
	// YieldPolls is how many further empty polls the worker yields the
	// OS thread between, before parking on a notification (default 32).
	YieldPolls int
	// Observer, when non-nil, is called by each worker with its id and
	// the drained batch BEFORE the batch enters the switch (frames are
	// still intact). Test hook — e.g. the flow-affinity property test;
	// leave nil in production, it is on the hot path.
	Observer func(worker int, b *dataplane.Batch)
	// Telemetry, when non-nil, is the flow-telemetry table attached to
	// the switch this pool drives (also SetTelemetry it on the switch;
	// the pool does not do that). The pool contributes the runtime
	// halves of the telemetry contract: workers run timer sweeps when
	// they go idle — so flows keep expiring while the datapath is
	// quiet — and Stop flushes every remaining record after the final
	// drain, so a stopped pool leaves no unexported counts behind.
	// Size the table with Shards == Workers: the RSS flow pinning then
	// makes every shard effectively single-writer.
	Telemetry *telemetry.Table
	// Clock supplies the timestamps of the telemetry sweeps and the
	// final flush (default: the wall clock). Inject a virtual clock to
	// run the pool's idle-aging timers on simulated time.
	Clock netem.Clock
}

// PoolStats is a point-in-time snapshot of pool (or single-worker)
// statistics. Frames/Bytes/Batches count what entered the switch;
// CacheHits/SlowPath/Dropped split Frames by datapath verdict; RxDrops
// counts frames rejected at Dispatch because the target worker's ring
// was full (tail drop, frame never entered the switch).
type PoolStats struct {
	Frames    uint64
	Bytes     uint64
	Batches   uint64
	CacheHits uint64
	SlowPath  uint64
	Dropped   uint64
	RxDrops   uint64
}

// worker is one run-to-completion poll loop and the RX ring it owns.
type worker struct {
	id     int
	ring   *dataplane.Ring
	parked atomic.Bool
	wake   chan struct{}
	batch  dataplane.Batch
}

// Pool runs N poll-mode workers over one switch.
type Pool struct {
	sw      *softswitch.Switch
	cfg     Config
	workers []*worker

	// Per-worker stats shards; shard i is written by worker i only
	// (RxDrops and accepted by the producer that dispatched to worker
	// i, which contends only among producers of one worker's overflow).
	accepted *stats.ShardedCounter // frames admitted to a ring
	frames   *stats.ShardedCounter
	bytes    *stats.ShardedCounter
	batches  *stats.ShardedCounter
	hits     *stats.ShardedCounter
	slow     *stats.ShardedCounter
	dropped  *stats.ShardedCounter
	rxDrops  *stats.ShardedCounter

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
	if cfg.Burst <= 0 {
		cfg.Burst = 256
	}
	if cfg.SpinPolls <= 0 {
		cfg.SpinPolls = 128
	}
	if cfg.YieldPolls <= 0 {
		cfg.YieldPolls = 32
	}
	if cfg.Clock == nil {
		cfg.Clock = netem.RealClock{}
	}
	p := &Pool{
		sw:       sw,
		cfg:      cfg,
		accepted: stats.NewShardedCounter(cfg.Workers),
		frames:   stats.NewShardedCounter(cfg.Workers),
		bytes:    stats.NewShardedCounter(cfg.Workers),
		batches:  stats.NewShardedCounter(cfg.Workers),
		hits:     stats.NewShardedCounter(cfg.Workers),
		slow:     stats.NewShardedCounter(cfg.Workers),
		dropped:  stats.NewShardedCounter(cfg.Workers),
		rxDrops:  stats.NewShardedCounter(cfg.Workers),
		stopC:    make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		p.workers = append(p.workers, &worker{
			id:   i,
			ring: dataplane.NewRing(cfg.RingSize),
			wake: make(chan struct{}, 1),
		})
	}
	return p
}

// Workers returns the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Switch returns the switch the pool drives.
func (p *Pool) Switch() *softswitch.Switch { return p.sw }

// workerFor selects the worker a frame belongs to: Key.Hash sharding
// for extractable frames (flow affinity), ingress-port sharding for
// the malformed rest.
func (p *Pool) workerFor(inPort uint32, frame []byte) *worker {
	if len(p.workers) == 1 {
		return p.workers[0]
	}
	var key pkt.Key
	if pkt.ExtractKey(frame, inPort, &key) == nil {
		return p.workers[key.Hash()%uint64(len(p.workers))]
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
	if p.stopping.Load() {
		p.rxDrops.Shard(w.id).Inc()
		return false
	}
	if !w.ring.PushFrame(frame, inPort) {
		p.rxDrops.Shard(w.id).Inc()
		return false
	}
	p.accepted.Shard(w.id).Inc()
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
				for w.ring.DrainBatch(&w.batch, p.cfg.Burst) > 0 {
					p.process(w)
				}
			}
			// Both checks are needed: a racing Dispatch publishes the
			// frame (ring non-empty) before it bumps `accepted`, so
			// either the counters disagree or the ring shows the frame.
			if p.frames.Load() >= p.accepted.Load() && p.ringsEmpty() {
				// Every admitted frame has been observed; flush the
				// remaining telemetry records so exported totals catch
				// up with the datapath counters before Stop returns.
				if t := p.cfg.Telemetry; t != nil {
					t.FlushAll(p.cfg.Clock.Now().UnixNano())
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
	for p.frames.Load() < p.accepted.Load() {
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
		if w.ring.DrainBatch(&w.batch, p.cfg.Burst) > 0 {
			idle = 0
			p.process(w)
			continue
		}
		if p.stopping.Load() {
			return // ring empty and stopping: this worker is drained
		}
		idle++
		switch {
		case idle <= p.cfg.SpinPolls:
			// Busy poll: the cheapest reaction to a burst gap.
		case idle <= p.cfg.SpinPolls+p.cfg.YieldPolls:
			stdruntime.Gosched()
		default:
			// About to park: run the telemetry timer sweep first. A
			// loaded worker sweeps on its batch boundaries; an idle one
			// would otherwise never expire its flows. The sweep is
			// mutex-guarded per shard, so sweeping another worker's
			// shard here is merely redundant, never racy.
			if t := p.cfg.Telemetry; t != nil {
				t.Sweep(p.cfg.Clock.Now().UnixNano())
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

// process runs the worker's drained batch through the switch and
// tallies the outcome on the worker's stats shards.
func (p *Pool) process(w *worker) {
	b := &w.batch
	if obs := p.cfg.Observer; obs != nil {
		obs(w.id, b)
	}
	// Size the batch before dispatch: frame ownership (and possibly the
	// bytes themselves) transfer to the switch; Meta stays ours.
	nframes := uint64(b.Len())
	nbytes := uint64(b.Bytes())
	p.sw.ReceiveMixedBatch(b)
	var hits, slow, dropped uint64
	for i := range b.Meta {
		switch b.Meta[i].Verdict {
		case dataplane.VerdictCacheHit:
			hits++
		case dataplane.VerdictSlowPath:
			slow++
		case dataplane.VerdictDropped:
			dropped++
		}
	}
	b.Reset()
	id := w.id
	p.frames.Shard(id).Add(nframes)
	p.bytes.Shard(id).Add(nbytes)
	p.batches.Shard(id).Inc()
	if hits > 0 {
		p.hits.Shard(id).Add(hits)
	}
	if slow > 0 {
		p.slow.Shard(id).Add(slow)
	}
	if dropped > 0 {
		p.dropped.Shard(id).Add(dropped)
	}
}

// WorkerStats snapshots one worker's shard.
func (p *Pool) WorkerStats(i int) PoolStats {
	return PoolStats{
		Frames:    p.frames.Shard(i).Load(),
		Bytes:     p.bytes.Shard(i).Load(),
		Batches:   p.batches.Shard(i).Load(),
		CacheHits: p.hits.Shard(i).Load(),
		SlowPath:  p.slow.Shard(i).Load(),
		Dropped:   p.dropped.Shard(i).Load(),
		RxDrops:   p.rxDrops.Shard(i).Load(),
	}
}

// Stats snapshots the aggregate over all workers.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Frames:    p.frames.Load(),
		Bytes:     p.bytes.Load(),
		Batches:   p.batches.Load(),
		CacheHits: p.hits.Load(),
		SlowPath:  p.slow.Load(),
		Dropped:   p.dropped.Load(),
		RxDrops:   p.rxDrops.Load(),
	}
}
