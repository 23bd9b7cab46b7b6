package softswitch

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Batch dispatch: the amortized entry point of the datapath.
//
// ReceiveBatch runs a frame vector through the switch paying the
// per-packet costs once per batch instead of once per frame:
//
//   - every frame is parsed once, straight into its packed key;
//   - the flow cache is probed class by class, the keys grouped by
//     shard so each shard read-lock is taken once per batch, and a run
//     of frames with one projection probed once (probeBatch);
//   - the burst is walked as runs — stretches of consecutive frames the
//     probe resolved to one cache entry — and each run replays the
//     entry's program once (replay): one credit per flow entry, the
//     rewrites frame by frame, one append of the survivors to the egress
//     port; a program that decides per packet takes its run frame by
//     frame;
//   - only the residue of misses walks the full pipeline;
//   - credits are summed per distinct entry across the burst, egress is
//     coalesced per port (txContext), and every port backend is flushed
//     once per batch;
//   - frames crossing a patch port into a peer switch stay grouped and
//     are dispatched ITERATIVELY off a worklist — a chain of patched
//     switches (SS_1 -> SS_2 -> ...) runs at constant stack depth
//     instead of deepening the stack per hop per frame.
//
// Receive is the one-frame wrapper over the same machinery, so the
// two entry points cannot diverge semantically: counters, cache
// statistics and drop accounting are exactly equal for the same
// frames sent either way (batch_test.go proves it).
//
// Ownership follows the dataplane package rules: each frame of the
// vector transfers to the switch; the vector itself is borrowed, never
// written — a run is rewritten and compacted in the dispatch's scratch —
// and reusable by the caller as soon as ReceiveBatch returns.

// patchWork is one pending cross-switch delivery: a still-grouped
// egress batch that crossed a patch port.
type patchWork struct {
	sw     *Switch
	inPort uint32
	frames [][]byte
}

// txContext is what a dispatch threads through every function it
// calls: it coalesces one batch's egress per port and its flow-entry
// credits per entry, carries the iterative patch-delivery worklist and
// holds the dispatch's one clock reading. ports/frames are parallel;
// flushed slot buffers are kept (or returned via recycle) so steady
// state dispatch does not allocate.
type txContext struct {
	ports  []*swPort
	frames [][][]byte
	spare  [][][]byte // recycled slot buffers
	work   []patchWork

	// credits is what a burst has matched and not yet published. burst is
	// set for the span of a multi-frame processBatch; outside one a credit
	// is published at once.
	credits [8]creditSlot
	burst   bool

	// clock is the clock nowNs was read from; nil until the dispatch
	// first asks for the time.
	clock netem.Clock
	nowNs int64

	// rec is the recorder every cache-feeding walk of the dispatch fills
	// in, one after another: classifyAndRun resets it once the walk's
	// outcome is installed (as a copy) or dropped, so it keeps only its
	// arrays between walks.
	rec recorder
}

// now returns the dispatch's reading of clock c in unix nanos, taken
// the first time anything in the dispatch asks for it: every flow-entry
// credit (a table lookup's or a cache hit's) and telemetry observation
// of the dispatch — across the whole patch worklist, SS_1 -> SS_2 ->
// SS_1 included — carries the same instant. Idle timeouts are whole seconds; a reading
// that is one burst old is all they need. A switch on a different clock
// (tests mix manual and real ones) gets its own reading.
func (tx *txContext) now(c netem.Clock) int64 {
	if tx.clock != c {
		tx.clock, tx.nowNs = c, c.Now().UnixNano()
	}
	return tx.nowNs
}

// creditSlot is what one burst owes one flow entry and its table.
type creditSlot struct {
	table          *flowtable.Table
	entry          *flowtable.Entry
	packets, bytes uint64
}

// credit accounts packets frames, bytes long together, matching e in
// table t: a lookup's own hit on the walk (one frame), a recorded one on
// replay (a run), at the same position of the program either way. A burst's
// frames mostly match the same few entries, so a burst adds them up per
// entry for flushTx to publish in one CreditHits each; meeting more
// distinct entries than it has slots, it publishes what it holds and
// starts over. The counters add up as before; only when they are
// written changes.
func (tx *txContext) credit(t *flowtable.Table, e *flowtable.Entry, packets, bytes int, c netem.Clock) {
	if !tx.burst {
		t.CreditHits(e, uint64(packets), uint64(bytes), tx.now(c))
		return
	}
	for i := range tx.credits {
		sl := &tx.credits[i]
		if sl.entry == nil {
			sl.table, sl.entry = t, e
		}
		if sl.entry == e {
			sl.packets += uint64(packets)
			sl.bytes += uint64(bytes)
			return
		}
	}
	tx.flushCredits(c)
	tx.credits[0] = creditSlot{table: t, entry: e, packets: uint64(packets), bytes: uint64(bytes)}
}

// flushCredits publishes the burst's credits at the dispatch's clock
// reading. The slots fill from the front.
func (tx *txContext) flushCredits(c netem.Clock) {
	for i := range tx.credits {
		sl := &tx.credits[i]
		if sl.entry == nil {
			return
		}
		sl.table.CreditHits(sl.entry, sl.packets, sl.bytes, tx.now(c))
		*sl = creditSlot{}
	}
}

// add coalesces one frame onto the egress vector of port p.
func (tx *txContext) add(p *swPort, frame []byte) {
	i := tx.slot(p)
	tx.frames[i] = append(tx.frames[i], frame)
}

// addRun coalesces a replayed run's survivors onto the egress vector of
// port p in one append. (add stays apart: appending a vector of one
// frame costs a runtime copy call that appending the frame does not.)
func (tx *txContext) addRun(p *swPort, frames [][]byte) {
	i := tx.slot(p)
	tx.frames[i] = append(tx.frames[i], frames...)
}

// slot returns the index of port p's egress vector, opening an empty
// one the first time the dispatch sends to p.
func (tx *txContext) slot(p *swPort) int {
	for i, q := range tx.ports {
		if q == p {
			return i
		}
	}
	i := len(tx.ports)
	tx.ports = append(tx.ports, p)
	if i < cap(tx.frames) {
		tx.frames = tx.frames[:i+1] // revive the slot buffer from a previous flush
	} else {
		tx.frames = append(tx.frames, nil)
	}
	if tx.frames[i] == nil && len(tx.spare) > 0 {
		tx.frames[i] = tx.spare[len(tx.spare)-1]
		tx.spare = tx.spare[:len(tx.spare)-1]
	}
	tx.frames[i] = tx.frames[i][:0]
	return i
}

// recycle takes back a frame vector whose frames have been consumed.
func (tx *txContext) recycle(frames [][]byte) {
	clear(frames)
	tx.spare = append(tx.spare, frames[:0])
}

// flushTx publishes the burst's credits, then pushes every coalesced
// egress vector to its port backend, once per port per batch — in that
// order, so that neither a backend, a nested dispatch nor a stats reader
// sees a frame ahead of its counters. Vectors for a BatchForwarder
// backend (patch ports and the like) are not delivered here: they go
// onto the worklist so the dispatch loop hands them to the peer switch
// iteratively.
func (s *Switch) flushTx(tx *txContext) {
	tx.flushCredits(s.clock)
	tx.burst = false
	for i, p := range tx.ports {
		frames := tx.frames[i]
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f))
		}
		p.counters.TxPackets.Add(uint64(len(frames)))
		p.counters.TxBytes.Add(bytes)
		if fw, ok := p.backend.(BatchForwarder); ok {
			peer, peerPort := fw.ForwardTarget()
			tx.work = append(tx.work, patchWork{sw: peer, inPort: peerPort, frames: frames})
			tx.frames[i] = nil // handed to the worklist; recycled after processing
		} else {
			p.backend.TransmitBatch(frames)
			clear(frames) // drop frame refs, keep the buffer
			tx.frames[i] = frames[:0]
		}
		tx.ports[i] = nil
	}
	tx.ports = tx.ports[:0]
	tx.frames = tx.frames[:0]
}

// dispatchState is the pooled scratch of one dispatch: the egress
// context plus the per-batch classification arrays. sc.flat/skip/outs
// carry what telemetry needs of each frame (its packed key, whether it
// was classified, its egress port) to the single ObserveBatch call at
// the end of the dispatch — the zero-alloc batch-level hook, as opposed
// to a per-frame callback. sc is the cache's probe scratch, run the
// vector a replayed run is rewritten and compacted in, so the caller's
// is never written.
type dispatchState struct {
	tx   txContext
	mfs  []*CacheEntry
	skip []bool
	outs []uint32
	sc   probeScratch
	run  [][]byte
	one  [1][]byte // single-frame vector for the Receive wrapper
}

func (st *dispatchState) grow(n int) {
	if cap(st.mfs) < n {
		st.mfs = make([]*CacheEntry, n)
		st.skip = make([]bool, n)
		st.outs = make([]uint32, n)
		st.run = make([][]byte, n)
		st.sc.flat = make([]pkt.FlatKey, n)
		st.sc.shard = make([]uint8, n)
		st.sc.proj = make([]pkt.FlatKey, n)
		st.sc.next = make([]int32, n)
	}
}

var dispatchPool = sync.Pool{New: func() any { return new(dispatchState) }}

// release ends a dispatch. The clock reading goes with it: the next
// dispatch to draw this state from the pool takes its own.
func (st *dispatchState) release() {
	st.tx.clock = nil
	dispatchPool.Put(st)
}

// runWork drains the patch worklist: each entry is a still-grouped
// batch entering a peer switch, which may append further entries —
// the iterative replacement for per-frame cross-switch recursion.
func runWork(st *dispatchState) {
	for i := 0; i < len(st.tx.work); i++ {
		w := st.tx.work[i]
		st.tx.work[i] = patchWork{}
		w.sw.processBatch(w.inPort, w.frames, st)
		st.tx.recycle(w.frames)
	}
	st.tx.work = st.tx.work[:0]
}

// ReceiveBatch runs a frame vector arriving on inPort through the
// datapath. It may be called concurrently, like Receive. Ownership of
// each frame transfers to the switch; the vector itself is borrowed
// and may be reused once the call returns.
func (s *Switch) ReceiveBatch(inPort uint32, frames [][]byte) {
	if len(frames) == 0 {
		return
	}
	st := dispatchPool.Get().(*dispatchState)
	s.processBatch(inPort, frames, st)
	runWork(st)
	st.release()
}

// Receive runs one frame through the datapath starting at table 0: the
// one-frame wrapper over the batch dispatch. It is the entry point for
// per-frame physical ingress and may be called concurrently.
func (s *Switch) Receive(inPort uint32, frame []byte) {
	st := dispatchPool.Get().(*dispatchState)
	st.one[0] = frame
	s.processBatch(inPort, st.one[:1], st)
	runWork(st)
	st.one[0] = nil
	st.release()
}

// processBatch classifies and executes one batch on one switch,
// flushing its egress at the end. Cross-switch patch deliveries are
// queued on st's worklist rather than executed inline.
func (s *Switch) processBatch(inPort uint32, frames [][]byte, st *dispatchState) {
	if p := s.getPort(inPort); p != nil {
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f))
		}
		p.counters.RxPackets.Add(uint64(len(frames)))
		p.counters.RxBytes.Add(bytes)
	}
	tel := s.telemetry.Load()
	var now int64
	if tel != nil {
		now = st.tx.now(s.clock)
	}
	ch := s.cache
	n := len(frames)
	st.grow(n)
	if n == 1 {
		// One frame: the classic per-frame walk, minus the batch-probe
		// bookkeeping. probeBatch's fixed cost per call scales with
		// cache shards × mask classes, not with the batch: without this
		// branch ReceiveBatch/batch=1 went from a median 499 to 677
		// ns/frame (6 of 6 interleaved pairs of 500000 frames, 2-core
		// Xeon VM).
		flat := &st.sc.flat[0]
		if err := pkt.ExtractFlat(frames[0], inPort, flat); err != nil {
			s.drops.Inc()
		} else {
			var shard uint32
			if ch != nil {
				shard = shardOf(flat.Sum())
			}
			st.outs[0] = s.classifyAndRun(flat, shard, inPort, frames, st)
			if tel != nil {
				st.skip[0] = false
				tel.ObserveBatch(st.sc.flat[:1], st.skip[:1], frames, st.outs[:1], now)
			}
		}
		st.run[0] = nil
		s.flushTx(&st.tx)
		return
	}

	st.tx.burst = true
	skip, mfs := st.skip[:n], st.mfs[:n]
	bad := 0
	for i, f := range frames {
		skip[i] = pkt.ExtractFlat(f, inPort, &st.sc.flat[i]) != nil
		if skip[i] {
			bad++
		}
	}
	if bad > 0 {
		s.drops.Add(uint64(bad))
	}
	if ch != nil {
		ch.probeBatch(skip, mfs, &st.sc)
	} else {
		clear(mfs)
	}
	outs := st.outs[:n]
	for i := 0; i < n; {
		mf := mfs[i]
		if mf == nil {
			if !skip[i] {
				// Batch probe missed: classifyAndRun re-probes per frame
				// (the exact miss/invalidation accounting, and an entry
				// installed by an earlier frame of this very batch can
				// already hit) before falling back to the pipeline walk,
				// with the packed key and bypass shard the probe derived.
				outs[i] = s.classifyAndRun(&st.sc.flat[i], uint32(st.sc.shard[i]&^shardSkip), inPort, frames[i:i+1], st)
			}
			i++
			continue
		}
		// A run: frame i and the frames after it the probe resolved to the
		// same entry. Runs are taken in order, so every port's egress keeps
		// the frames' arrival order.
		j := i + 1
		for j < n && mfs[j] == mf {
			j++
		}
		if tel != nil {
			for k := i; k < j; k++ {
				outs[k] = mf.outPort
			}
		}
		s.replay(mf, inPort, frames[i:j], st)
		clear(mfs[i:j])
		i = j
	}
	clear(st.run[:n])
	if tel != nil {
		tel.ObserveBatch(st.sc.flat[:n], skip, frames, outs, now)
	}
	s.flushTx(&st.tx)
}

// classifyAndRun is the per-frame decision shared by every entry
// point: serve from the flow cache, or walk the pipeline and record
// a new cache entry. one is the frame, as a run of one for replay. It
// returns the frame's resolved egress port (0 = none), which the
// dispatch hands to telemetry with the frame's key. flat is the packed
// key and shard its bypass shard (shardOf(flat.Sum()), which is not read
// on a switch without a cache).
func (s *Switch) classifyAndRun(flat *pkt.FlatKey, shard uint32, inPort uint32, one [][]byte, st *dispatchState) uint32 {
	ch := s.cache
	var mf *CacheEntry
	var record bool
	if ch != nil {
		mf, record = ch.lookup(flat, shard)
	}
	if mf != nil {
		s.replay(mf, inPort, one, st)
		return mf.outPort
	}
	tx := &st.tx
	if !record {
		// No cache, or adaptive bypass (the shard's hit rate collapsed):
		// skip both the recording and the install — a pure slow-path walk.
		s.runPipelineKeyed(flat, inPort, one[0], 0, nil, tx)
		return 0
	}
	// Read the group revision before the walk so a group-mod racing
	// the recording leaves it stale-by-revision, like the table revs.
	groupRev := s.groups.Version()
	rec := &tx.rec
	s.runPipelineKeyed(flat, inPort, one[0], 0, rec, tx)
	rec.resolveOutPort()
	out := rec.outPort
	if !rec.uncacheable {
		if rec.usesGroups() {
			rec.groups = s.groups
			rec.groupRev = groupRev
		}
		ch.install(flat, rec)
	}
	rec.reset()
	return out
}
