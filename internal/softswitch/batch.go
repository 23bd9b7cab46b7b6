package softswitch

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Batch dispatch (DESIGN.md, "The datapath walk"): ReceiveBatch pays the
// per-packet costs once per batch — one parse per frame into its packed
// key, one cache probe per run of equal projections, one replay per run,
// credits summed per entry and egress flushed once per port. Only misses
// walk, and a walk follows a patch port into the peer (recorder.follow):
// an S4 frame takes one parse, probe and replay for SS_1 -> SS_2 -> SS_1.
// What crosses otherwise goes to the peer grouped, off a worklist, at
// constant stack depth. Receive is the one-frame wrapper (batch_test.go
// holds the two equal). Each frame of the vector transfers to the switch;
// the vector is only read and is the caller's again on return.

// maxPatchHops bounds the patch ports a frame crosses in one dispatch
// (a batch goes on with the most any of its frames crossed): Open
// vSwitch's resubmit depth, far above the S4 node's two.
const maxPatchHops = 64

// patchWork is a still-grouped egress batch that crossed a patch port,
// and how many it has crossed.
type patchWork struct {
	sw     *Switch
	inPort uint32
	hops   int
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
	hops   int // patch ports crossed by the batch being processed
	depth  int // the most any frame of it has crossed since, followed or replayed

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

// now returns the dispatch's reading of clock c in unix nanos, taken the
// first time anything in the dispatch asks: every credit and telemetry
// observation of the dispatch, SS_1 -> SS_2 -> SS_1 included, carries
// it. Idle timeouts are whole seconds; a reading one burst old is all
// they need. A switch on another clock gets its own reading.
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
// sees a frame ahead of its counters. A patch port's vector goes onto
// the worklist instead.
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
		if p.peer != nil {
			tx.work = append(tx.work, patchWork{sw: p.peer, inPort: p.peerPort, hops: tx.hops + tx.depth + 1, frames: frames})
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
	tx.depth = 0
}

// dispatchState is the pooled scratch of one dispatch: the egress
// context plus the per-batch classification arrays. flat/skip/outs
// carry what telemetry needs of each frame (its packed key, whether it
// was classified, its egress port) to the single ObserveBatch call at
// the end of the dispatch — the zero-alloc batch-level hook, as opposed
// to a per-frame callback. flat[i] is frame i's key packed, written once
// per frame per switch: the cache probe and every table's classifier
// read it. run is the vector a replayed run is rewritten and compacted
// in, so the caller's is never written.
type dispatchState struct {
	tx   txContext
	mfs  []*CacheEntry
	skip []bool
	outs []uint32
	flat []pkt.FlatKey
	run  [][]byte
	one  [1][]byte   // single-frame vector for the Receive wrapper
	key  pkt.FlatKey // a recording walk's key in the peer it followed a patch port into
}

func (st *dispatchState) grow(n int) {
	if cap(st.mfs) < n {
		st.mfs = make([]*CacheEntry, n)
		st.skip = make([]bool, n)
		st.outs = make([]uint32, n)
		st.run = make([][]byte, n)
		st.flat = make([]pkt.FlatKey, n)
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
// batch entering a peer switch, which may append further entries. A
// batch past maxPatchHops is dropped, counted by the switch it would
// have entered, so that switches patched into a loop let go of it.
func runWork(st *dispatchState) {
	for i := 0; i < len(st.tx.work); i++ {
		w := st.tx.work[i]
		st.tx.work[i] = patchWork{}
		if w.hops > maxPatchHops {
			w.sw.drops.Add(uint64(len(w.frames)))
		} else {
			st.tx.hops = w.hops
			w.sw.processBatch(w.inPort, w.frames, st)
		}
		st.tx.recycle(w.frames)
	}
	st.tx.work, st.tx.hops = st.tx.work[:0], 0
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
		// One frame: the classic per-frame walk, minus the burst path's
		// fixed cost per call — probeBatch's passes over the vector and
		// its window update, and the burst loop's own passes. It still
		// pays with one admission state: ten alternating pairs of the
		// repo benchmark's chain_64B (seed 7, 2-core Xeon VM) read p50
		// 827 ns with this branch and 877 without it, better in 9 of 10.
		flat := &st.flat[0]
		if err := pkt.ExtractFlat(frames[0], inPort, flat); err != nil {
			s.drops.Inc()
		} else {
			st.outs[0] = s.classifyAndRun(flat, inPort, frames, st)
			if tel != nil {
				st.skip[0] = false
				tel.ObserveBatch(st.flat[:1], st.skip[:1], frames, st.outs[:1], now)
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
		skip[i] = pkt.ExtractFlat(f, inPort, &st.flat[i]) != nil
		if skip[i] {
			bad++
		}
	}
	if bad > 0 {
		s.drops.Add(uint64(bad))
	}
	if ch != nil {
		ch.probeBatch(skip, mfs, st.flat[:n])
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
				// already hit) before falling back to the pipeline walk.
				outs[i] = s.classifyAndRun(&st.flat[i], inPort, frames[i:i+1], st)
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
		tel.ObserveBatch(st.flat[:n], skip, frames, outs, now)
	}
	s.flushTx(&st.tx)
}

// classifyAndRun is the per-frame decision shared by every entry
// point: serve from the flow cache, or walk the pipeline — across patch
// ports into the peers as far as recorder.follow allows — and record a
// new cache entry. one is the frame, as a run of one for replay. It
// returns the frame's egress port for telemetry (0 = none). flat is the
// frame's packed key.
func (s *Switch) classifyAndRun(flat *pkt.FlatKey, inPort uint32, one [][]byte, st *dispatchState) uint32 {
	ch := s.cache
	var mf *CacheEntry
	var record bool
	if ch != nil {
		mf, record = ch.lookup(flat)
	}
	if mf != nil {
		s.replay(mf, inPort, one, st)
		return mf.outPort
	}
	tx := &st.tx
	if !record {
		// No cache, or adaptive bypass (the cache's hit rate collapsed):
		// skip both the recording and the install — a pure slow-path walk.
		s.runPipelineKeyed(flat, inPort, one[0], nil, tx)
		return 0
	}
	rec := &tx.rec
	sw, port, key, frame := s, inPort, flat, one[0]
	for n := 0; ; n++ {
		var p *swPort
		if frame, p = sw.runPipelineKeyed(key, port, frame, rec, tx); p == nil {
			break
		}
		if !rec.follow(sw, p, frame, &st.key, tx.hops+n) {
			tx.add(p, frame)
			break
		}
		tx.depth = max(tx.depth, n+1)
		sw, port, key = p.peer, p.peerPort, &st.key
	}
	rec.resolveOutPort()
	out := rec.outPort
	if !rec.uncacheable && !rec.asksOnMiss() {
		ch.install(flat, rec)
	}
	rec.reset()
	return out
}
