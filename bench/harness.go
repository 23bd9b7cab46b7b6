package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"
)

const (
	// seqOff is where the injector stamps a frame's sequence number:
	// the start of the UDP payload (Ethernet 14 + IPv4 20 + UDP 8).
	seqOff = 42
	seqLen = 8
	// verifyEvery is the share of delivered frames the sink compares
	// byte for byte with what was injected.
	verifyEvery = 64
	// arenaSlots is the injector's ring of frame buffers, a NIC-sized
	// descriptor ring. Every link in the rigs is synchronous, so a slot
	// is long done with when the ring comes round to it again.
	arenaSlots = 4096
	// tailroom is spare capacity behind each injected frame, so a later
	// datapath that grows a frame in place (VLAN push) has room to.
	tailroom = 32
)

// frameSet is a workload's pre-generated traffic: one template frame
// per flow, sent round-robin.
type frameSet struct {
	frames   [][]byte
	frameLen int
	mask     uint64 // flows-1
}

// digest identifies the frame set: same seed, same digest.
func (fs *frameSet) digest() string {
	h := sha256.New()
	for _, f := range fs.frames {
		h.Write(f)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// injector owns the frame buffers. The datapath takes ownership of
// every frame it is sent and may rewrite it, so each injected frame is
// a fresh copy of its template in the next arena slot, stamped with
// its sequence number. Nothing here allocates.
type injector struct {
	fs     *frameSet
	arena  []byte
	stride int
	slot   int
	seq    uint64
	vec    [][]byte
}

func newInjector(fs *frameSet) *injector {
	stride := (fs.frameLen + tailroom + 63) &^ 63
	return &injector{
		fs:     fs,
		arena:  make([]byte, arenaSlots*stride),
		stride: stride,
		vec:    make([][]byte, burst),
	}
}

func (in *injector) next() []byte {
	t := in.fs.frames[in.seq&in.fs.mask]
	off := in.slot * in.stride
	if in.slot++; in.slot == arenaSlots {
		in.slot = 0
	}
	f := in.arena[off : off+len(t) : off+in.stride]
	copy(f, t)
	binary.BigEndian.PutUint64(f[seqOff:], in.seq)
	in.seq++
	return f
}

func (in *injector) nextBurst() [][]byte {
	for i := range in.vec {
		in.vec[i] = in.next()
	}
	return in.vec
}

// sink replaces the decoding emulated host at the far end of a rig: it
// counts and verifies. A frame fails when it has the wrong length, is
// still VLAN-tagged (or anything but IPv4), is out of sequence, or — 1
// in verifyEvery — differs from the injected bytes anywhere.
type sink struct {
	fs     *frameSet
	expect uint64
	got    uint64
	bad    uint64
	stamp  bool          // latency phase: read the clock per frame
	at     int64         // when the last frame was verified
	done   chan struct{} // reactive rig: delivery happens on another goroutine
}

func (s *sink) receive(f []byte) {
	s.got++
	ok := len(f) == s.fs.frameLen && f[12] == 0x08 && f[13] == 0x00
	if ok {
		seq := binary.BigEndian.Uint64(f[seqOff:])
		ok = seq == s.expect
		if ok && seq%verifyEvery == 0 {
			t := s.fs.frames[seq&s.fs.mask]
			ok = bytes.Equal(f[:seqOff], t[:seqOff]) && bytes.Equal(f[seqOff+seqLen:], t[seqOff+seqLen:])
		}
		s.expect = seq + 1
	}
	if !ok {
		s.bad++
	}
	if s.stamp {
		s.at = nowNs()
	}
	if s.done != nil {
		select {
		case s.done <- struct{}{}:
		default:
		}
	}
}

// harness drives one rig: closed loop, one injector goroutine.
type harness struct {
	w    *workload
	rig  *rig
	inj  *injector
	sink *sink

	sent     uint64
	lost     uint64 // frames that never reached the sink
	timeouts uint64 // reactive operations not delivered in time
	breaches []string
	timer    *time.Timer
}

func newHarness(w *workload, fs *frameSet, r *rig) *harness {
	h := &harness{w: w, rig: r, inj: newInjector(fs), sink: &sink{fs: fs}}
	if w.kind == kindReactive {
		h.sink.done = make(chan struct{}, 1)
		h.timer = time.NewTimer(time.Hour)
		h.timer.Stop()
	}
	r.setSink(h.sink.receive)
	return h
}

func (h *harness) breach(format string, args ...any) {
	if len(h.breaches) < 16 {
		h.breaches = append(h.breaches, fmt.Sprintf(format, args...))
	}
}

// delivered accounts for frames a synchronous rig swallowed: when Send
// returns, every frame of the call has either reached the sink or
// never will.
func (h *harness) delivered() {
	if h.sink.got != h.sent {
		h.lost += h.sent - h.sink.got
		h.sink.got = h.sent
	}
}

// op is one reactive operation: send a frame that has no flow and wait
// for the controller's PACKET_OUT to deliver it. The injector sleeps on
// a channel meanwhile, as a client waiting for a reply does; polling
// for the delivery instead (spinning, or yielding in a loop) starves the
// control path's six goroutines of the second core and halves the rate.
func (h *harness) op(f []byte) {
	select {
	case <-h.sink.done: // a frame that arrived after its operation timed out
	default:
	}
	h.timer.Reset(reactiveTimeoutNs)
	h.rig.send(f)
	h.sent++
	select {
	case <-h.sink.done:
		h.timer.Stop()
	case <-h.timer.C:
		h.timeouts++
	}
}

// flush ends a reactive round: the learned flows go, the table-miss
// entry comes back, and SS_2's table must hold exactly that entry.
func (h *harness) flush() {
	if err := h.rig.flush(); err != nil {
		h.breach("flush: %v", err)
	}
	if n := h.rig.tableLen(); n != 1 {
		h.breach("SS_2 table holds %d entries after a flush, want 1", n)
	}
}

// throughput runs equal slices of sliceFrames frames, in bursts, until
// maxFrames are sent or the deadline passes, and returns each slice's
// rate in Mframes/s. On the reactive rig a slice is one round
// of 1024 flow set-ups, one outstanding, and the flush between rounds
// is not timed.
func (h *harness) throughput(deadline int64, maxFrames int) []float64 {
	rates := make([]float64, 0, 1024)
	n := h.w.sliceFrames
	for frames := 0; frames+n <= maxFrames && len(rates) < cap(rates); frames += n {
		start := nowNs()
		if start >= deadline {
			break
		}
		if h.w.kind == kindReactive {
			for i := 0; i < n; i++ {
				h.op(h.inj.next())
			}
		} else {
			for i := 0; i < n; i += burst {
				h.rig.sendBatch(h.inj.nextBurst())
				h.sent += burst
				h.delivered()
			}
		}
		rates = append(rates, sliceRate(n, nowNs()-start)/1e6)
		if h.w.kind == kindReactive {
			h.flush()
		}
	}
	return rates
}

// latency sends one frame at a time and records inject → sink-verified
// for each, until maxFrames are sent or the deadline passes. With a
// tracer the same loop also closes every frame's spans.
func (h *harness) latency(deadline int64, maxFrames int, tr *tracer) []uint32 {
	samples := make([]uint32, 0, maxFrames)
	h.sink.stamp = true
	defer func() { h.sink.stamp = false }()
	reactive := h.w.kind == kindReactive
	last := len(h.w.kind.spanNames())
	for now := nowNs(); len(samples) < maxFrames && now < deadline; now = h.sink.at {
		f := h.inj.next()
		t0 := nowNs()
		if tr != nil {
			clear(tr.t)
			tr.t[0] = t0
		}
		if reactive {
			before := h.timeouts
			h.op(f)
			if h.timeouts != before {
				h.sink.at = nowNs()
				continue
			}
			if tr != nil {
				tr.t[last] = h.sink.at
			}
		} else {
			h.rig.send(f)
			if tr != nil {
				tr.t[last-1], tr.t[last] = h.sink.at, nowNs()
			}
			h.sent++
			if h.sink.got != h.sent {
				h.delivered()
				h.sink.at = nowNs()
				continue
			}
		}
		samples = append(samples, clampNs(h.sink.at-t0))
		if tr != nil {
			tr.commit(h.inj.seq - 1)
		}
		if reactive && h.inj.seq&h.inj.fs.mask == 0 {
			h.flush()
		}
	}
	return samples
}

// warmUp sends every flow warmCycles times so that caches, the legacy
// FDB, pools and the adaptive bypass have settled before anything is
// measured.
func (h *harness) warmUp() {
	n := h.w.warmCycles * len(h.inj.fs.frames)
	if h.w.kind == kindReactive {
		for i := 0; i < n; i++ {
			h.op(h.inj.next())
			if h.inj.seq&h.inj.fs.mask == 0 {
				h.flush()
			}
		}
		return
	}
	for i := 0; i < n; i += burst {
		h.rig.sendBatch(h.inj.nextBurst())
		h.sent += burst
		h.delivered()
	}
}

func (h *harness) failed() uint64 { return h.sink.bad + h.lost + h.timeouts }

// plan is what a child process is asked to do. A phase ends at its
// frame count or its time budget, whichever comes first: the untraced
// run sets seconds and leaves frames open, the counting pass of a
// traced run sets frames and keeps the seconds as a safety cap.
type plan struct {
	Mode        string  `json:"mode"` // "run" or "probes"
	Workload    string  `json:"workload,omitempty"`
	Seed        int64   `json:"seed"`
	SpawnNs     int64   `json:"spawn_ns"` // wall clock when the parent started the child
	TputSeconds float64 `json:"tput_seconds"`
	TputFrames  int     `json:"tput_frames"`
	LatSeconds  float64 `json:"lat_seconds"`
	LatFrames   int     `json:"lat_frames"`
	// TraceFrames > 0 adds a traced latency phase of that many frames
	// after the untraced phases, with the taps on.
	TraceFrames int    `json:"trace_frames,omitempty"`
	SpanFile    string `json:"span_file,omitempty"`
	// ProbeSeconds is the budget of each isolated probe.
	ProbeSeconds float64 `json:"probe_seconds,omitempty"`
}

// settleCycles is how often the latency phase sends every flow before
// it takes samples.
const settleCycles = 4

// maxLatSamples bounds the latency sample buffer of an open-ended phase
// (16 MiB of 32-bit samples).
const maxLatSamples = 4 << 20

// childResult is what a child reports: raw measurements of one round.
type childResult struct {
	Workload  string   `json:"workload,omitempty"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Breaches  []string `json:"breaches,omitempty"`

	SetupS float64 `json:"setup_s"`
	MemMB  float64 `json:"mem_mb"`

	// Throughput phase: every slice's rate, in order.
	SliceMpps []float64 `json:"slice_mpps,omitempty"`
	// Latency phase: every chunk's median and 99th percentile, in order,
	// and the median of the chunk medians.
	ChunkP50   []float64 `json:"chunk_p50_ns,omitempty"`
	ChunkP99   []float64 `json:"chunk_p99_ns,omitempty"`
	LatP50     float64   `json:"lat_p50_ns"`
	LatSamples int       `json:"lat_samples"`

	// Frames is every frame of the untraced measured phases; Counters
	// and Runtime are deltas over exactly those frames.
	Frames   uint64       `json:"frames"`
	Counters counters     `json:"counters"`
	Runtime  runtimeDelta `json:"runtime"`

	// Traced phase.
	Spans        map[string]float64 `json:"spans,omitempty"`
	TracedP50    float64            `json:"traced_p50_ns,omitempty"`
	TracedFrames int                `json:"traced_frames,omitempty"`
	SpansKept    int                `json:"spans_kept,omitempty"`

	Probes map[string]probeResult `json:"probes,omitempty"`
}

// counters is a snapshot of the repository's public counters, summed
// over the switches, tables and links of a rig.
type counters struct {
	Hits, Misses, Bypassed, Evictions uint64
	PktIns, Drops, Lookups            uint64
	LegacyRx, LegacyTx                uint64
	NetemTxDropped                    uint64
}

func (a counters) sub(b counters) counters {
	return counters{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, Bypassed: a.Bypassed - b.Bypassed,
		Evictions: a.Evictions - b.Evictions, PktIns: a.PktIns - b.PktIns, Drops: a.Drops - b.Drops,
		Lookups: a.Lookups - b.Lookups, LegacyRx: a.LegacyRx - b.LegacyRx, LegacyTx: a.LegacyTx - b.LegacyTx,
		NetemTxDropped: a.NetemTxDropped - b.NetemTxDropped,
	}
}

// runtimeDelta is what the Go runtime did during the measured phases.
type runtimeDelta struct {
	Mallocs  uint64  `json:"mallocs"`
	Bytes    uint64  `json:"bytes"`
	GCCycles uint32  `json:"gc_cycles"`
	PauseNs  uint64  `json:"pause_ns"`
	GCCPUS   float64 `json:"gc_cpu_s"`
	BusyCPUS float64 `json:"busy_cpu_s"`
}

type runtimeSnap struct {
	ms       runtime.MemStats
	gc, busy float64
}

func readRuntime() runtimeSnap {
	var s runtimeSnap
	runtime.ReadMemStats(&s.ms)
	sample := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		s.gc = sample[0].Value.Float64()
		s.busy = sample[1].Value.Float64() - sample[2].Value.Float64()
	}
	return s
}

func (a runtimeSnap) sub(b runtimeSnap) runtimeDelta {
	return runtimeDelta{
		Mallocs:  a.ms.Mallocs - b.ms.Mallocs,
		Bytes:    a.ms.TotalAlloc - b.ms.TotalAlloc,
		GCCycles: a.ms.NumGC - b.ms.NumGC,
		PauseNs:  a.ms.PauseTotalNs - b.ms.PauseTotalNs,
		GCCPUS:   a.gc - b.gc,
		BusyCPUS: a.busy - b.busy,
	}
}

func secondsToNs(s float64) int64 { return int64(s * 1e9) }

func orUnlimited(frames int) int {
	if frames <= 0 {
		return math.MaxInt
	}
	return frames
}

// runWorkload is one round of one workload: set up, measure, check.
func runWorkload(p plan) (*childResult, error) {
	w, err := findWorkload(p.Workload)
	if err != nil {
		return nil, err
	}
	fs, err := buildFrames(w, p.Seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if p.TraceFrames > 0 {
		tr = newTracer(w.kind.spanNames(), p.TraceFrames)
	}
	r, err := buildRig(w, tr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	h := newHarness(w, fs, r)
	h.warmUp()
	if f := h.failed(); f != 0 {
		return nil, fmt.Errorf("%s: %d of %d warm-up frames failed", w.name, f, h.sent)
	}
	warm := h.sent

	// The post-set-up collection is inside the runtime delta on
	// purpose: gc.pause_ms then always holds at least one measured
	// pause, also on a workload that never allocates.
	before := readRuntime()
	runtime.GC()
	c0 := r.snapshot()
	res := &childResult{Workload: w.name}
	res.SetupS = float64(time.Now().UnixNano()-p.SpawnNs) / 1e9

	res.SliceMpps = h.throughput(nowNs()+secondsToNs(p.TputSeconds), orUnlimited(p.TputFrames))

	// Untimed passes over the flows, one frame at a time, settle the
	// per-frame path the way warmUp settled the burst path (see
	// quietTail for what takes longest to settle).
	h.latency(math.MaxInt64, settleCycles*w.flows, nil)
	latCap := min(orUnlimited(p.LatFrames), maxLatSamples)
	samples := h.latency(nowNs()+secondsToNs(p.LatSeconds), latCap, nil)
	res.LatSamples = len(samples)
	res.ChunkP50, res.ChunkP99 = chunkQuantiles(samples, w.latChunk)
	res.LatP50 = median(res.ChunkP50)

	res.Frames = h.sent - warm
	res.Counters = r.snapshot().sub(c0)
	after := readRuntime()
	res.Runtime = after.sub(before)
	res.MemMB = float64(after.ms.Sys) / (1 << 20)
	h.selfCheck(res)

	if tr != nil {
		r.tap()
		traced := h.latency(nowNs()+secondsToNs(p.LatSeconds), p.TraceFrames, tr)
		res.TracedFrames = len(traced)
		p50s, _ := chunkQuantiles(traced, w.latChunk)
		res.TracedP50 = median(p50s)
		res.Spans, _ = tr.medians()
		res.SpansKept, err = checkSpans(tr.kept)
		if err != nil {
			h.breach("%v", err)
		}
		if tr.broken != 0 {
			h.breach("%d traced frames missed a boundary", tr.broken)
		}
		if p.SpanFile != "" {
			if err := writeSpans(p.SpanFile, tr.kept); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted = h.sent - warm
	res.Failed = h.failed()
	res.Breaches = h.breaches
	return res, nil
}

// selfCheck fails the run when a workload has stopped exercising what
// it is named for.
func (h *harness) selfCheck(res *childResult) {
	c, frames := res.Counters, float64(res.Frames)
	if frames == 0 {
		h.breach("no frames measured")
		return
	}
	lookups := float64(c.Hits + c.Misses + c.Bypassed)
	hitShare := float64(c.Hits) / lookups
	slowShare := float64(c.Misses+c.Bypassed) / lookups
	switch {
	case h.w.kind == kindReactive:
		if c.PktIns != res.Frames {
			h.breach("%d PACKET_INs for %d operations, want one each", c.PktIns, res.Frames)
		}
	case h.w.acl:
		if slowShare < 0.9 {
			h.breach("softswitch.slowpath_share = %.4f, want >= 0.9: the caches are not thrashing", slowShare)
		}
	default:
		if hitShare < 0.999 {
			h.breach("softswitch.hit_share = %.5f, want >= 0.999: the cache-hit path is not carrying the load", hitShare)
		}
	}
	if h.w.kind != kindSwitch && c.LegacyTx != c.LegacyRx {
		h.breach("legacy switch sent %d frames for %d received: it is flooding", c.LegacyTx, c.LegacyRx)
	}
}
