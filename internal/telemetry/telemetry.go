// Package telemetry is the flow-visibility plane of the softswitch:
// per-flow accounting records accumulated on the datapath hot path,
// drained over a lock-free ring to an aggregator that merges
// bidirectional flows and exports IPFIX-style records (templates +
// data sets) to a pluggable exporter, plus an sFlow-style 1-in-N
// packet sampler for visibility into cache-hit traffic that never
// reaches the slow path.
//
// # Shards and the zero-alloc hot-path contract
//
// Flow records live in shards selected by pkt.FlatKey.FlowSum — the
// same hash the poll-mode worker runtime shards ingress with, so with
// Shards == Workers every record of a worker's RSS flow set lands in
// a shard only that worker touches and the shard mutex is never
// contended. Each shard is still mutex-guarded, so inline (non-pool)
// datapaths, HTTP snapshots and management flushes are safe from any
// goroutine; the lock is simply free in the pinned configuration.
//
// The hot-path contract: the datapath hands ObserveBatch the packed key
// it parsed each frame into, and the table resolves the frame's record
// (one map probe on the key ANDed with pkt.FlowMask) and updates it (a few
// field writes) under one hold of the (uncontended) shard lock, taken
// once per batch per shard — no allocation. New flows allocate exactly
// one Record, on their first packet, and only then build its FlowKey. A
// *Record never leaves its shard's lock.
//
// # Export pipeline
//
// shard sweep -> TypedRing[Export] -> Aggregator -> Exporter
//
// Shard sweeps run on the observing goroutine (piggybacked on batch
// boundaries), on the worker runtime's idle path, or from any
// management goroutine via Sweep/FlushAll. A sweep applies the
// active/idle timers: active flows export a delta and keep counting;
// idle flows export a final record and leave the table. Removing a
// record from its shard map is all it takes to forget it: its window was
// exported under the same lock hold, and the flow's next packet starts a
// fresh record, so counters are never lost.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// FlowKey identifies one unidirectional flow for accounting: the
// NetFlow/IPFIX-style tuple extracted from the packet key. It is a
// comparable value type and the collector's map key; the record maps
// key the same fields in packed form, under pkt.FlowMask: two parsed
// keys agree under it exactly when their FlowKeys are equal.
type FlowKey struct {
	EthSrc  pkt.MAC
	EthDst  pkt.MAC
	EthType uint16
	VLANID  uint16
	IPSrc   pkt.IPv4
	IPDst   pkt.IPv4
	Proto   uint8
	L4Src   uint16
	L4Dst   uint16
	InPort  uint32
}

// KeyFromPacket derives the accounting key from an extracted packet
// key. ICMP type/code are folded into L4Dst the way most NetFlow
// implementations do, so echo requests and replies account as
// distinct flows.
func KeyFromPacket(k *pkt.Key) FlowKey {
	fk := FlowKey{
		EthSrc:  k.EthSrc,
		EthDst:  k.EthDst,
		EthType: k.EthType,
		InPort:  k.InPort,
	}
	if k.HasVLAN {
		fk.VLANID = k.VLANID
	}
	if k.HasIPv4 || k.HasIPv6 {
		fk.IPSrc = k.IPSrc
		fk.IPDst = k.IPDst
		fk.Proto = k.IPProto
	}
	if k.HasL4 {
		fk.L4Src = k.L4Src
		fk.L4Dst = k.L4Dst
	} else if k.HasICMP {
		fk.L4Dst = uint16(k.ICMPType)<<8 | uint16(k.ICMPCode)
	}
	return fk
}

// String renders the key for diagnostics and the /flows endpoint.
func (k FlowKey) String() string {
	s := fmt.Sprintf("in=%d %s>%s 0x%04x", k.InPort, k.EthSrc, k.EthDst, k.EthType)
	if k.VLANID != 0 {
		s += fmt.Sprintf(" vlan=%d", k.VLANID)
	}
	if k.EthType == pkt.EtherTypeIPv4 || k.EthType == pkt.EtherTypeIPv6 {
		s += fmt.Sprintf(" %s:%d>%s:%d/%d", k.IPSrc, k.L4Src, k.IPDst, k.L4Dst, k.Proto)
	}
	return s
}

// Record is the live accounting state of one flow. All fields are
// guarded by the owning shard's mutex, and only code holding it ever
// has a *Record.
//
// Packets/Bytes are DELTAS since the last export, per IPFIX delta
// counter semantics; First is the start of the current delta window.
type Record struct {
	Key     FlowKey
	Packets uint64
	Bytes   uint64
	First   int64 // unixnano of the first packet of this window
	Last    int64 // unixnano of the most recent packet
	OutPort uint32
	opener  pkt.FlatKey // packed key of the packet that opened the record
}

// ExportKind discriminates the payloads of the shard-drain ring.
type ExportKind uint8

const (
	// ExportFlow is a flow-record snapshot (delta or final).
	ExportFlow ExportKind = iota
	// ExportSample is one sFlow-style sampled packet.
	ExportSample
)

// Flow-end reasons, per the IPFIX flowEndReason registry.
const (
	EndIdle   uint8 = 1 // idle timeout expired
	EndActive uint8 = 2 // active timeout expired (delta export, flow continues)
	EndForced uint8 = 3 // forced end (flush, eviction, shutdown)
)

// Export is one fixed-size snapshot traveling the shard-drain ring:
// either a flow-record delta/final or a packet sample.
type Export struct {
	Kind      ExportKind
	EndReason uint8
	Key       FlowKey
	Packets   uint64
	Bytes     uint64
	First     int64
	Last      int64
	OutPort   uint32
}

// Config parameterizes a Table. The zero value picks sensible
// defaults.
type Config struct {
	// Shards is the number of record shards (default 1). Set it to the
	// worker count when the table sits behind the poll-mode runtime so
	// RSS flow pinning makes every shard single-writer.
	Shards int
	// MaxFlows bounds the records per shard (default 65536). A full
	// shard evicts a pseudo-random victim — exporting its final record
	// first, so totals stay exact.
	MaxFlows int
	// ActiveTimeout is how long a flow may accumulate before a delta
	// record is exported mid-life (default 60s).
	ActiveTimeout time.Duration
	// IdleTimeout is how long a flow may stay quiet before its final
	// record is exported and the flow forgotten (default 15s).
	IdleTimeout time.Duration
	// SweepInterval is the minimum spacing between timer sweeps of one
	// shard (default 1s).
	SweepInterval time.Duration
	// SampleRate enables the sFlow-style packet sampler: every N-th
	// observed packet is exported as a sample (0 disables).
	SampleRate int
	// RingSize is the shard-drain ring capacity in snapshots (default
	// 8192). Samples may fill only half of it: a sample that finds the
	// ring half full is dropped and counted in SamplesLost, so flow
	// records always have the other half. When the aggregator falls
	// behind by more than that, records are dropped and counted in
	// RecordsLost.
	RingSize int
}

func (c *Config) defaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 1 << 16
	}
	if c.ActiveTimeout <= 0 {
		c.ActiveTimeout = 60 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 15 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = time.Second
	}
	if c.RingSize <= 0 {
		c.RingSize = 8192
	}
}

// shard is one mutex-guarded slice of the flow-record table.
type shard struct {
	mu        sync.Mutex
	flows     map[pkt.FlatKey]*Record // keyed under pkt.FlowMask
	nextSweep int64                   // unixnano of the earliest next timer sweep
	sampleCtr int                     // countdown to the next packet sample
	_         [24]byte
}

// Table is the datapath-facing flow-record store.
type Table struct {
	cfg      Config
	shards   []shard
	ring     *dataplane.TypedRing[Export]
	counters stats.TelemetryCounters
}

// NewTable creates a flow-record table.
func NewTable(cfg Config) *Table {
	cfg.defaults()
	t := &Table{
		cfg:    cfg,
		shards: make([]shard, cfg.Shards),
		ring:   dataplane.NewTypedRing[Export](cfg.RingSize),
	}
	for i := range t.shards {
		t.shards[i].flows = make(map[pkt.FlatKey]*Record)
		t.shards[i].sampleCtr = cfg.SampleRate
	}
	return t
}

// Counters exposes the telemetry statistics.
func (t *Table) Counters() *stats.TelemetryCounters { return &t.counters }

// Ring exposes the shard-drain ring (consumed by the Aggregator).
func (t *Table) Ring() *dataplane.TypedRing[Export] { return t.ring }

// Len returns the number of live flow records (diagnostics only).
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		t.shards[i].mu.Lock()
		n += len(t.shards[i].flows)
		t.shards[i].mu.Unlock()
	}
	return n
}

// resolveLocked returns the live record of the flow mk (the packed key
// k under pkt.FlowMask), creating it — and evicting a victim if the
// shard is full — when absent. Caller holds sh.mu and keeps the record
// no longer than that.
func (t *Table) resolveLocked(sh *shard, mk, k *pkt.FlatKey) *Record {
	rec := sh.flows[*mk]
	if rec == nil {
		if len(sh.flows) >= t.cfg.MaxFlows {
			t.evictLocked(sh)
		}
		var pk pkt.Key
		k.Unpack(&pk)
		rec = &Record{Key: KeyFromPacket(&pk), opener: *k}
		sh.flows[*mk] = rec
		t.counters.FlowsCreated.Inc()
	}
	return rec
}

// evictLocked exports and removes a pseudo-random victim (map
// iteration order, like the flow cache's capacity eviction). The
// victim's deltas are exported first so totals stay exact.
func (t *Table) evictLocked(sh *shard) {
	for mk, victim := range sh.flows {
		t.exportLocked(victim, EndForced)
		delete(sh.flows, mk)
		t.counters.FlowsEvicted.Inc()
		return
	}
}

// ObserveBatch accounts one dispatched batch: keys[i] is the packed key
// frame i was parsed into (skip[i] = not classified, leave it out) and
// outs[i] its resolved egress port (0 = unknown). Frame lengths are read
// from the borrowed vector. A frame's shard is picked by its flow's hash,
// so one flow is one record whatever its frames carry outside the mask.
// Each frame's record is resolved and updated under one hold of its
// shard's lock, taken once per run of same-shard frames, which in the
// RSS-pinned configuration means once per batch.
// Due timer sweeps piggyback on the tail of the batch, so a loaded
// datapath needs no external sweeper.
func (t *Table) ObserveBatch(keys []pkt.FlatKey, skip []bool, frames [][]byte, outs []uint32, now int64) {
	var cur *shard
	var mk pkt.FlatKey
	for i := range keys {
		if skip[i] {
			continue
		}
		mk.SetAnd(&keys[i], &pkt.FlowMask)
		sh := &t.shards[mk.Sum()%uint64(len(t.shards))]
		if sh != cur {
			if cur != nil {
				cur.mu.Unlock()
			}
			sh.mu.Lock()
			cur = sh
		}
		t.observeLocked(sh, t.resolveLocked(sh, &mk, &keys[i]), len(frames[i]), outs[i], now)
	}
	if cur != nil {
		if now >= cur.nextSweep {
			t.sweepLocked(cur, now)
		}
		cur.mu.Unlock()
	}
}

// observeLocked is the per-packet accounting step. Caller holds sh.mu,
// and rec is a record of sh.
func (t *Table) observeLocked(sh *shard, rec *Record, size int, outPort uint32, now int64) {
	if rec.Packets == 0 {
		rec.First = now
	}
	rec.Packets++
	rec.Bytes += uint64(size)
	rec.Last = now
	if outPort != 0 {
		rec.OutPort = outPort
	}
	if t.cfg.SampleRate > 0 {
		sh.sampleCtr--
		if sh.sampleCtr <= 0 {
			sh.sampleCtr = t.cfg.SampleRate
			// Samples take at most half the ring: the rest is kept
			// for flow records, which carry the exact totals.
			if 2*t.ring.Len() >= t.ring.Cap() {
				t.counters.SamplesLost.Inc()
				return
			}
			e := Export{
				Kind:    ExportSample,
				Key:     rec.Key,
				Packets: 1,
				Bytes:   uint64(size),
				First:   now,
				Last:    now,
				OutPort: rec.OutPort,
			}
			if t.ring.Push(e) {
				t.counters.SamplesQueued.Inc()
			} else {
				t.counters.SamplesLost.Inc()
			}
		}
	}
}

// exportLocked pushes rec's current delta window onto the drain ring
// and resets the window. A window with zero packets exports nothing.
// Caller holds the record's shard mutex.
func (t *Table) exportLocked(rec *Record, reason uint8) {
	if rec.Packets == 0 {
		return
	}
	e := Export{
		Kind:      ExportFlow,
		EndReason: reason,
		Key:       rec.Key,
		Packets:   rec.Packets,
		Bytes:     rec.Bytes,
		First:     rec.First,
		Last:      rec.Last,
		OutPort:   rec.OutPort,
	}
	if t.ring.Push(e) {
		t.counters.RecordsQueued.Inc()
	} else {
		t.counters.RecordsLost.Inc()
	}
	rec.Packets = 0
	rec.Bytes = 0
	rec.First = 0
}

// sweepLocked applies the active/idle timers to every record of sh.
// Caller holds sh.mu.
func (t *Table) sweepLocked(sh *shard, now int64) {
	sh.nextSweep = now + t.cfg.SweepInterval.Nanoseconds()
	t.counters.Sweeps.Inc()
	idle := t.cfg.IdleTimeout.Nanoseconds()
	active := t.cfg.ActiveTimeout.Nanoseconds()
	for mk, rec := range sh.flows {
		switch {
		case now-rec.Last >= idle:
			t.exportLocked(rec, EndIdle)
			delete(sh.flows, mk)
			t.counters.FlowsExpired.Inc()
		case rec.Packets > 0 && now-rec.First >= active:
			t.exportLocked(rec, EndActive)
		}
	}
}

// Sweep runs a timer sweep over every shard that is due. Safe from
// any goroutine; the worker runtime calls it when a worker goes idle
// so flows still expire when the datapath quiesces.
func (t *Table) Sweep(now int64) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if now >= sh.nextSweep {
			t.sweepLocked(sh, now)
		}
		sh.mu.Unlock()
	}
}

// FlushAll force-exports a final record for every live flow and
// empties the table. The datapath keeps working throughout: a flow seen
// again starts a fresh record. Called on worker pool shutdown, at daemon
// exit, and by tests.
func (t *Table) FlushAll(now int64) {
	t.FlushWhere(nil, now)
}

// FlushWhere force-exports and removes every live flow whose record the
// predicate accepts (nil accepts everything). The predicate is handed the
// packed key of the packet that opened the record, every header field
// included. The flow-table expiry path uses it to end exactly the flows
// an expired entry carried, so exported totals track the datapath
// counters without force-ending every unrelated flow's window.
func (t *Table) FlushWhere(pred func(*pkt.FlatKey) bool, now int64) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for mk, rec := range sh.flows {
			if pred != nil && !pred(&rec.opener) {
				continue
			}
			t.exportLocked(rec, EndForced)
			delete(sh.flows, mk)
			t.counters.FlowsExpired.Inc()
		}
		if pred == nil {
			sh.nextSweep = now + t.cfg.SweepInterval.Nanoseconds()
		}
		sh.mu.Unlock()
	}
}

// Snapshot returns the live flows (current delta windows), sorted by
// byte count descending — the top-talkers view.
func (t *Table) Snapshot() []Record {
	var out []Record
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, rec := range sh.flows {
			if rec.Packets > 0 {
				out = append(out, *rec)
			}
		}
		sh.mu.Unlock()
	}
	// Bytes descending, cheap deterministic tie-breaks (a /flows
	// snapshot can be tens of thousands of records — no string
	// rendering in the comparator).
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		if a.Packets != b.Packets {
			return a.Packets > b.Packets
		}
		return a.First < b.First
	})
	return out
}
