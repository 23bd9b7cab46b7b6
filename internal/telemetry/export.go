package telemetry

import (
	"net"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// Exporter is the transport behind the aggregator: it receives fully
// encoded IPFIX-style messages. Implementations: UDPExporter (the
// wire), Collector (in-process, for tests and live views), and
// TeeExporter (both at once).
type Exporter interface {
	// ExportMessage sends one encoded message. The buffer is reused by
	// the encoder after the call returns; implementations must copy it
	// if they retain it.
	ExportMessage(msg []byte) error
	// Close releases the transport.
	Close() error
}

// UDPExporter ships messages to an IPFIX collector address over UDP.
type UDPExporter struct {
	conn net.Conn
}

// NewUDPExporter dials the collector address (host:port).
func NewUDPExporter(addr string) (*UDPExporter, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	return &UDPExporter{conn: conn}, nil
}

// ExportMessage implements Exporter.
func (u *UDPExporter) ExportMessage(msg []byte) error {
	_, err := u.conn.Write(msg)
	return err
}

// Close implements Exporter.
func (u *UDPExporter) Close() error { return u.conn.Close() }

// TeeExporter fans one message stream out to several exporters; the
// first error wins but every exporter still sees the message.
type TeeExporter []Exporter

// ExportMessage implements Exporter.
func (t TeeExporter) ExportMessage(msg []byte) error {
	var first error
	for _, e := range t {
		if err := e.ExportMessage(msg); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close implements Exporter.
func (t TeeExporter) Close() error {
	var first error
	for _, e := range t {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AggregatorStats are the aggregator-side counters.
type AggregatorStats struct {
	Drained      uint64 // snapshots drained off the ring
	FlowRecords  uint64 // wire flow records exported
	Biflows      uint64 // records that merged a reverse direction
	Samples      uint64 // wire samples exported
	Messages     uint64 // messages handed to the exporter
	ExportErrors uint64
}

// biKey identifies a bidirectional flow: the endpoint pair in
// canonical (ordered) form plus the invariant header fields.
// Interfaces are direction-dependent and deliberately excluded; the
// MAC pair (also ordered) keeps distinct non-IP conversations — ARP
// exchanges, whose IPs and ports are all zero here — from collapsing
// into one bucket.
type biKey struct {
	aMAC, bMAC   [6]byte
	aIP, bIP     [4]byte
	aPort, bPort uint16
	proto        uint8
	ethType      uint16
	vlan         uint16
}

func macLess(a, b [6]byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// canonKey returns the canonical biflow key of k.
func canonKey(k *FlowKey) biKey {
	b := biKey{proto: k.Proto, ethType: k.EthType, vlan: k.VLANID}
	fwd := false
	for i := 0; i < 4; i++ {
		if k.IPSrc[i] != k.IPDst[i] {
			fwd = k.IPSrc[i] < k.IPDst[i]
			goto ordered
		}
	}
	if k.L4Src != k.L4Dst {
		fwd = k.L4Src < k.L4Dst
	} else {
		fwd = !macLess(k.EthDst, k.EthSrc)
	}
ordered:
	if fwd {
		b.aMAC, b.bMAC = k.EthSrc, k.EthDst
		b.aIP, b.bIP = k.IPSrc, k.IPDst
		b.aPort, b.bPort = k.L4Src, k.L4Dst
	} else {
		b.aMAC, b.bMAC = k.EthDst, k.EthSrc
		b.aIP, b.bIP = k.IPDst, k.IPSrc
		b.aPort, b.bPort = k.L4Dst, k.L4Src
	}
	return b
}

// pendingFlow is one merge bucket of the current aggregation window.
type pendingFlow struct {
	rec    WireRecord
	merged bool // a reverse-direction record was folded in
}

// Aggregator drains the table's shard ring, merges same-window
// records — including opposite directions of one conversation into a
// single biflow record — and exports encoded messages on a flush
// interval. One goroutine (Start/Stop); Flush may also be called
// synchronously at any time, which tests and shutdown paths use for
// determinism.
type Aggregator struct {
	table    *Table
	exporter Exporter
	interval time.Duration
	clock    netem.Clock

	mu      sync.Mutex
	enc     Encoder
	pending map[biKey]*pendingFlow
	order   []biKey // export in first-seen order for determinism
	samples []WireSample

	drained  stats.Counter
	flowsOut stats.Counter
	biflows  stats.Counter
	sampOut  stats.Counter
	msgs     stats.Counter
	errs     stats.Counter

	stopOnce sync.Once
	stopC    chan struct{}
	doneC    chan struct{}
}

// NewAggregator wires an aggregator between t's ring and exp. flush
// is the aggregation window (default 1s): how long opposite-direction
// records may wait to merge before the window is encoded and shipped.
func NewAggregator(t *Table, exp Exporter, flush time.Duration) *Aggregator {
	if flush <= 0 {
		flush = time.Second
	}
	return &Aggregator{
		table:    t,
		exporter: exp,
		interval: flush,
		clock:    netem.RealClock{},
		enc:      Encoder{Domain: 1},
		pending:  make(map[biKey]*pendingFlow),
		stopC:    make(chan struct{}),
		doneC:    make(chan struct{}),
	}
}

// Clock returns the aggregator's timebase so companion views (the
// /flows HTTP handler) can timestamp against the same timeline.
func (a *Aggregator) Clock() netem.Clock { return a.clock }

// Start spawns the drain/flush loop.
func (a *Aggregator) Start() {
	go func() {
		defer close(a.doneC)
		tick := netem.NewTicker(a.clock, a.interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				a.Flush()
			case <-a.stopC:
				a.Flush()
				return
			}
		}
	}()
}

// Stop flushes once more and joins the loop. Idempotent. It does not
// close the exporter (the caller owns that).
func (a *Aggregator) Stop() {
	a.stopOnce.Do(func() {
		close(a.stopC)
		<-a.doneC
	})
}

// Flush synchronously drains the ring, merges, encodes and exports
// the current window. Safe from any goroutine.
func (a *Aggregator) Flush() {
	a.mu.Lock()
	defer a.mu.Unlock()
	ring := a.table.Ring()
	for {
		e, ok := ring.Pop()
		if !ok {
			break
		}
		a.drained.Inc()
		if e.Kind == ExportSample {
			a.samples = append(a.samples, WireSample{
				Key:      e.Key,
				Size:     uint32(e.Bytes),
				OutPort:  e.OutPort,
				Interval: uint32(a.table.cfg.SampleRate),
			})
			continue
		}
		a.merge(&e)
	}
	if len(a.pending) == 0 && len(a.samples) == 0 {
		return
	}
	flows := make([]WireRecord, 0, len(a.order))
	for _, bk := range a.order {
		p := a.pending[bk]
		flows = append(flows, p.rec)
		if p.merged {
			a.biflows.Inc()
		}
	}
	// Export order follows arrival and forced-eviction order;
	// evictLocked picks victims by map iteration deliberately
	// (pseudo-random eviction) and the digest gates compare totals, not
	// record order.
	n, err := a.enc.Encode(flows, a.samples, uint32(a.clock.Now().Unix()), a.exporter.ExportMessage)
	a.msgs.Add(uint64(n))
	if err != nil {
		a.errs.Inc()
	}
	a.flowsOut.Add(uint64(len(flows)))
	a.sampOut.Add(uint64(len(a.samples)))
	a.pending = make(map[biKey]*pendingFlow)
	a.order = a.order[:0]
	a.samples = a.samples[:0]
}

// merge folds one flow snapshot into the window: same-direction
// records add to the forward counters, opposite-direction records to
// the reverse counters of the record that opened the bucket.
func (a *Aggregator) merge(e *Export) {
	bk := canonKey(&e.Key)
	p := a.pending[bk]
	if p == nil {
		p = &pendingFlow{rec: WireRecord{
			Key:       e.Key,
			Packets:   e.Packets,
			Bytes:     e.Bytes,
			First:     e.First,
			Last:      e.Last,
			OutPort:   e.OutPort,
			EndReason: e.EndReason,
		}}
		a.pending[bk] = p
		a.order = append(a.order, bk)
		return
	}
	sameDir := p.rec.Key.IPSrc == e.Key.IPSrc && p.rec.Key.L4Src == e.Key.L4Src &&
		p.rec.Key.IPDst == e.Key.IPDst && p.rec.Key.L4Dst == e.Key.L4Dst &&
		p.rec.Key.EthSrc == e.Key.EthSrc && p.rec.Key.EthDst == e.Key.EthDst
	if sameDir {
		p.rec.Packets += e.Packets
		p.rec.Bytes += e.Bytes
	} else {
		p.rec.RevPackets += e.Packets
		p.rec.RevBytes += e.Bytes
		p.merged = true
	}
	if e.First != 0 && (p.rec.First == 0 || e.First < p.rec.First) {
		p.rec.First = e.First
	}
	if e.Last > p.rec.Last {
		p.rec.Last = e.Last
	}
	if p.rec.EndReason < e.EndReason {
		p.rec.EndReason = e.EndReason
	}
}

// Stats snapshots the aggregator counters.
func (a *Aggregator) Stats() AggregatorStats {
	return AggregatorStats{
		Drained:      a.drained.Load(),
		FlowRecords:  a.flowsOut.Load(),
		Biflows:      a.biflows.Load(),
		Samples:      a.sampOut.Load(),
		Messages:     a.msgs.Load(),
		ExportErrors: a.errs.Load(),
	}
}
