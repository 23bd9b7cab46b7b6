package telemetry

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
)

// push enqueues a flow export onto the table's drain ring directly —
// aggregator tests drive the ring without a datapath.
func push(t *testing.T, tab *Table, e Export) {
	t.Helper()
	if !tab.Ring().Push(e) {
		t.Fatal("ring full")
	}
}

func TestAggregatorBiflowMerge(t *testing.T) {
	tab := NewTable(Config{})
	col := NewCollector()
	agg := NewAggregator(tab, col, time.Hour)

	fwd := wireKey(1) // 10.1.0.1:1025 -> 10.2.0.1:80
	rev := FlowKey{
		EthSrc: fwd.EthDst, EthDst: fwd.EthSrc,
		EthType: fwd.EthType,
		IPSrc:   fwd.IPDst, IPDst: fwd.IPSrc,
		Proto: fwd.Proto,
		L4Src: fwd.L4Dst, L4Dst: fwd.L4Src,
		InPort: 2,
	}
	push(t, tab, Export{Key: fwd, Packets: 10, Bytes: 640, First: 1e9, Last: 2e9, OutPort: 2})
	push(t, tab, Export{Key: rev, Packets: 4, Bytes: 256, First: 1_500_000_000, Last: 3e9})
	// A second forward delta in the same window merges additively.
	push(t, tab, Export{Key: fwd, Packets: 2, Bytes: 128, First: 2e9, Last: 4e9})
	agg.Flush()

	flows := col.Flows()
	if len(flows) != 1 {
		t.Fatalf("flows = %d, want 1 merged biflow", len(flows))
	}
	f := flows[0]
	if f.Key != fwd {
		t.Fatalf("merged record must carry the first-seen direction, got %v", f.Key)
	}
	if f.Packets != 12 || f.Bytes != 768 || f.RevPackets != 4 || f.RevBytes != 256 {
		t.Fatalf("merged counters wrong: %+v", f)
	}
	if f.FirstMs != 1000 || f.LastMs != 4000 {
		t.Fatalf("merged window wrong: %+v", f)
	}
	st := agg.Stats()
	if st.Drained != 3 || st.FlowRecords != 1 || st.Biflows != 1 || st.Messages != 1 {
		t.Fatalf("aggregator stats = %+v", st)
	}
	pkts, bytes := col.Totals()
	if pkts != 16 || bytes != 1024 {
		t.Fatalf("totals = %d/%d", pkts, bytes)
	}
}

// lastMessage keeps a copy of the last message it was handed.
type lastMessage []byte

func (m *lastMessage) ExportMessage(msg []byte) error {
	*m = append((*m)[:0], msg...)
	return nil
}

func (m *lastMessage) Close() error { return nil }

// TestAggregatorExportTimeOnClock: the IPFIX header's export time is
// read from the aggregator's clock, so a virtual-time run stamps its
// messages with virtual time and its exports repeat bit for bit.
func TestAggregatorExportTimeOnClock(t *testing.T) {
	clk := netem.NewManualClock()
	clk.Advance(90 * time.Minute)
	tab := NewTable(Config{})
	var msg lastMessage
	agg := NewAggregator(tab, &msg, time.Hour).SetClock(clk)
	push(t, tab, Export{Key: wireKey(1), Packets: 1, Bytes: 64, First: 1, Last: 1})
	agg.Flush()
	if len(msg) < 8 {
		t.Fatalf("exported %d bytes, want an IPFIX message", len(msg))
	}
	if got, want := binary.BigEndian.Uint32(msg[4:8]), uint32(clk.Now().Unix()); got != want {
		t.Errorf("export time %d, want the clock's %d", got, want)
	}
}

func TestAggregatorDistinctFlowsStaySeparate(t *testing.T) {
	tab := NewTable(Config{})
	col := NewCollector()
	agg := NewAggregator(tab, col, time.Hour)
	push(t, tab, Export{Key: wireKey(1), Packets: 1, Bytes: 64, First: 1, Last: 1})
	push(t, tab, Export{Key: wireKey(2), Packets: 1, Bytes: 64, First: 1, Last: 1})
	agg.Flush()
	if len(col.Flows()) != 2 {
		t.Fatalf("flows = %d, want 2", len(col.Flows()))
	}
}

func TestAggregatorSamplesPassThrough(t *testing.T) {
	tab := NewTable(Config{SampleRate: 64})
	col := NewCollector()
	agg := NewAggregator(tab, col, time.Hour)
	push(t, tab, Export{Kind: ExportSample, Key: wireKey(1), Packets: 1, Bytes: 64, First: 1, Last: 1})
	agg.Flush()
	if _, _, samples, _ := col.Stats(); samples != 1 {
		t.Fatalf("samples = %d", samples)
	}
	if agg.Stats().Samples != 1 {
		t.Fatal("aggregator sample counter")
	}
}

func TestAggregatorStartStop(t *testing.T) {
	tab := NewTable(Config{})
	col := NewCollector()
	agg := NewAggregator(tab, col, time.Millisecond)
	agg.Start()
	push(t, tab, Export{Key: wireKey(1), Packets: 3, Bytes: 192, First: 1, Last: 2})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pkts, _ := col.Totals(); pkts == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("aggregator loop never exported")
		}
		time.Sleep(time.Millisecond)
	}
	agg.Stop()
	agg.Stop() // idempotent
	// After Stop, a manual Flush still works (shutdown path).
	push(t, tab, Export{Key: wireKey(2), Packets: 1, Bytes: 64, First: 3, Last: 3})
	agg.Flush()
	if pkts, _ := col.Totals(); pkts != 4 {
		t.Fatalf("post-stop flush lost records: %d", pkts)
	}
}

func TestCanonKeyARPFlowsDistinct(t *testing.T) {
	// Two different ARP conversations (all-zero IPs/ports) must not
	// collapse into one biflow bucket.
	a := FlowKey{EthSrc: [6]byte{2, 0, 0, 0, 0, 1}, EthDst: [6]byte{2, 0, 0, 0, 0, 2}, EthType: 0x0806}
	b := FlowKey{EthSrc: [6]byte{2, 0, 0, 0, 0, 3}, EthDst: [6]byte{2, 0, 0, 0, 0, 4}, EthType: 0x0806}
	if canonKey(&a) == canonKey(&b) {
		t.Fatal("distinct ARP conversations share a biflow key")
	}
	// ...while the two directions of ONE conversation must.
	ar := FlowKey{EthSrc: a.EthDst, EthDst: a.EthSrc, EthType: 0x0806}
	if canonKey(&a) != canonKey(&ar) {
		t.Fatal("ARP request/reply directions do not merge")
	}
}

// SampleBytes returns the byte sum over received packet samples.
func (c *Collector) SampleBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sampleByte
}

// Sequence returns the number of data records encoded so far.
func (e *Encoder) Sequence() uint32 { return e.seq }

// SetClock makes the flush timer and export timestamps run on c —
// virtual time when c is a netem.Scheduler. Call before Start; the
// default is the wall clock.
func (a *Aggregator) SetClock(c netem.Clock) *Aggregator {
	if c != nil {
		a.clock = c
	}
	return a
}
