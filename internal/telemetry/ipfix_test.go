package telemetry

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

func wireKey(i int) FlowKey {
	k := mkKey(i)
	return KeyFromPacket(&k)
}

func TestIPFIXRoundTrip(t *testing.T) {
	enc := &Encoder{Domain: 7}
	recs := []WireRecord{
		{
			Key:     wireKey(1),
			Packets: 10, Bytes: 640,
			RevPackets: 4, RevBytes: 256,
			First: 1e9, Last: 2e9,
			OutPort:   3,
			EndReason: EndIdle,
		},
		{
			Key:     wireKey(2),
			Packets: 1, Bytes: 60,
			First: 3e9, Last: 3e9,
			EndReason: EndForced,
		},
	}
	samples := []WireSample{{Key: wireKey(1), Size: 64, OutPort: 3, Interval: 64}}
	col := NewCollector()
	n, err := enc.Encode(recs, samples, 1234, col.ExportMessage)
	if err != nil || n != 1 {
		t.Fatalf("Encode = %d, %v", n, err)
	}
	if enc.Sequence() != 3 {
		t.Fatalf("sequence = %d, want 3 data records", enc.Sequence())
	}
	msgs, records, samps, errs := col.Stats()
	if msgs != 1 || records != 2 || samps != 1 || errs != 0 {
		t.Fatalf("collector stats = %d msgs %d recs %d samples %d errs", msgs, records, samps, errs)
	}
	pkts, bytes := col.Totals()
	if pkts != 15 || bytes != 956 {
		t.Fatalf("totals = %d pkts %d bytes, want 15/956 (fwd+rev)", pkts, bytes)
	}
	flows := col.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	top := flows[0]
	if top.Key != recs[0].Key {
		t.Fatalf("top flow key mismatch:\n got %v\nwant %v", top.Key, recs[0].Key)
	}
	if top.RevPackets != 4 || top.RevBytes != 256 || top.OutPort != 3 || top.EndReason != EndIdle {
		t.Fatalf("reverse/egress fields lost: %+v", top)
	}
	if top.FirstMs != 1000 || top.LastMs != 2000 {
		t.Fatalf("timestamps = %d..%d ms", top.FirstMs, top.LastMs)
	}
	if col.SampleBytes() != 64 {
		t.Fatalf("sample bytes = %d", col.SampleBytes())
	}
}

func TestIPFIXChunking(t *testing.T) {
	enc := &Encoder{Domain: 1}
	var recs []WireRecord
	for i := 0; i < 40; i++ {
		recs = append(recs, WireRecord{Key: wireKey(i), Packets: 1, Bytes: 64, First: 1, Last: 2})
	}
	col := NewCollector()
	n, err := enc.Encode(recs, nil, 0, func(msg []byte) error {
		if len(msg) > 1500 {
			t.Fatalf("message %d bytes exceeds MTU budget", len(msg))
		}
		return col.Consume(append([]byte(nil), msg...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // 14+14+12
		t.Fatalf("messages = %d, want 3", n)
	}
	if _, records, _, _ := col.Stats(); records != 40 {
		t.Fatalf("records = %d, want 40", records)
	}
	if len(col.Flows()) != 40 {
		t.Fatalf("flows = %d", len(col.Flows()))
	}
}

func TestCollectorAccumulatesDeltas(t *testing.T) {
	enc := &Encoder{}
	col := NewCollector()
	rec := WireRecord{Key: wireKey(1), Packets: 5, Bytes: 320, First: 1e9, Last: 2e9}
	if _, err := enc.Encode([]WireRecord{rec}, nil, 0, col.ExportMessage); err != nil {
		t.Fatal(err)
	}
	rec.Packets, rec.Bytes, rec.First, rec.Last = 3, 192, 3e9, 4e9
	if _, err := enc.Encode([]WireRecord{rec}, nil, 0, col.ExportMessage); err != nil {
		t.Fatal(err)
	}
	flows := col.Flows()
	if len(flows) != 1 || flows[0].Packets != 8 || flows[0].Bytes != 512 || flows[0].Records != 2 {
		t.Fatalf("delta accumulation wrong: %+v", flows)
	}
	if flows[0].FirstMs != 1000 || flows[0].LastMs != 4000 {
		t.Fatalf("window bounds wrong: %+v", flows[0])
	}
}

// TestCollectorBoundsFlows: past maxCollectedFlows distinct flows the
// per-flow map stops growing, while the totals still count every
// record fed.
func TestCollectorBoundsFlows(t *testing.T) {
	enc := &Encoder{}
	col := NewCollector()
	const fed = maxCollectedFlows + 100
	recs := make([]WireRecord, 0, fed)
	for i := 0; i < fed; i++ {
		k := mkKey(0)
		k.IPSrc = pkt.IPv4{10, byte(i >> 16), byte(i >> 8), byte(i)}
		recs = append(recs, WireRecord{Key: KeyFromPacket(&k), Packets: 1, Bytes: 64, First: 1e9, Last: 2e9})
	}
	if _, err := enc.Encode(recs, nil, 0, col.ExportMessage); err != nil {
		t.Fatal(err)
	}
	if _, records, _, _ := col.Stats(); records != fed {
		t.Fatalf("records = %d, want %d", records, fed)
	}
	if n := len(col.Flows()); n > maxCollectedFlows {
		t.Errorf("flows = %d, want at most %d", n, maxCollectedFlows)
	}
	if pkts, bytes := col.Totals(); pkts != fed || bytes != 64*fed {
		t.Errorf("totals = %d packets / %d bytes, want %d / %d", pkts, bytes, fed, 64*fed)
	}
}

func TestCollectorRejectsGarbage(t *testing.T) {
	col := NewCollector()
	if err := col.Consume([]byte{1, 2, 3}); err == nil {
		t.Fatal("short message accepted")
	}
	bad := make([]byte, ipfixHeaderLen)
	bad[1] = 9 // version 9, not IPFIX
	bad[3] = ipfixHeaderLen
	if err := col.Consume(bad); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Data set without a template must error, not panic.
	enc := &Encoder{}
	msg := enc.encodeOne([]WireRecord{{Key: wireKey(1), Packets: 1, Bytes: 1}}, nil, 0)
	fresh := NewCollector()
	// Strip the template set: header (16) + template set, then data.
	// Corrupt instead by truncating mid-record.
	if err := fresh.Consume(msg[:len(msg)-3]); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, _, _, errs := fresh.Stats(); errs != 1 {
		t.Fatal("decode error not counted")
	}
}

// narrowOctetsMsg is a 33-byte message whose template gives
// octetDeltaCount a length of one byte, followed by one such record:
// RFC 7011 reduced-size encoding.
func narrowOctetsMsg() []byte {
	b := binary.BigEndian.AppendUint16(nil, ipfixVersion)
	b = binary.BigEndian.AppendUint16(b, 33)
	b = append(b, make([]byte, 12)...) // export time, sequence, domain
	for _, v := range []uint16{TemplateSetID, 12, FlowTemplateID, 1, ieOctetDeltaCount, 1, FlowTemplateID, 5} {
		b = binary.BigEndian.AppendUint16(b, v)
	}
	return append(b, 42)
}

// TestCollectorReadsReducedSizeNumbers: a numeric IE narrower than its
// native width is read at the width the template declares, where it
// used to index past the field and panic the collector.
func TestCollectorReadsReducedSizeNumbers(t *testing.T) {
	col := NewCollector()
	if err := col.Consume(narrowOctetsMsg()); err != nil {
		t.Fatal(err)
	}
	if _, bytes := col.Totals(); bytes != 42 {
		t.Fatalf("octets = %d, want 42", bytes)
	}
}

func TestUDPExporterToCollector(t *testing.T) {
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	col := NewCollector()
	go col.ServeUDP(pc) //nolint:errcheck

	exp, err := NewUDPExporter(pc.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	enc := &Encoder{Domain: 2}
	if _, err := enc.Encode([]WireRecord{{Key: wireKey(9), Packets: 7, Bytes: 448, First: 1, Last: 2}}, nil, 0, exp.ExportMessage); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if pkts, bytes := col.Totals(); pkts == 7 && bytes == 448 {
			break
		}
		if time.Now().After(deadline) {
			pkts, bytes := col.Totals()
			t.Fatalf("UDP round-trip timed out: got %d/%d", pkts, bytes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Sanity: the wire key survived intact.
	flows := col.Flows()
	if len(flows) != 1 || flows[0].Key.IPSrc != (pkt.IPv4{10, 1, 0, 9}) {
		t.Fatalf("wire flow = %+v", flows)
	}
}
