package telemetry

import (
	"testing"
	"time"
)

// FuzzCollectorConsume hardens the IPFIX decoder against arbitrary
// datagrams: cmd/flowtop feeds it whatever arrives on its UDP socket.
// Consume must never panic, and it counts every message exactly once,
// as decoded or as a decode error.
func FuzzCollectorConsume(f *testing.F) {
	tab := NewTable(Config{SampleRate: 1})
	var msg lastMessage
	agg := NewAggregator(tab, &msg, time.Hour)
	tab.Ring().Push(Export{Key: wireKey(1), Packets: 3, Bytes: 192, First: 1e9, Last: 2e9, OutPort: 2})
	tab.Ring().Push(Export{Kind: ExportSample, Key: wireKey(2), Packets: 1, Bytes: 64, First: 1e9, Last: 1e9})
	agg.Flush()
	f.Add([]byte(msg))
	f.Add(narrowOctetsMsg())
	f.Fuzz(func(t *testing.T, b []byte) {
		col := NewCollector()
		err := col.Consume(b)
		msgs, _, _, errs := col.Stats()
		if (err == nil) != (msgs == 1) || (err != nil) != (errs == 1) {
			t.Fatalf("Consume = %v, counted %d messages and %d errors", err, msgs, errs)
		}
	})
}
