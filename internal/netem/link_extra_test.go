package netem

import (
	"encoding/binary"
	"sync/atomic"
	"testing"
)

func TestWrapReceiver(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	var order []string
	l.B().SetReceiver(func(f []byte) { order = append(order, "device") })
	l.B().WrapReceiver(func(next Receiver) Receiver {
		return func(f []byte) {
			order = append(order, "tap")
			next(f)
		}
	})
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "tap" || order[1] != "device" {
		t.Fatalf("order: %v", order)
	}
	// Wrapping a nil receiver must be tolerated by the wrapper itself.
	l2 := NewLink(LinkConfig{})
	defer l2.Close()
	var tapped atomic.Int32
	l2.B().WrapReceiver(func(next Receiver) Receiver {
		return func(f []byte) {
			tapped.Add(1)
			if next != nil {
				next(f)
			}
		}
	})
	if err := l2.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if tapped.Load() != 1 {
		t.Error("tap on receiverless port not invoked")
	}
}

// TestReceiverSwapWhileSending replaces a port's receivers with each
// of SetReceiver, SetBatchReceiver and WrapReceiver while another
// goroutine sends, frame by frame and in vectors: every frame reaches
// the old or the new receiver exactly once.
func TestReceiverSwapWhileSending(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	const frames = 20000
	var seen [frames]atomic.Int32
	recv := func(f []byte) { seen[binary.BigEndian.Uint32(f)].Add(1) }
	batch := func(fs [][]byte) {
		for _, f := range fs {
			recv(f)
		}
	}
	tap := func(next Receiver) Receiver { return func(f []byte) { next(f) } }
	l.B().SetReceiver(recv)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint32(0); i < frames; i += 2 {
			a, b := binary.BigEndian.AppendUint32(nil, i), binary.BigEndian.AppendUint32(nil, i+1)
			if i%4 == 0 {
				_ = l.A().Send(a)
				_ = l.A().Send(b)
			} else {
				_ = l.A().SendBatch([][]byte{a, b})
			}
		}
	}()
	for swaps := 0; ; swaps++ {
		select {
		case <-done:
			for i := range seen {
				if n := seen[i].Load(); n != 1 {
					t.Fatalf("frame %d delivered %d times across %d swaps", i, n, swaps)
				}
			}
			if d := l.B().Counters().RxDropped.Load(); d != 0 {
				t.Errorf("%d frames dropped mid-swap", d)
			}
			return
		default:
		}
		switch swaps % 3 {
		case 0:
			l.B().SetReceiver(recv)
		case 1:
			l.B().SetBatchReceiver(batch)
		case 2:
			l.B().WrapReceiver(tap)
		}
	}
}

// BenchmarkLinkModes quantifies the sync-vs-async ablation called out
// in DESIGN.md: what the deterministic in-caller delivery saves over
// goroutine queueing.
func BenchmarkLinkModes(b *testing.B) {
	frame := make([]byte, 256)
	b.Run("sync", func(b *testing.B) {
		l := NewLink(LinkConfig{})
		defer l.Close()
		l.B().SetReceiver(func([]byte) {})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = l.A().Send(frame)
		}
	})
	b.Run("async", func(b *testing.B) {
		l := NewLink(LinkConfig{Async: true, QueueLen: 4096})
		defer l.Close()
		done := make(chan struct{}, 1)
		var got atomic.Int64
		var want atomic.Int64
		l.B().SetReceiver(func([]byte) {
			if got.Add(1) == want.Load() {
				select {
				case done <- struct{}{}:
				default:
				}
			}
		})
		b.ReportAllocs()
		b.ResetTimer()
		want.Store(int64(b.N))
		for i := 0; i < b.N; i++ {
			for {
				if err := l.A().Send(frame); err != nil {
					b.Fatal(err)
				}
				break
			}
		}
		// Wait for the consumer to drain (bounded: tail drops possible
		// under overload are acceptable for the ablation, so poll).
		for got.Load()+int64(l.A().Counters().TxDropped.Load()) < int64(b.N) {
		}
	})
}
