package netem

import (
	"sync"
	"testing"
	"time"
)

func TestSendBatchSyncDeliversVector(t *testing.T) {
	l := NewLink(LinkConfig{Name: "b"})
	defer l.Close()
	var calls int
	var got [][]byte
	l.B().SetBatchReceiver(func(frames [][]byte) {
		calls++
		for _, f := range frames {
			got = append(got, append([]byte{}, f...))
		}
	})
	batch := [][]byte{{1}, {2}, {3}}
	if err := l.A().SendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("batch receiver invoked %d times, want 1 (vector delivery)", calls)
	}
	if len(got) != 3 || got[0][0] != 1 || got[2][0] != 3 {
		t.Fatalf("delivered %v", got)
	}
	if tx := l.A().Counters().TxPackets.Load(); tx != 3 {
		t.Errorf("tx packets = %d, want 3", tx)
	}
	if rx := l.B().Counters().RxPackets.Load(); rx != 3 {
		t.Errorf("rx packets = %d, want 3", rx)
	}
}

func TestSendBatchFallsBackPerFrame(t *testing.T) {
	l := NewLink(LinkConfig{Name: "pf"})
	defer l.Close()
	var got [][]byte
	l.B().SetReceiver(func(f []byte) { got = append(got, f) })
	if err := l.A().SendBatch([][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("per-frame fallback delivered %v", got)
	}
}

func TestWrapReceiverSeesBatchedFrames(t *testing.T) {
	l := NewLink(LinkConfig{Name: "tap"})
	defer l.Close()
	var direct, tapped int
	l.B().SetReceiver(func([]byte) { direct++ })
	l.B().SetBatchReceiver(func(frames [][]byte) { direct += len(frames) })
	l.B().WrapReceiver(func(next Receiver) Receiver {
		return func(f []byte) {
			tapped++
			next(f)
		}
	})
	if err := l.A().SendBatch([][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	// The wrapper must observe every frame: batch delivery may not
	// short-circuit past an installed tap.
	if tapped != 3 {
		t.Errorf("tap saw %d of 3 batched frames", tapped)
	}
	if direct != 3 {
		t.Errorf("receiver saw %d of 3 frames", direct)
	}
}

func TestAsyncUntimedPumpCoalesces(t *testing.T) {
	l := NewLink(LinkConfig{Name: "async", Async: true, QueueLen: 256})
	defer l.Close()
	var mu sync.Mutex
	total, calls, largest := 0, 0, 0
	ready := make(chan struct{}, 1)
	l.B().SetBatchReceiver(func(frames [][]byte) {
		mu.Lock()
		total += len(frames)
		calls++
		largest = max(largest, len(frames))
		done := total == 128
		mu.Unlock()
		if done {
			select {
			case ready <- struct{}{}:
			default:
			}
		}
		// Give the queue time to back up so later wakeups see vectors.
		time.Sleep(time.Millisecond)
	})
	for i := 0; i < 128; i++ {
		if err := l.A().Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("timed out: delivered %d of 128", total)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls >= 128 {
		t.Errorf("pump never coalesced: %d deliveries for 128 frames", calls)
	}
	if largest > rxBatch {
		t.Errorf("one delivery carried %d frames, more than the %d one wakeup drains", largest, rxBatch)
	}
}

func TestAsyncTimedPumpStaysPerFrame(t *testing.T) {
	// With a latency model each frame keeps its own arrival instant:
	// frames must still arrive, spaced by the serialization model.
	l := NewLink(LinkConfig{Name: "timed", Async: true, Latency: time.Millisecond})
	defer l.Close()
	got := make(chan []byte, 16)
	l.B().SetReceiver(func(f []byte) { got <- f })
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := l.A().Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		select {
		case f := <-got:
			if f[0] != byte(i) {
				t.Fatalf("frame %d out of order: %v", i, f)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("timed out waiting for frames")
		}
	}
	if elapsed := time.Since(start); elapsed < time.Millisecond {
		t.Errorf("latency model skipped: delivery took %v", elapsed)
	}
}
