package netem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSyncLinkDelivers(t *testing.T) {
	l := NewLink(LinkConfig{Name: "t"})
	defer l.Close()
	var got []byte
	l.B().SetReceiver(func(f []byte) { got = f })
	if err := l.A().Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("got %v", got)
	}
	// Reverse direction.
	var got2 []byte
	l.A().SetReceiver(func(f []byte) { got2 = f })
	if err := l.B().Send([]byte{9}); err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0] != 9 {
		t.Fatalf("got2 %v", got2)
	}
}

// TestSyncLinkCounters: a link delivers every frame whole and counts
// only what it drops; frames and bytes are the devices' to count.
func TestSyncLinkCounters(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	var frames, bytes int
	l.B().SetReceiver(func(f []byte) { frames, bytes = frames+1, bytes+len(f) })
	for i := 0; i < 5; i++ {
		if err := l.A().Send(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if frames != 5 || bytes != 500 {
		t.Errorf("delivered %d frames, %d bytes; want 5, 500", frames, bytes)
	}
	l.B().SetReceiver(nil)
	for i := 0; i < 2; i++ {
		if err := l.A().Send(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		p    *Port
		want string
	}{{l.A(), "rx=0/0B tx=0/0B drop=0/0 err=0"}, {l.B(), "rx=0/0B tx=0/0B drop=2/0 err=0"}} {
		if got := c.p.Counters().String(); got != c.want {
			t.Errorf("%s counters = %s, want %s", c.p, got, c.want)
		}
	}
}

func TestNoReceiverCountsDrop(t *testing.T) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if d := l.B().Counters().RxDropped.Load(); d != 1 {
		t.Errorf("RxDropped = %d", d)
	}
}

func TestClosedLink(t *testing.T) {
	l := NewLink(LinkConfig{})
	l.Close()
	if err := l.A().Send([]byte{1}); err != ErrLinkClosed {
		t.Errorf("err = %v", err)
	}
	l.Close() // idempotent
}

func TestLossDeterministic(t *testing.T) {
	countRx := func(seed int64) uint64 {
		l := NewLink(LinkConfig{LossProb: 0.5, Seed: seed})
		defer l.Close()
		var rx atomic.Uint64
		l.B().SetReceiver(func([]byte) { rx.Add(1) })
		for i := 0; i < 1000; i++ {
			_ = l.A().Send([]byte{byte(i)})
		}
		return rx.Load()
	}
	a, b := countRx(42), countRx(42)
	if a != b {
		t.Errorf("same seed must drop identically: %d vs %d", a, b)
	}
	if a < 300 || a > 700 {
		t.Errorf("50%% loss delivered %d/1000", a)
	}
}

func TestAsyncLinkDelivers(t *testing.T) {
	l := NewLink(LinkConfig{Async: true})
	defer l.Close()
	var mu sync.Mutex
	var got [][]byte
	done := make(chan struct{}, 10)
	l.B().SetReceiver(func(f []byte) {
		mu.Lock()
		got = append(got, f)
		mu.Unlock()
		done <- struct{}{}
	})
	for i := 0; i < 10; i++ {
		if err := l.A().Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("timeout waiting for async delivery")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("got %d frames", len(got))
	}
	for i, f := range got {
		if f[0] != byte(i) {
			t.Fatalf("FIFO order violated at %d: %v", i, f[0])
		}
	}
}

func TestAsyncLinkLatency(t *testing.T) {
	const lat = 20 * time.Millisecond
	l := NewLink(LinkConfig{Async: true, Latency: lat})
	defer l.Close()
	arrived := make(chan time.Time, 1)
	l.B().SetReceiver(func([]byte) { arrived <- time.Now() })
	start := time.Now()
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	select {
	case at := <-arrived:
		if d := at.Sub(start); d < lat {
			t.Errorf("arrived after %v, want >= %v", d, lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestAsyncQueueOverflowDrops(t *testing.T) {
	// Tiny queue and a pump held up by latency: floods must tail-drop.
	l := NewLink(LinkConfig{Async: true, QueueLen: 4, Latency: time.Second})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	for i := 0; i < 100; i++ {
		_ = l.A().Send(make([]byte, 1000))
	}
	if d := l.A().Counters().TxDropped.Load(); d == 0 {
		t.Error("expected tail drops on overflow")
	}
}

func TestHairpinReentrancy(t *testing.T) {
	// A receiver that sends back out the same port it received on (the
	// hairpin pattern) must not deadlock in sync mode.
	l := NewLink(LinkConfig{})
	defer l.Close()
	hops := 0
	l.B().SetReceiver(func(f []byte) {
		hops++
		if hops < 5 {
			_ = l.B().Send(f) // bounce back
		}
	})
	l.A().SetReceiver(func(f []byte) {
		hops++
		if hops < 5 {
			_ = l.A().Send(f)
		}
	})
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if hops != 5 {
		t.Errorf("hops = %d", hops)
	}
}

func TestManualClock(t *testing.T) {
	c := NewManualClock()
	t0 := c.Now()
	c.Advance(5 * time.Second)
	if d := c.Now().Sub(t0); d != 5*time.Second {
		t.Errorf("advanced %v", d)
	}
}

func TestRealClock(t *testing.T) {
	var c Clock = RealClock{}
	if c.Now().IsZero() {
		t.Error("real clock returned zero time")
	}
}

func BenchmarkSyncLinkSend(b *testing.B) {
	l := NewLink(LinkConfig{})
	defer l.Close()
	l.B().SetReceiver(func([]byte) {})
	frame := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.A().Send(frame); err != nil {
			b.Fatal(err)
		}
	}
}
