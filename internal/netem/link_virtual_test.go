package netem

import (
	"testing"
	"time"
)

// A virtual async link delivers nothing until the scheduler reaches
// the modeled arrival instant, send time plus Latency, then delivers in
// FIFO order.
func TestVirtualLinkTiming(t *testing.T) {
	clock := NewManualClock()
	l := NewLink(LinkConfig{
		Async:     true,
		Scheduler: clock,
		Latency:   10 * time.Millisecond,
		Name:      "vt",
	})
	defer l.Close()

	type arrival struct {
		at  time.Time
		len int
	}
	var got []arrival
	l.B().SetReceiver(func(f []byte) { got = append(got, arrival{clock.Now(), len(f)}) })

	start := clock.Now()
	// Frames sent at +0 and +5ms arrive at +10ms and +15ms.
	if err := l.A().Send(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(5 * time.Millisecond)
	if err := l.A().Send(make([]byte, 6)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("delivery before the latency elapsed")
	}
	clock.Advance(4 * time.Millisecond)
	if len(got) != 0 {
		t.Fatalf("delivery at +9ms, want first arrival at +10ms (got %d)", len(got))
	}
	clock.Advance(time.Millisecond)
	if len(got) != 1 || got[0].len != 5 || !got[0].at.Equal(start.Add(10*time.Millisecond)) {
		t.Fatalf("first arrival = %+v, want the 5-byte frame at +10ms", got)
	}
	clock.Advance(5 * time.Millisecond)
	if len(got) != 2 || got[1].len != 6 || !got[1].at.Equal(start.Add(15*time.Millisecond)) {
		t.Fatalf("second arrival = %+v, want the 6-byte frame at +15ms", got)
	}
}

// FIFO order per direction survives bursts: equal-deadline deliveries
// fire in send order on an untimed virtual link.
func TestVirtualLinkFIFO(t *testing.T) {
	clock := NewManualClock()
	l := NewLink(LinkConfig{Async: true, Scheduler: clock, Name: "fifo"})
	defer l.Close()
	var got []byte
	l.B().SetReceiver(func(f []byte) { got = append(got, f[0]) })
	for i := 0; i < 64; i++ {
		if err := l.A().Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(0)
	if len(got) != 64 {
		t.Fatalf("delivered %d frames, want 64", len(got))
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("frame %d carries %d: FIFO order violated", i, b)
		}
	}
}

// QueueLen bounds the frames in flight per direction; overflow is
// tail-dropped and counted, exactly like the goroutine-pump mode.
func TestVirtualLinkQueueOverflow(t *testing.T) {
	clock := NewManualClock()
	l := NewLink(LinkConfig{
		Async:     true,
		Scheduler: clock,
		Latency:   time.Millisecond,
		QueueLen:  8,
		Name:      "q",
	})
	defer l.Close()
	delivered := 0
	l.B().SetReceiver(func([]byte) { delivered++ })
	for i := 0; i < 20; i++ {
		if err := l.A().Send([]byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if drops := l.A().Counters().TxDropped.Load(); drops != 12 {
		t.Fatalf("TxDropped = %d, want 12 (20 sent into a queue of 8)", drops)
	}
	clock.Advance(time.Second)
	if delivered != 8 {
		t.Fatalf("delivered %d, want 8", delivered)
	}
	// The queue drained: a fresh burst is admitted again.
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if delivered != 9 {
		t.Fatalf("delivered %d after drain, want 9", delivered)
	}
}

// Seeded loss drops the same frames on every run of the same seed.
func TestVirtualLinkSeededLossDeterminism(t *testing.T) {
	run := func() []int {
		clock := NewManualClock()
		l := NewLink(LinkConfig{Async: true, Scheduler: clock, LossProb: 0.3, Seed: 99, Name: "loss"})
		defer l.Close()
		var got []int
		l.B().SetReceiver(func(f []byte) { got = append(got, int(f[0])) })
		for i := 0; i < 100; i++ {
			if err := l.A().Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(time.Second)
		return got
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 100 {
		t.Fatalf("loss model delivered %d/100, want some drops and some deliveries", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("two seeded runs delivered %d vs %d frames", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverge at frame %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Close cancels pending virtual deliveries.
func TestVirtualLinkClose(t *testing.T) {
	clock := NewManualClock()
	l := NewLink(LinkConfig{Async: true, Scheduler: clock, Latency: time.Millisecond, Name: "close"})
	delivered := 0
	l.B().SetReceiver(func([]byte) { delivered++ })
	if err := l.A().Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	clock.Advance(time.Second)
	if delivered != 0 {
		t.Fatal("frame delivered after Close")
	}
	if err := l.A().Send([]byte{1}); err != ErrLinkClosed {
		t.Fatalf("Send after Close = %v, want ErrLinkClosed", err)
	}
}
