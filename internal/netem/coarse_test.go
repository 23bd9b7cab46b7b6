package netem_test

import (
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
)

// TestCoarseTracksRealClock reads the coarse real clock every
// millisecond for over two ticks, with two idle spells longer than a
// tick, so readings are served, go stale and are refreshed: every
// reading is at or before time.Now taken after it and within two ticks
// of time.Now taken before it.
func TestCoarseTracksRealClock(t *testing.T) {
	var worst time.Duration
	for i := 0; i < 250; i++ {
		before := time.Now()
		got := netem.Coarse(netem.RealClock{})
		after := time.Now()
		if got.After(after) {
			t.Fatalf("read %d: coarse reading is %v ahead of the clock", i, got.Sub(after))
		}
		if lag := before.Sub(got); lag > 2*netem.CoarseTick {
			t.Fatalf("read %d: coarse reading lags time.Now by %v, more than two ticks", i, lag)
		} else if lag > worst {
			worst = lag
		}
		if i%100 == 99 {
			time.Sleep(3 * netem.CoarseTick / 2)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	t.Logf("largest lag behind time.Now: %v (tick %v)", worst, netem.CoarseTick)
}

// TestCoarseTimerStopsWhenIdle: a read arms the one-shot timer; once
// it has fired, nothing arms it again until the next read.
func TestCoarseTimerStopsWhenIdle(t *testing.T) {
	netem.Coarse(netem.RealClock{})
	if !netem.CoarseArmed() {
		t.Fatal("a read left the timer idle")
	}
	waitCoarseIdle(t)
	time.Sleep(3 * netem.CoarseTick)
	if netem.CoarseArmed() {
		t.Fatal("timer re-armed with no read")
	}
	netem.Coarse(netem.RealClock{})
	if !netem.CoarseArmed() {
		t.Error("a read after idle did not arm the timer")
	}
}

// TestCoarseReadsOtherClocksExactly: any clock but the real one is read
// exactly and arms nothing, so virtual time does not move.
func TestCoarseReadsOtherClocksExactly(t *testing.T) {
	waitCoarseIdle(t) // let an earlier test's timer fire
	m := netem.NewManualClock()
	for _, d := range []time.Duration{0, time.Nanosecond, 3 * time.Second} {
		m.Advance(d)
		if got, want := netem.Coarse(m), m.Now(); !got.Equal(want) {
			t.Errorf("Coarse(manual) = %v, want %v", got, want)
		}
	}
	if netem.CoarseArmed() {
		t.Error("reading a manual clock armed the real clock's timer")
	}
}

// TestCoarseConcurrentReaders reads the coarse real clock from several
// goroutines across more than two ticks (run it with -race): every
// reading is at or before time.Now taken after it.
func TestCoarseConcurrentReaders(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for end := time.Now().Add(5 * netem.CoarseTick / 2); time.Now().Before(end); {
				if got, now := netem.Coarse(netem.RealClock{}), time.Now(); got.After(now) {
					t.Errorf("coarse reading is %v ahead of the clock", got.Sub(now))
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
}

// waitCoarseIdle waits for the coarse reading's timer to fire.
func waitCoarseIdle(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); netem.CoarseArmed(); {
		if time.Now().After(deadline) {
			t.Fatal("timer still armed 5s after the last read")
		}
		time.Sleep(time.Millisecond)
	}
}
