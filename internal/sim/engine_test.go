package sim

import (
	"errors"
	"testing"
	"time"
)

// The event loop drains timers in virtual order, including callbacks
// that schedule further work, without consuming wall time.
func TestEngineRunDrains(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() {
		order = append(order, 1)
		e.After(10*time.Millisecond, func() { order = append(order, 2) })
	})
	st, err := e.Run(RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drained {
		t.Error("queue not drained")
	}
	if st.Events != 3 {
		t.Errorf("Events = %d, want 3", st.Events)
	}
	if st.VirtualEnd != 30*time.Millisecond {
		t.Errorf("VirtualEnd = %v, want 30ms", st.VirtualEnd)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("firing order %v, want [1 2 3]", order)
	}
}

// Until stops at the horizon, leaving later events pending, and pins
// virtual time to exactly the horizon.
func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(5*time.Millisecond, func() { ran++ })
	e.At(50*time.Millisecond, func() { ran++ })
	st, err := e.Run(RunOpts{Until: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || st.Events != 1 {
		t.Errorf("fired %d/%d events, want 1 before the horizon", ran, st.Events)
	}
	if st.Drained {
		t.Error("Drained with an event pending past the horizon")
	}
	if st.VirtualEnd != 20*time.Millisecond {
		t.Errorf("VirtualEnd = %v, want exactly the 20ms horizon", st.VirtualEnd)
	}
	if e.Clock().PendingTimers() != 1 {
		t.Errorf("pending = %d, want the 50ms event still queued", e.Clock().PendingTimers())
	}
}

// WallBudget aborts a self-rescheduling loop.
func TestEngineRunWallBudget(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.After(time.Millisecond, tick) }
	e.After(time.Millisecond, tick)
	st, err := e.Run(RunOpts{WallBudget: 20 * time.Millisecond})
	if !errors.Is(err, ErrWallBudget) {
		t.Fatalf("err = %v, want ErrWallBudget", err)
	}
	if st.Drained || st.Events == 0 {
		t.Errorf("stats %+v, want a run cut short after some events", st)
	}
}
