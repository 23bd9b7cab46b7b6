// Package netem emulates the physical substrate HARMLESS runs on:
// full-duplex point-to-point links between device ports, with optional
// latency and loss models. It replaces the wires, NICs and DPDK
// plumbing of the paper's testbed while preserving what the evaluation
// depends on: hop count, FIFO ordering per direction, and propagation
// delay.
//
// Links run in one of three modes:
//
//   - Synchronous (default): Send delivers the frame to the peer's
//     receiver in the calling goroutine. Deterministic and fast; used
//     by unit tests and the throughput benchmarks where queueing is
//     not under study. Devices must not hold locks while sending (a
//     hairpinned frame can re-enter the sending device on the same
//     stack).
//
//   - Asynchronous: each direction has a FIFO queue drained by its own
//     goroutine which applies the latency model in real time. Used by
//     the latency experiments (E3).
//
//   - Virtual (Async plus a Scheduler): the same latency model, but
//     deliveries are scheduled as virtual-time callbacks instead of
//     goroutine sleeps. A whole fabric driven from one goroutine on
//     one Scheduler is fully deterministic — the mode the fleet-scale
//     simulator (internal/sim, cmd/fleetsim) runs on.
//
// # The virtual-time contract
//
// Clock abstracts "what time is it"; Scheduler adds "run this at a
// future instant". ManualClock implements both and is the reference
// deterministic scheduler. Its ordering contract, which every
// Scheduler in this repo follows:
//
//   - Advance(d) (or AdvanceTo) fires every timer whose deadline is at
//     or before the post-advance instant — including timers that fall
//     EXACTLY on the advance boundary — in (deadline, registration
//     order) order. Two timers with the same deadline fire in the
//     order their AfterFunc calls were made.
//   - Callbacks run on the advancing goroutine, one at a time, with
//     Now() observed from inside a callback equal to that timer's own
//     deadline (time never appears to run backwards or skip ahead
//     mid-callback).
//   - A callback may call Now and AfterFunc. Timers it registers with
//     deadlines at or before the advance target fire later in the SAME
//     Advance, again in (deadline, registration) order. An AfterFunc(0)
//     registered outside any callback fires on the next Advance, even
//     Advance(0).
//   - Callbacks must not call Advance/AdvanceTo (re-entrant advancing
//     would deadlock); concurrent Advance calls from different
//     goroutines are serialized.
package netem

import (
	"container/heap"
	"sync"
	"time"
)

// Clock abstracts time so that aging and timeout logic in the devices
// is testable without real sleeps.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// Scheduler extends Clock with the ability to schedule callbacks at
// future instants of its own timeline. RealClock schedules on the
// runtime timer wheel; ManualClock fires callbacks deterministically
// from Advance (see the package doc for the ordering contract).
type Scheduler interface {
	Clock
	// AfterFunc arranges for f to run once at Now()+d (d <= 0 means
	// the next advance for virtual clocks, immediately-ish for real
	// ones). The returned cancel function reports whether it stopped
	// the timer before the callback ran.
	AfterFunc(d time.Duration, f func()) (cancel func() bool)
}

// RealClock reads the wall clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// AfterFunc implements Scheduler on the runtime timer wheel.
func (RealClock) AfterFunc(d time.Duration, f func()) (cancel func() bool) {
	t := time.AfterFunc(d, f)
	return t.Stop
}

// manualTimer is one pending ManualClock callback.
type manualTimer struct {
	when    time.Time
	seq     uint64 // registration order; the deadline tie-break
	f       func()
	idx     int // heap index, -1 once popped
	stopped bool
}

// timerHeap orders pending timers by (deadline, registration).
type timerHeap []*manualTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*manualTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.idx = -1
	*h = old[:n-1]
	return t
}

// ManualClock is a deterministic virtual-time Scheduler: time only
// moves when Advance/AdvanceTo is called, and pending AfterFunc timers
// fire from inside the advance following the ordering contract in the
// package doc. The zero value starts at a fixed arbitrary epoch; safe
// for concurrent use.
type ManualClock struct {
	mu     sync.Mutex
	t      time.Time
	timers timerHeap
	seq    uint64
	fired  uint64

	advMu sync.Mutex // serializes Advance/AdvanceTo
}

// NewManualClock returns a manual clock starting at a fixed epoch.
func NewManualClock() *ManualClock {
	return &ManualClock{t: time.Date(2017, 8, 22, 0, 0, 0, 0, time.UTC)}
}

// Now implements Clock.
func (m *ManualClock) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

// AfterFunc implements Scheduler: f will run during the Advance that
// reaches Now()+d. Callbacks with equal deadlines fire in registration
// order; see the package doc for the full contract.
func (m *ManualClock) AfterFunc(d time.Duration, f func()) (cancel func() bool) {
	if d < 0 {
		d = 0
	}
	m.mu.Lock()
	tm := &manualTimer{when: m.t.Add(d), seq: m.seq, f: f}
	m.seq++
	heap.Push(&m.timers, tm)
	m.mu.Unlock()
	return func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		if tm.stopped || tm.idx < 0 {
			return false
		}
		tm.stopped = true
		heap.Remove(&m.timers, tm.idx)
		return true
	}
}

// Advance moves the clock forward by d, firing due timers.
func (m *ManualClock) Advance(d time.Duration) {
	m.mu.Lock()
	target := m.t.Add(d)
	m.mu.Unlock()
	m.AdvanceTo(target)
}

// AdvanceTo moves the clock forward to target (no-op if target is in
// the past), firing every timer with a deadline at or before target —
// boundary deadlines included — in (deadline, registration) order.
// Time steps to each timer's deadline before its callback runs.
func (m *ManualClock) AdvanceTo(target time.Time) {
	m.advMu.Lock()
	defer m.advMu.Unlock()
	m.mu.Lock()
	for len(m.timers) > 0 && !m.timers[0].when.After(target) {
		tm := heap.Pop(&m.timers).(*manualTimer)
		if tm.stopped {
			continue
		}
		if m.t.Before(tm.when) {
			m.t = tm.when
		}
		m.fired++
		m.mu.Unlock()
		tm.f() // without the lock: may call Now/AfterFunc
		m.mu.Lock()
	}
	if m.t.Before(target) {
		m.t = target
	}
	m.mu.Unlock()
}

// NextTimer returns the earliest pending timer deadline, if any — the
// event-loop primitive the sim engine steps on.
func (m *ManualClock) NextTimer() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.timers) > 0 {
		if m.timers[0].stopped { // defensively skip (Stop removes eagerly)
			heap.Pop(&m.timers)
			continue
		}
		return m.timers[0].when, true
	}
	return time.Time{}, false
}

// PendingTimers returns the number of registered, unfired timers.
func (m *ManualClock) PendingTimers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.timers)
}

// Fired returns how many timer callbacks have run so far.
func (m *ManualClock) Fired() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fired
}
