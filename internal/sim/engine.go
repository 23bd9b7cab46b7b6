// Package sim is the deterministic fleet-scale simulation engine: a
// discrete-event loop over netem's virtual-time ManualClock and
// scenario machinery (topology, workload, fault schedule) that drives
// the rest of the stack on virtual time. Two execution
// modes share the scenario format: flow mode walks generated fabrics
// analytically and scales to thousands of switches and millions of
// flow arrivals; packet mode instantiates real softswitch datapaths on
// virtual netem links for small-topology cross-checks. Everything runs
// on one goroutine from one seed, so a run's verdict digest is
// byte-reproducible across machines, -race, and GOMAXPROCS settings.
package sim

import (
	"errors"
	"fmt"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
)

// Engine is the deterministic scheduler of one run. All simulation
// events — workload arrivals, link deliveries, fault injections,
// timer-driven sweeps — are ManualClock callbacks; Run drains them in
// virtual-time order.
type Engine struct {
	clock *netem.ManualClock
	start time.Time
}

// NewEngine builds an engine at virtual time zero.
func NewEngine() *Engine {
	c := netem.NewManualClock()
	return &Engine{clock: c, start: c.Now()}
}

// Clock exposes the engine's scheduler for injection into netem links,
// softswitch instances and control channels.
func (e *Engine) Clock() *netem.ManualClock { return e.clock }

// Now returns the current virtual time.
func (e *Engine) Now() time.Time { return e.clock.Now() }

// Elapsed returns virtual time since the engine started.
func (e *Engine) Elapsed() time.Duration { return e.clock.Now().Sub(e.start) }

// After schedules f at Now()+d on the virtual timeline.
func (e *Engine) After(d time.Duration, f func()) (cancel func() bool) {
	return e.clock.AfterFunc(d, f)
}

// At schedules f at absolute virtual offset d from run start. Offsets
// already in the past fire on the next step.
func (e *Engine) At(d time.Duration, f func()) (cancel func() bool) {
	return e.clock.AfterFunc(e.start.Add(d).Sub(e.clock.Now()), f)
}

// RunOpts bounds a Run.
type RunOpts struct {
	// Until stops the run once virtual time reaches this offset from
	// run start (0 = run until the event queue drains).
	Until time.Duration
	// WallBudget aborts the run if it burns more than this much real
	// time (0 = unbounded) — the runaway guard for self-rescheduling
	// loops. Checked between events, so one pathological callback can
	// overshoot.
	WallBudget time.Duration
}

// RunStats reports how a Run ended.
type RunStats struct {
	Events     uint64        // callbacks fired by this Run
	VirtualEnd time.Duration // virtual offset from run start at exit
	Wall       time.Duration // real time burned
	Drained    bool          // event queue empty at exit
}

// ErrWallBudget reports a Run aborted for exceeding RunOpts.WallBudget.
var ErrWallBudget = errors.New("sim: wall-clock budget exceeded")

// Run executes the event loop: step to the next timer deadline, fire
// everything due there, repeat. Returns when the queue drains, the
// Until horizon is reached, or a budget trips.
func (e *Engine) Run(opts RunOpts) (RunStats, error) {
	wallStart := time.Now() // wall budget and report timing only, never simulation time
	fired0 := e.clock.Fired()
	var horizon time.Time
	if opts.Until > 0 {
		horizon = e.start.Add(opts.Until)
	}
	step := 0
	for {
		next, ok := e.clock.NextTimer()
		if !ok {
			st := e.stats(fired0, wallStart)
			st.Drained = true
			return st, nil
		}
		if opts.Until > 0 && next.After(horizon) {
			e.clock.AdvanceTo(horizon)
			return e.stats(fired0, wallStart), nil
		}
		e.clock.AdvanceTo(next)
		if step++; step&0xff == 0 && opts.WallBudget > 0 && time.Since(wallStart) > opts.WallBudget {
			return e.stats(fired0, wallStart), fmt.Errorf("%w (%v)", ErrWallBudget, opts.WallBudget)
		}
	}
}

func (e *Engine) stats(fired0 uint64, wallStart time.Time) RunStats {
	return RunStats{
		Events:     e.clock.Fired() - fired0,
		VirtualEnd: e.Elapsed(),
		Wall:       time.Since(wallStart),
	}
}
