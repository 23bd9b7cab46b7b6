package migrate

import (
	"errors"
	"fmt"
	"time"

	"github.com/harmless-sdn/harmless/internal/sim"
)

// Wave outcomes.
const (
	OutcomeCommitted  = "committed"
	OutcomeRolledBack = "rolledBack"
)

// waveRun is one wave's execution state.
type waveRun struct {
	plan     Wave
	rigs     []*switchRig
	deployAt time.Duration

	outcome       string // "" until decided
	decidedAt     time.Duration
	fault         FaultKind
	faultAt       time.Duration
	failover      bool
	configConform bool
	reason        string
}

// Executor runs a campaign: it owns the virtual-time engine, the live
// switch rigs, and the wave schedule, and enforces the verifier's
// invariants while traffic flows.
type Executor struct {
	spec Spec
	plan *Plan
	eng  *sim.Engine

	rigs      []*switchRig
	rigByName map[string]*switchRig
	waves     []*waveRun

	payload   []byte
	end       time.Duration // last decide + tail: traffic stops here
	failures  []string
	lossNoted bool
}

// NewExecutor plans the campaign and builds the pre-migration fabric:
// every switch in its legacy factory state, hosts attached, traffic
// ready to flow.
func NewExecutor(spec Spec) (*Executor, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plan, err := PlanCampaign(spec.Switches, spec.ResolveCatalog(), spec.WaveBudget)
	if err != nil {
		return nil, err
	}
	x := &Executor{
		spec:      spec,
		plan:      plan,
		eng:       sim.NewEngine(),
		rigByName: make(map[string]*switchRig, len(spec.Switches)),
		payload:   []byte("harmless"),
	}
	// Rigs are built in planned wave order so rig index (and with it
	// MAC/IP addressing and datapath ids) is a pure function of the
	// plan.
	for _, w := range plan.Waves {
		for _, s := range w.Switches {
			r, err := newSwitchRig(x.eng, len(x.rigs), s)
			if err != nil {
				x.Close()
				return nil, err
			}
			x.rigs = append(x.rigs, r)
			x.rigByName[s.Name] = r
		}
	}
	soak, gap := spec.WaveSoak.Duration, spec.WaveGap.Duration
	for i, w := range plan.Waves {
		wr := &waveRun{plan: w, deployAt: gap + time.Duration(i)*(soak+gap)}
		for _, s := range w.Switches {
			wr.rigs = append(wr.rigs, x.rigByName[s.Name])
		}
		x.waves = append(x.waves, wr)
	}
	last := x.waves[len(x.waves)-1]
	x.end = last.deployAt + soak + spec.Tail.Duration
	return x, nil
}

// Plan exposes the campaign plan the executor runs.
func (x *Executor) Plan() *Plan { return x.plan }

// waveFor returns the wave migrating the named switch.
func (x *Executor) waveFor(name string) *waveRun {
	for _, w := range x.waves {
		for _, s := range w.plan.Switches {
			if s.Name == name {
				return w
			}
		}
	}
	return nil
}

// Run executes the campaign on virtual time and returns the verified
// report. wallBudget bounds real time spent (0 = unbounded).
func (x *Executor) Run(wallBudget time.Duration) (*Report, error) {
	defer x.Close()
	wallStart := time.Now() // report timing only, never simulation time

	// Wave schedule: deploy, then decide (commit or roll back) after
	// the soak window.
	for _, w := range x.waves {
		w := w
		x.eng.At(w.deployAt, func() { x.deployWave(w) })
		x.eng.At(w.deployAt+x.spec.WaveSoak.Duration, func() { x.decideWave(w) })
	}
	// Fault schedule: relative to the deploy instant of the wave
	// migrating the targeted switch.
	for _, f := range x.spec.Faults {
		f := f
		w := x.waveFor(f.Switch)
		x.eng.At(w.deployAt+f.AfterDeploy.Duration, func() { x.applyFault(f, w) })
	}
	// Traffic: a self-rescheduling tick until the campaign ends.
	x.eng.At(x.spec.TrafficInterval.Duration, x.trafficTick)

	st, err := x.eng.Run(sim.RunOpts{WallBudget: wallBudget})
	if err != nil {
		return nil, err
	}
	return x.finish(st, wallStart), nil
}

// trafficTick sends one round on every rig, checks conservation, and
// reschedules itself. Links are synchronous and the whole round runs
// in one callback, so the check sees a quiescent fabric.
func (x *Executor) trafficTick() {
	for _, r := range x.rigs {
		r.tick(x.payload)
	}
	if !x.checkConservation() {
		x.recordConservationFailure()
	}
	next := x.eng.Elapsed() + x.spec.TrafficInterval.Duration
	if next <= x.end {
		x.eng.After(x.spec.TrafficInterval.Duration, x.trafficTick)
	}
}

// deployWave migrates every switch of the wave inside one virtual-time
// callback: no traffic interleaves with the retagging, so the cutover
// is atomic from the hosts' point of view.
func (x *Executor) deployWave(w *waveRun) {
	for _, r := range w.rigs {
		if err := r.deploy(x.eng.Clock()); err != nil {
			x.failf("wave %d: deploying %s: %v", w.plan.Index, r.spec.Name, err)
			x.rollbackWave(w, fmt.Sprintf("deploy of %s failed", r.spec.Name))
			return
		}
	}
}

// decideWave is the post-soak verdict: a healthy, plan-conformant wave
// commits; anything else rolls back. A wave already decided (a
// mid-soak fault rolled it back) is left alone.
func (x *Executor) decideWave(w *waveRun) {
	if w.outcome != "" {
		return
	}
	for _, r := range w.rigs {
		if ok, reason := r.healthy(); !ok {
			x.rollbackWave(w, fmt.Sprintf("%s unhealthy at commit: %s", r.spec.Name, reason))
			return
		}
	}
	w.outcome = OutcomeCommitted
	w.decidedAt = x.eng.Elapsed()
	w.configConform = true
	for _, r := range w.rigs {
		if ok, reason := r.conforms(); !ok {
			w.configConform = false
			x.failf("wave %d: %s does not conform to plan: %s", w.plan.Index, r.spec.Name, reason)
		}
	}
}

// applyFault injects one fault and immediately runs the wave's health
// check — detection and rollback happen in the same virtual instant,
// so no traffic tick can land on a half-broken fabric (the zero-loss
// invariant is over host datagrams, and the fabric is quiescent for
// the whole callback).
func (x *Executor) applyFault(f FaultSpec, w *waveRun) {
	if w.outcome != "" {
		return
	}
	rig := x.rigByName[f.Switch]
	w.fault = f.Kind
	w.faultAt = x.eng.Elapsed()
	switch f.Kind {
	case FaultServerDown:
		rig.killServer()
	case FaultTrunkFlap:
		rig.flapped = true
		if err := rig.driver.SetPortShutdown(rig.trunkPort(), true); err != nil {
			x.failf("wave %d: flapping %s trunk: %v", w.plan.Index, rig.spec.Name, err)
		}
		x.eng.After(f.Duration.Duration, func() { x.endFlap(w, rig) })
	case FaultCtrlLoss:
		if err := rig.failover(); err != nil {
			x.failf("wave %d: failover on %s: %v", w.plan.Index, rig.spec.Name, err)
		} else {
			w.failover = true
		}
	}
	if ok, reason := rig.healthy(); !ok {
		x.rollbackWave(w, fmt.Sprintf("%s: %s", rig.spec.Name, reason))
	}
}

// rollbackWave returns every switch of the wave to its pre-wave legacy
// configuration and verifies the restoration. A switch whose trunk is
// still down from an in-flight flap defers its verification to the
// flap-up event (the shutdown line would spoil the comparison).
func (x *Executor) rollbackWave(w *waveRun, reason string) {
	w.outcome = OutcomeRolledBack
	w.decidedAt = x.eng.Elapsed()
	w.reason = reason
	w.configConform = true
	for _, r := range w.rigs {
		if err := r.rollback(); err != nil {
			w.configConform = false
			x.failf("wave %d: rolling back %s: %v", w.plan.Index, r.spec.Name, err)
			continue
		}
		if r.flapped {
			continue
		}
		x.verifyRestored(w, r)
	}
}

// verifyRestored checks one rolled-back switch against its pre-wave
// snapshot and books the verdict on the wave.
func (x *Executor) verifyRestored(w *waveRun, r *switchRig) {
	restored, err := r.restoredExactly()
	if err != nil {
		w.configConform = false
		x.failf("wave %d: verifying rollback of %s: %v", w.plan.Index, r.spec.Name, err)
		return
	}
	if !restored {
		w.configConform = false
		x.failf("wave %d: %s pre-wave config not restored", w.plan.Index, r.spec.Name)
	}
}

// endFlap re-enables a flapped trunk and completes the deferred
// rollback verification for the wave it failed.
func (x *Executor) endFlap(w *waveRun, r *switchRig) {
	r.flapped = false
	if err := r.driver.SetPortShutdown(r.trunkPort(), false); err != nil {
		x.failf("wave %d: re-enabling %s trunk: %v", w.plan.Index, r.spec.Name, err)
		return
	}
	if w.outcome == OutcomeRolledBack {
		x.verifyRestored(w, r)
	}
}

func (x *Executor) failf(format string, args ...any) {
	x.failures = append(x.failures, fmt.Sprintf(format, args...))
}

// Close tears down every rig; the returned error aggregates per-rig
// teardown failures.
func (x *Executor) Close() error {
	var errs []error
	for _, r := range x.rigs {
		if err := r.close(); err != nil {
			errs = append(errs, fmt.Errorf("migrate: closing %s: %w", r.spec.Name, err))
		}
	}
	return errors.Join(errs...)
}
