package migrate

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/mgmt"
)

const testWallBudget = 60 * time.Second

// threeWaveSpec is the canonical e2e campaign: three switches, budget
// for one server per wave -> three waves, demand ordering alpha, bravo,
// charlie.
func threeWaveSpec() Spec {
	return Spec{
		Name: "e2e",
		Switches: []SwitchSpec{
			{Name: "alpha", Ports: 5, Demand: 3},
			{Name: "bravo", Ports: 5, Demand: 2},
			{Name: "charlie", Ports: 5, Demand: 1},
		},
	}
}

func waveByIndex(t *testing.T, rep *Report, idx int) WaveReport {
	t.Helper()
	for _, w := range rep.Waves {
		if w.Index == idx {
			return w
		}
	}
	t.Fatalf("report has no wave %d", idx)
	return WaveReport{}
}

// TestCampaignEndToEnd is the headline scenario: a three-wave campaign
// under continuous traffic where the middle wave's commodity server
// dies mid-soak. The wave must roll back to its exact pre-wave legacy
// config, the other two must commit, not one datagram may be lost, and
// the books must match internal/cost bitwise.
func TestCampaignEndToEnd(t *testing.T) {
	spec := threeWaveSpec()
	spec.Faults = []FaultSpec{{Kind: FaultServerDown, Switch: "bravo"}}

	x, err := NewExecutor(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan := x.Plan()
	if len(plan.Waves) != 3 {
		t.Fatalf("planned %d waves, want 3", len(plan.Waves))
	}
	rep, err := x.Run(testWallBudget)
	if err != nil {
		t.Fatal(err)
	}

	if len(rep.Failures) != 0 {
		t.Fatalf("campaign recorded failures: %v", rep.Failures)
	}
	if !rep.Pass {
		t.Fatal("campaign did not pass")
	}

	// Wave verdicts: bravo (wave 2, demand order) rolled back on the
	// server death; alpha and charlie committed.
	for idx, want := range map[int]string{1: OutcomeCommitted, 2: OutcomeRolledBack, 3: OutcomeCommitted} {
		if w := waveByIndex(t, rep, idx); w.Outcome != want {
			t.Errorf("wave %d: outcome %q, want %q (reason %q)", idx, w.Outcome, want, w.Reason)
		}
	}
	failed := waveByIndex(t, rep, 2)
	if failed.Switches[0] != "bravo" || failed.Fault != string(FaultServerDown) {
		t.Errorf("failed wave: switches %v fault %q", failed.Switches, failed.Fault)
	}
	if !failed.ConfigConform {
		t.Error("rolled-back wave did not restore its pre-wave running config")
	}
	if failed.ActualCost != 0 {
		t.Errorf("rolled-back wave booked $%v", failed.ActualCost)
	}
	if rep.CommittedWaves != 2 || rep.RolledBackWaves != 1 {
		t.Errorf("committed/rolledBack = %d/%d, want 2/1", rep.CommittedWaves, rep.RolledBackWaves)
	}

	// Zero loss across the whole campaign, fault included.
	if !rep.CounterExact || rep.Lost != 0 || rep.SendErrs != 0 {
		t.Errorf("traffic books: sent=%d received=%d lost=%d errs=%d",
			rep.Sent, rep.Received, rep.Lost, rep.SendErrs)
	}
	if rep.Sent == 0 {
		t.Error("campaign carried no traffic")
	}
	// The dead server must have absorbed some flood copies — proof the
	// fault actually bit.
	if rep.DeadTrunkFrames == 0 {
		t.Error("serverDown fault left no trace on the dead trunk")
	}

	// Cost books: committed waves only, each bitwise from internal/cost.
	if !rep.CostConform {
		t.Error("cost conformance failed")
	}
	wantSpend := waveByIndex(t, rep, 1).PlannedCost + waveByIndex(t, rep, 3).PlannedCost
	if rep.ActualSpend != wantSpend {
		t.Errorf("actual spend $%v, want $%v", rep.ActualSpend, wantSpend)
	}
	if rep.PlannedSpend != plan.TotalSpend {
		t.Errorf("planned spend $%v, plan says $%v", rep.PlannedSpend, plan.TotalSpend)
	}
}

// runCampaign plans and executes spec, failing the test on an
// operational error.
func runCampaign(t *testing.T, spec Spec) *Report {
	t.Helper()
	x, err := NewExecutor(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := x.Run(testWallBudget)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCampaignDeterministicDigest runs the identical faulted campaign
// twice; the reports must agree byte for byte modulo wall time.
func TestCampaignDeterministicDigest(t *testing.T) {
	spec := threeWaveSpec()
	spec.Faults = []FaultSpec{{Kind: FaultServerDown, Switch: "bravo"}}
	a := runCampaign(t, spec)
	b := runCampaign(t, spec)
	if a.Digest != b.Digest {
		t.Fatalf("digests diverge:\n  run1 %s\n  run2 %s", a.Digest, b.Digest)
	}
	if a.Digest != a.ComputeDigest() {
		t.Error("stored digest does not re-derive from the report")
	}
	if a.Events != b.Events || a.VirtualEnd != b.VirtualEnd {
		t.Errorf("event books diverge: %d/%v vs %d/%v", a.Events, a.VirtualEnd, b.Events, b.VirtualEnd)
	}
}

// TestCampaignControllerLossSurvives: losing the master controller
// mid-wave is NOT a wave failure — the slave promotes (the PR 5
// failover path) and the wave commits.
func TestCampaignControllerLossSurvives(t *testing.T) {
	spec := threeWaveSpec()
	spec.Faults = []FaultSpec{{Kind: FaultCtrlLoss, Switch: "alpha"}}
	rep := runCampaign(t, spec)
	if !rep.Pass {
		t.Fatalf("campaign failed: %v", rep.Failures)
	}
	if rep.CommittedWaves != 3 || rep.RolledBackWaves != 0 {
		t.Fatalf("committed/rolledBack = %d/%d, want 3/0", rep.CommittedWaves, rep.RolledBackWaves)
	}
	w := waveByIndex(t, rep, 1)
	if w.Fault != string(FaultCtrlLoss) || !w.Failover {
		t.Errorf("wave 1: fault %q failover=%v, want ctrlLoss with failover", w.Fault, w.Failover)
	}
	if !rep.CounterExact {
		t.Errorf("failover lost traffic: sent=%d received=%d", rep.Sent, rep.Received)
	}
}

// TestCampaignTrunkFlapRollsBack: an administratively flapped trunk
// fails its wave; the rollback verification is deferred past the flap
// and still proves exact restoration.
func TestCampaignTrunkFlapRollsBack(t *testing.T) {
	spec := threeWaveSpec()
	spec.Faults = []FaultSpec{{Kind: FaultTrunkFlap, Switch: "charlie"}}
	rep := runCampaign(t, spec)
	if !rep.Pass {
		t.Fatalf("campaign failed: %v", rep.Failures)
	}
	w := waveByIndex(t, rep, 3)
	if w.Outcome != OutcomeRolledBack || w.Fault != string(FaultTrunkFlap) {
		t.Fatalf("wave 3: outcome %q fault %q", w.Outcome, w.Fault)
	}
	if !w.ConfigConform {
		t.Error("flapped wave did not restore its pre-wave running config")
	}
	if !rep.CounterExact {
		t.Errorf("flap lost traffic: sent=%d received=%d", rep.Sent, rep.Received)
	}
}

// TestCampaignCleanRun: no faults, every wave commits, spend equals the
// full plan.
func TestCampaignCleanRun(t *testing.T) {
	rep := runCampaign(t, threeWaveSpec())
	if !rep.Pass || rep.CommittedWaves != 3 {
		t.Fatalf("clean campaign: pass=%v committed=%d failures=%v", rep.Pass, rep.CommittedWaves, rep.Failures)
	}
	if rep.ActualSpend != rep.PlannedSpend {
		t.Errorf("clean campaign spend $%v != plan $%v", rep.ActualSpend, rep.PlannedSpend)
	}
	if rep.MigratedPorts != rep.AccessPorts {
		t.Errorf("migrated %d of %d access ports", rep.MigratedPorts, rep.AccessPorts)
	}
}

// lostAckDriver stands for a management session that drops after the
// device ran a command: RemoveVLAN (which only a rollback issues)
// reaches the switch and then reports failure.
type lostAckDriver struct{ mgmt.Driver }

func (d lostAckDriver) RemoveVLAN(id uint16) error {
	if err := d.Driver.RemoveVLAN(id); err != nil {
		return err
	}
	return fmt.Errorf("injected: vlan %d removed, ack lost", id)
}

// TestCampaignRollbackErrorReachesReport: the running config reads
// restored, so the error Manager.Rollback returns is the only sign
// that the unwind is unconfirmed. It must fail the wave and name the
// device's error in the report.
func TestCampaignRollbackErrorReachesReport(t *testing.T) {
	spec := threeWaveSpec()
	spec.Faults = []FaultSpec{{Kind: FaultServerDown, Switch: "bravo"}}
	x, err := NewExecutor(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := x.rigByName["bravo"]
	r.driver = lostAckDriver{r.driver}
	rep, err := x.Run(testWallBudget)
	if err != nil {
		t.Fatal(err)
	}
	w := waveByIndex(t, rep, 2)
	if w.Outcome != OutcomeRolledBack {
		t.Fatalf("wave 2: outcome %q, want %q", w.Outcome, OutcomeRolledBack)
	}
	if w.ConfigConform || rep.Pass {
		t.Errorf("a rollback whose driver failed passed: configConform=%v pass=%v", w.ConfigConform, rep.Pass)
	}
	if !slices.ContainsFunc(rep.Failures, func(f string) bool {
		return strings.Contains(f, "rolling back bravo") && strings.Contains(f, "injected")
	}) {
		t.Errorf("report does not carry the rollback error: %v", rep.Failures)
	}
}
