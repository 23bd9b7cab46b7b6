package migrate

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"time"

	"github.com/harmless-sdn/harmless/internal/cost"
	"github.com/harmless-sdn/harmless/internal/sim"
)

// WaveReport is one wave's verdict.
type WaveReport struct {
	Index    int      `json:"index"`
	Switches []string `json:"switches"`
	Ports    int      `json:"ports"`

	// PlannedCost is the wave's price from the plan; ActualCost is what
	// the campaign actually booked (0 for a rolled-back wave — its
	// server is returned to the pool).
	PlannedCost float64 `json:"plannedCost"`
	ActualCost  float64 `json:"actualCost"`
	// CumulativeSpend accumulates ActualCost through this wave;
	// the baselines price the same cumulative committed ports under the
	// comparison strategies.
	CumulativeSpend       float64 `json:"cumulativeSpend"`
	BaselineRipAndReplace float64 `json:"baselineRipAndReplace"`
	BaselinePureSoftware  float64 `json:"baselinePureSoftware"`

	DeployAt  sim.Duration `json:"deployAt"`
	DecidedAt sim.Duration `json:"decidedAt"`
	// Outcome is "committed" or "rolledBack".
	Outcome string `json:"outcome"`
	// Fault records an injected mid-wave fault, if any.
	Fault    string       `json:"fault,omitempty"`
	FaultAt  sim.Duration `json:"faultAt"`
	Failover bool         `json:"failover,omitempty"`
	// ConfigConform: committed waves match their plan through the
	// management plane; rolled-back waves restored the exact pre-wave
	// running config.
	ConfigConform bool   `json:"configConform"`
	Reason        string `json:"reason,omitempty"`
}

// Report is a campaign run's verdict. Digest covers every field except
// WallMS and Digest itself, so identical specs and seeds must produce
// identical digests regardless of machine speed (the fleetsim
// convention).
type Report struct {
	Campaign    string `json:"campaign"`
	Seed        int64  `json:"seed"`
	Switches    int    `json:"switches"`
	AccessPorts int    `json:"accessPorts"`

	Waves           []WaveReport `json:"waves"`
	CommittedWaves  int          `json:"committedWaves"`
	RolledBackWaves int          `json:"rolledBackWaves"`
	MigratedPorts   int          `json:"migratedPorts"`

	// PlannedSpend is the full-plan price; ActualSpend books only
	// committed waves. The baselines price the full fabric.
	PlannedSpend          float64 `json:"plannedSpend"`
	ActualSpend           float64 `json:"actualSpend"`
	BaselineRipAndReplace float64 `json:"baselineRipAndReplace"`
	BaselinePureSoftware  float64 `json:"baselinePureSoftware"`
	CrossoverWave         int     `json:"crossoverWave"`
	// CostConform: every wave's planned cost re-derives bitwise from
	// internal/cost and actual spend sums exactly over committed waves.
	CostConform bool `json:"costConform"`

	// Traffic books. CounterExact is the zero-loss invariant: every
	// datagram offered during the whole campaign — including mid-wave
	// faults and rollbacks — was delivered.
	Sent            uint64 `json:"sentDatagrams"`
	Received        uint64 `json:"receivedDatagrams"`
	Lost            uint64 `json:"lostDatagrams"`
	SendErrs        uint64 `json:"sendErrors"`
	DeadTrunkFrames uint64 `json:"deadTrunkFrames"`
	CounterExact    bool   `json:"counterExact"`

	Failures []string `json:"failures,omitempty"`
	Pass     bool     `json:"pass"`

	Events     uint64       `json:"events"`
	VirtualEnd sim.Duration `json:"virtualEnd"`
	WallMS     int64        `json:"wallMS"` // excluded from Digest
	Digest     string       `json:"digest"` // excluded from itself
}

// ComputeDigest is the canonical report digest: SHA-256 over the
// report's JSON with the wall-time and digest fields zeroed.
func (r Report) ComputeDigest() string {
	r.WallMS = 0
	r.Digest = ""
	b, err := json.Marshal(r)
	if err != nil {
		return "marshal-error"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// finish builds the verified report after the event loop drains.
func (x *Executor) finish(st sim.RunStats, wallStart time.Time) *Report {
	rep := &Report{
		Campaign:              x.spec.Name,
		Seed:                  x.spec.Seed,
		Switches:              len(x.spec.Switches),
		PlannedSpend:          x.plan.TotalSpend,
		BaselineRipAndReplace: x.plan.FinalRipAndReplace,
		BaselinePureSoftware:  x.plan.FinalPureSoftware,
		CrossoverWave:         x.plan.CrossoverWave,
		CostConform:           true,
		Events:                st.Events,
		VirtualEnd:            sim.Duration{Duration: st.VirtualEnd},
	}
	for _, s := range x.spec.Switches {
		rep.AccessPorts += s.AccessPorts()
	}

	committedPorts := 0
	for _, w := range x.waves {
		wr := WaveReport{
			Index:         w.plan.Index,
			Switches:      w.plan.Names(),
			Ports:         w.plan.Ports,
			PlannedCost:   w.plan.Cost.Total,
			DeployAt:      sim.Duration{Duration: w.deployAt},
			DecidedAt:     sim.Duration{Duration: w.decidedAt},
			Outcome:       w.outcome,
			Fault:         string(w.fault),
			FaultAt:       sim.Duration{Duration: w.faultAt},
			Failover:      w.failover,
			ConfigConform: w.configConform,
			Reason:        w.reason,
		}
		if w.outcome == "" {
			wr.Outcome = "undecided"
			x.failf("wave %d never reached a verdict", w.plan.Index)
		}
		// Cost conformance: the planned figure must re-derive bitwise
		// from internal/cost right now — the plan cannot drift from the
		// model it claims to follow.
		if b, err := x.plan.Catalog.WaveCost(len(w.plan.Switches), w.plan.Ports); err != nil || b.Total != w.plan.Cost.Total {
			rep.CostConform = false
			x.failf("wave %d: planned cost $%v does not re-derive from the cost model", w.plan.Index, w.plan.Cost.Total)
		}
		if w.outcome == OutcomeCommitted {
			wr.ActualCost = w.plan.Cost.Total
			rep.CommittedWaves++
			rep.MigratedPorts += w.plan.Ports
			committedPorts += w.plan.Ports
		} else if w.outcome == OutcomeRolledBack {
			rep.RolledBackWaves++
		}
		rep.ActualSpend += wr.ActualCost
		wr.CumulativeSpend = rep.ActualSpend
		if committedPorts > 0 {
			if rr, err := x.plan.Catalog.Cost(cost.RipAndReplace, committedPorts, false); err == nil {
				wr.BaselineRipAndReplace = rr.Total
			}
			if ps, err := x.plan.Catalog.Cost(cost.PureSoftware, committedPorts, false); err == nil {
				wr.BaselinePureSoftware = ps.Total
			}
		}
		rep.Waves = append(rep.Waves, wr)
	}
	if math.Abs(rep.ActualSpend-sumCommitted(rep.Waves)) != 0 {
		rep.CostConform = false
	}

	for _, r := range x.rigs {
		rep.Sent += r.sent
		rep.Received += r.received
		rep.SendErrs += r.sendErrs
		rep.DeadTrunkFrames += r.deadTrunkRx
	}
	if rep.Sent >= rep.Received {
		rep.Lost = rep.Sent - rep.Received
	}
	rep.CounterExact = rep.Lost == 0 && rep.SendErrs == 0 && rep.Sent == rep.Received && rep.Sent > 0

	allConform := true
	for _, wr := range rep.Waves {
		if !wr.ConfigConform || wr.Outcome == "undecided" {
			allConform = false
		}
	}
	rep.Failures = x.failures
	rep.Pass = rep.CounterExact && rep.CostConform && allConform && len(rep.Failures) == 0
	rep.WallMS = time.Since(wallStart).Milliseconds()
	rep.Digest = rep.ComputeDigest()
	return rep
}

// sumCommitted re-adds the per-wave actuals as a books cross-check.
func sumCommitted(waves []WaveReport) float64 {
	var t float64
	for _, w := range waves {
		t += w.ActualCost
	}
	return t
}
