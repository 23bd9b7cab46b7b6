package main

import "runtime"

// probeResult is one isolated probe's measurement.
type probeResult struct {
	NsPerOp     float64            `json:"ns_per_op"` // median over slices
	AllocsPerOp float64            `json:"allocs_per_op"`
	Slices      int                `json:"slices"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

const (
	probeSliceNs   = 1e6 // a slice is calibrated to last at least this long
	probeMinSlices = 20
	probeMaxSlices = 4096
)

// measureProbe calibrates a slice to at least probeSliceNs (which also
// warms the probe up), then times slices until the budget is spent and
// reports the median slice's cost per operation. Allocations are
// counted around all slices, outside the timed regions.
func measureProbe(p probe, budgetNs int64) probeResult {
	slice := func(calls int) int64 {
		start := nowNs()
		for i := 0; i < calls; i++ {
			p.fn()
		}
		if p.settle != nil {
			p.settle()
		}
		return nowNs() - start
	}
	calls := 1
	for slice(calls) < probeSliceNs && calls < 1<<24 {
		calls *= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perOp := make([]float64, 0, probeMaxSlices)
	for deadline := nowNs() + budgetNs; len(perOp) < probeMinSlices || (nowNs() < deadline && len(perOp) < probeMaxSlices); {
		perOp = append(perOp, float64(slice(calls))/float64(calls*p.ops))
	}
	runtime.ReadMemStats(&after)
	res := probeResult{
		NsPerOp:     median(perOp),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(len(perOp)*calls*p.ops),
		Slices:      len(perOp),
	}
	if p.extra != nil {
		res.Extra = p.extra()
	}
	return res
}

// runProbes measures every isolated probe, one after the other.
func runProbes(p plan) (*childResult, error) {
	probes, err := buildProbes(p.Seed)
	defer func() {
		for _, pr := range probes {
			if pr.close != nil {
				pr.close()
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	res := &childResult{Probes: make(map[string]probeResult, len(probes))}
	for _, pr := range probes {
		res.Probes[pr.name] = measureProbe(pr, secondsToNs(p.ProbeSeconds))
	}
	return res, nil
}
