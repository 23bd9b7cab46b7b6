package main

import (
	"slices"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count, 0 for none). xs is not modified.
func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantile returns the q-quantile (0 < q < 1) of sorted whole-nanosecond
// samples. The clock reports whole nanoseconds, so thousands of samples
// tie on the value the quantile lands on; each recorded value v stands
// for the interval [v-0.5, v+0.5) and the result interpolates through
// the ties, the grouped-data estimator. That keeps sub-nanosecond
// movement of a 400 ns median visible instead of rounding it away.
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := min(int(rank), n-1)
	v := sorted[i]
	lo := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	hi := sort.Search(n, func(j int) bool { return sorted[j] > v })
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

// chunkQuantiles cuts samples into consecutive chunks of the given
// length (a trailing partial chunk is dropped unless it is all there
// is), sorts each in place and returns every chunk's median and 99th
// percentile, in order. A chunk of n samples has n/100 beyond its p99.
func chunkQuantiles(samples []uint32, chunk int) (p50s, p99s []float64) {
	if len(samples) < chunk {
		chunk = len(samples)
	}
	for lo := 0; chunk > 0 && lo+chunk <= len(samples); lo += chunk {
		c := samples[lo : lo+chunk]
		slices.Sort(c)
		p50s = append(p50s, quantile(c, 0.50))
		p99s = append(p99s, quantile(c, 0.99))
	}
	return p50s, p99s
}

// quantileOf returns the q-quantile (0 <= q <= 1) of xs, interpolating
// linearly between order statistics; 0 for none. xs is not modified.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// sliceRate converts one throughput slice to frames per second.
func sliceRate(frames int, ns int64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(frames) / (float64(ns) / 1e9)
}

// relDiff is how much b is worse than a as a share of a, for a metric
// where lower (or, with higherBetter, higher) is better. Negative
// means b is better.
func relDiff(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		return 0
	}
	if higherBetter {
		return (a - b) / a
	}
	return (b - a) / a
}
