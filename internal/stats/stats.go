// Package stats provides the lightweight measurement primitives the
// HARMLESS evaluation harness uses: atomic packet/byte counters, a
// log-bucketed latency histogram with percentile queries, and rate
// summaries. Everything is allocation-free on the record path so
// instrumentation does not perturb the experiments.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// PortCounters aggregates the standard per-port statistics every
// dataplane element (legacy switch ports, soft switch ports) exposes;
// the layout mirrors the OpenFlow port-stats body.
type PortCounters struct {
	RxPackets Counter
	TxPackets Counter
	RxBytes   Counter
	TxBytes   Counter
	RxDropped Counter
	TxDropped Counter
	RxErrors  Counter
}

// String summarizes the counters.
func (p *PortCounters) String() string {
	return fmt.Sprintf("rx=%d/%dB tx=%d/%dB drop=%d/%d err=%d",
		p.RxPackets.Load(), p.RxBytes.Load(),
		p.TxPackets.Load(), p.TxBytes.Load(),
		p.RxDropped.Load(), p.TxDropped.Load(), p.RxErrors.Load())
}

// CacheCounters aggregates the statistics of the softswitch's flow
// cache: how often a packet was served from the cache, how often it
// had to take the slow pipeline walk, and how much churn the cache saw.
// All fields are atomic, so the record path stays allocation- and
// lock-free.
type CacheCounters struct {
	Hits          Counter // packet served from a valid cache entry
	Misses        Counter // packet took the full pipeline walk
	Inserts       Counter // entries installed after a walk
	Invalidations Counter // hits discarded because a revision moved
	Evictions     Counter // entries displaced by capacity pressure
	Bypassed      Counter // packets that skipped the cache entirely (adaptive bypass)
}

// HitRate returns the fraction of packets served from the cache, in
// [0,1]; 0 if nothing was recorded yet.
func (c *CacheCounters) HitRate() float64 {
	h, m := c.Hits.Load(), c.Misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// String summarizes the counters.
func (c *CacheCounters) String() string {
	return fmt.Sprintf("hits=%d misses=%d (%.1f%%) inserts=%d inval=%d evict=%d bypass=%d",
		c.Hits.Load(), c.Misses.Load(), c.HitRate()*100,
		c.Inserts.Load(), c.Invalidations.Load(), c.Evictions.Load(), c.Bypassed.Load())
}

// TelemetryCounters aggregates the statistics of the flow-telemetry
// plane: flow-record churn in the datapath shards, the shard-drain
// ring between the shards and the aggregator, and the sFlow-style
// packet sampler. All fields are atomic so the shard sweep path stays
// allocation- and lock-free beyond the shard's own mutex.
type TelemetryCounters struct {
	FlowsCreated  Counter // records created by first-seen packets
	FlowsExpired  Counter // records removed by the idle-timeout sweep
	FlowsEvicted  Counter // records displaced by shard capacity pressure
	RecordsQueued Counter // record snapshots pushed onto the drain ring
	RecordsLost   Counter // snapshots dropped because the drain ring was full
	SamplesQueued Counter // packet samples pushed onto the drain ring
	SamplesLost   Counter // samples dropped because the drain ring was full
	Sweeps        Counter // shard timer sweeps executed
}

// String summarizes the counters.
func (t *TelemetryCounters) String() string {
	return fmt.Sprintf("flows=%d expired=%d evicted=%d records=%d lost=%d samples=%d/%d sweeps=%d",
		t.FlowsCreated.Load(), t.FlowsExpired.Load(), t.FlowsEvicted.Load(),
		t.RecordsQueued.Load(), t.RecordsLost.Load(),
		t.SamplesQueued.Load(), t.SamplesLost.Load(), t.Sweeps.Load())
}

// histogram bucket layout: 64 log2 buckets of 16 linear sub-buckets
// each covers the full uint64 nanosecond range with <6.25% relative
// error, in the spirit of HdrHistogram.
const (
	subBucketBits  = 4
	subBuckets     = 1 << subBucketBits
	histMaxBuckets = 64 * subBuckets
)

// Histogram is a concurrency-safe log-bucketed histogram of
// non-negative int64 samples (typically latencies in nanoseconds).
type Histogram struct {
	buckets [histMaxBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	min     atomic.Int64
	max     atomic.Int64
	once    sync.Once
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.init()
	return h
}

func (h *Histogram) init() {
	h.once.Do(func() { h.min.Store(math.MaxInt64) })
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Position of highest bit determines the log bucket; the next
	// subBucketBits bits select the linear sub-bucket.
	msb := bits.Len64(uint64(v)) - 1
	shift := msb - subBucketBits
	idx := (msb-subBucketBits+1)*subBuckets + int(uint64(v)>>uint(shift)&(subBuckets-1))
	if idx >= histMaxBuckets {
		idx = histMaxBuckets - 1
	}
	return idx
}

// bucketLow returns the lowest value that maps to bucket idx.
func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	log := idx/subBuckets + subBucketBits - 1
	sub := idx % subBuckets
	return int64(1)<<uint(log) + int64(sub)<<uint(log-subBucketBits)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	h.init()
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// RecordDuration adds one duration sample in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the arithmetic mean of the samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Min returns the smallest recorded sample, or 0 if empty.
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Max returns the largest recorded sample, or 0 if empty.
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Percentile returns an upper-bound estimate of the p-th percentile
// (0 < p <= 100). The estimate errs high by at most one sub-bucket
// width (<6.25%).
func (h *Histogram) Percentile(p float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min()
	}
	if p >= 100 {
		return h.Max()
	}
	rank := uint64(math.Ceil(p / 100 * float64(total)))
	var seen uint64
	for i := 0; i < histMaxBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.Max()
}

// Summary holds a rendered percentile summary of a histogram.
type Summary struct {
	Count               uint64
	Mean, P50, P95, P99 float64
	Min, Max            int64
}

// Summarize extracts the standard summary used by the experiment
// reports, values in the unit the samples were recorded in.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   float64(h.Percentile(50)),
		P95:   float64(h.Percentile(95)),
		P99:   float64(h.Percentile(99)),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// String renders the summary assuming nanosecond samples.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Count,
		time.Duration(s.Mean), time.Duration(s.P50),
		time.Duration(s.P95), time.Duration(s.P99), time.Duration(s.Max))
}

// Distribution counts occurrences of arbitrary keys; used by the load
// balancer experiment to report the per-backend share. Safe for
// concurrent use.
type Distribution struct {
	mu sync.Mutex
	m  map[string]uint64
}

// NewDistribution returns an empty distribution.
func NewDistribution() *Distribution {
	return &Distribution{m: make(map[string]uint64)}
}

// Add increments the count of key by n.
func (d *Distribution) Add(key string, n uint64) {
	d.mu.Lock()
	d.m[key] += n
	d.mu.Unlock()
}

// Shares returns keys sorted lexicographically with their fraction of
// the total.
func (d *Distribution) Shares() []Share {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total uint64
	for _, v := range d.m {
		total += v
	}
	keys := make([]string, 0, len(d.m))
	for k := range d.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Share, 0, len(keys))
	for _, k := range keys {
		frac := 0.0
		if total > 0 {
			frac = float64(d.m[k]) / float64(total)
		}
		out = append(out, Share{Key: k, Count: d.m[k], Fraction: frac})
	}
	return out
}

// Share is one entry of Distribution.Shares.
type Share struct {
	Key      string
	Count    uint64
	Fraction float64
}
