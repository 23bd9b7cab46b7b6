package stats

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Load() != 10 {
		t.Errorf("Load = %d", c.Load())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Errorf("Load = %d, want 8000", c.Load())
	}
}

func TestShardedCounter(t *testing.T) {
	s := NewShardedCounter(4)
	if s.Shards() != 4 {
		t.Fatalf("shards = %d", s.Shards())
	}
	s.Shard(0).Add(5)
	s.Shard(3).Inc()
	if s.Load() != 6 {
		t.Errorf("Load = %d, want 6", s.Load())
	}
	// Clamped to at least one shard.
	if NewShardedCounter(0).Shards() != 1 {
		t.Error("zero-shard counter not clamped")
	}
}

func TestShardedCounterConcurrent(t *testing.T) {
	const writers = 8
	perWriter := 10000
	if testing.Short() {
		perWriter = 1000
	}
	s := NewShardedCounter(writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.Shard(w) // each writer owns one shard, per the contract
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := s.Load(); got != uint64(writers*perWriter) {
		t.Errorf("Load = %d, want %d", got, writers*perWriter)
	}
}

func TestPortCounters(t *testing.T) {
	var p PortCounters
	p.RxPackets.Add(2)
	p.RxBytes.Add(150)
	p.TxPackets.Inc()
	p.TxBytes.Add(70)
	p.RxDropped.Add(3)
	p.TxDropped.Add(4)
	p.RxErrors.Inc()
	if got, want := p.String(), "rx=2/150B tx=1/70B drop=3/4 err=1"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram must report zeros")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 1000 || h.Max() != 100000 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	mean := h.Mean()
	if mean < 50000 || mean > 51000 {
		t.Errorf("mean = %f", mean)
	}
	p50 := h.Percentile(50)
	// Bucketing error tolerance: within 10% of true median 50500.
	if float64(p50) < 45000 || float64(p50) > 56000 {
		t.Errorf("p50 = %d", p50)
	}
	p99 := h.Percentile(99)
	if float64(p99) < 90000 || float64(p99) > 110000 {
		t.Errorf("p99 = %d", p99)
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := NewHistogram()
	f := func(samples []uint32) bool {
		for _, s := range samples {
			h.Record(int64(s))
		}
		last := int64(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < last {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBucketError(t *testing.T) {
	// Every sample must land in a bucket whose low bound is within
	// 6.25% below the sample value.
	f := func(v uint32) bool {
		idx := bucketIndex(int64(v))
		low := bucketLow(idx)
		if low > int64(v) {
			return false
		}
		if v >= subBuckets {
			err := float64(int64(v)-low) / float64(v)
			return err < 1.0/subBuckets
		}
		return low == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBucketBoundaryRoundTrip(t *testing.T) {
	// Buckets beyond msb 62 are unreachable for positive int64 samples
	// (bucketLow would overflow), so stop at the last reachable index.
	maxReachable := (62-subBucketBits+1)*subBuckets + subBuckets // exclusive
	for idx := 0; idx < maxReachable; idx++ {
		low := bucketLow(idx)
		if got := bucketIndex(low); got != idx {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", idx, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 || h.Count() != 1 {
		t.Errorf("negative sample: min=%d count=%d", h.Min(), h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Max() < 3000 {
		t.Errorf("Max = %d", h.Max())
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(5 * time.Microsecond)
	if h.Max() != 5000 {
		t.Errorf("Max = %d", h.Max())
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(int64(i))
	}
	s := h.Summarize()
	if s.Count != 1000 {
		t.Errorf("Count = %d", s.Count)
	}
	if math.Abs(s.Mean-499.5) > 1 {
		t.Errorf("Mean = %f", s.Mean)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}

func TestDistribution(t *testing.T) {
	d := NewDistribution()
	d.Add("b1", 30)
	d.Add("b2", 30)
	d.Add("b3", 40)
	if d.Total() != 100 {
		t.Errorf("Total = %d", d.Total())
	}
	if d.Get("b3") != 40 {
		t.Errorf("Get(b3) = %d", d.Get("b3"))
	}
	shares := d.Shares()
	if len(shares) != 3 {
		t.Fatalf("Shares = %+v", shares)
	}
	if shares[0].Key != "b1" || shares[1].Key != "b2" || shares[2].Key != "b3" {
		t.Errorf("order: %+v", shares)
	}
	if math.Abs(shares[2].Fraction-0.4) > 1e-9 {
		t.Errorf("fraction: %+v", shares[2])
	}
}

func TestDistributionEmpty(t *testing.T) {
	d := NewDistribution()
	if d.Total() != 0 || len(d.Shares()) != 0 {
		t.Error("empty distribution")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i))
	}
}

// TestShardedCounterMergeUnderConcurrentAdd reads (merges) the counter
// while the writers are still adding: every observed value must be
// monotonically non-decreasing and never exceed the amount already
// added; the final merge must be exact. This is the contract the
// telemetry drains rely on when they snapshot per-worker shards while
// the workers keep counting.
func TestShardedCounterMergeUnderConcurrentAdd(t *testing.T) {
	const writers = 4
	perWriter := 20000
	if testing.Short() {
		perWriter = 2000
	}
	s := NewShardedCounter(writers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := s.Shard(w)
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}(w)
	}
	var monoErr error
	merges := 0
	go func() {
		defer close(stop)
		var last uint64
		for {
			got := s.Load()
			if got < last {
				monoErr = fmt.Errorf("merge went backwards: %d after %d", got, last)
				return
			}
			if got > uint64(writers*perWriter) {
				monoErr = fmt.Errorf("merge overshot: %d > %d", got, writers*perWriter)
				return
			}
			last = got
			merges++
			if got == uint64(writers*perWriter) {
				return
			}
		}
	}()
	wg.Wait()
	<-stop
	if monoErr != nil {
		t.Fatal(monoErr)
	}
	if merges == 0 {
		t.Fatal("reader never merged mid-add")
	}
	if got := s.Load(); got != uint64(writers*perWriter) {
		t.Fatalf("final merge = %d, want %d", got, writers*perWriter)
	}
}

func TestTelemetryCounters(t *testing.T) {
	var c TelemetryCounters
	c.FlowsCreated.Add(3)
	c.RecordsQueued.Add(2)
	c.RecordsLost.Inc()
	c.Sweeps.Inc()
	s := c.String()
	for _, want := range []string{"flows=3", "records=2", "lost=1", "sweeps=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
