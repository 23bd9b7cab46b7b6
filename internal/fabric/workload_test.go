package fabric

import (
	"bytes"
	"sort"
	"testing"
	"time"
)

// drain pulls the whole stream, checking the non-decreasing At
// contract as it goes.
func drain(t *testing.T, w Workload) []FlowArrival {
	t.Helper()
	var out []FlowArrival
	var last time.Duration
	for {
		a, ok := w.Next()
		if !ok {
			return out
		}
		if a.At < last {
			t.Fatalf("arrival %d at %v after one at %v: At order violated", len(out), a.At, last)
		}
		last = a.At
		out = append(out, a)
	}
}

// Seeded MixGenerator statistics: elephants carry ~elephantShare of
// the emitted frames, identified as the frames whose emission
// frequency towers over the mouse pool's (elephant and mouse tuples
// come from different seeds, so frame content is distinct).
func TestMixGeneratorElephantShare(t *testing.T) {
	const n = 200000
	const share = mixElephantShare
	const nElephants = 4
	g := NewMixGenerator(nElephants, 64, 16)
	freq := make(map[string]int)
	for i := 0; i < n; i++ {
		freq[string(g.Next())]++
	}
	counts := make([]int, 0, len(freq))
	for _, c := range freq {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if len(counts) < nElephants {
		t.Fatalf("only %d distinct frames emitted", len(counts))
	}
	top := 0
	for _, c := range counts[:nElephants] {
		top += c
	}
	got := float64(top) / n
	if got < share-0.02 || got > share+0.02 {
		t.Errorf("top-%d frame share = %.3f, want %.2f ± 0.02", nElephants, got, share)
	}
	// Mouse churn: with n emissions, ~n*(1-share) mouse frames over a
	// 64-mouse window living 16 packets each -> about n*0.2/16 churned.
	wantChurn := float64(n) * (1 - share) / 16
	if c := float64(g.Churned()); c < 0.8*wantChurn || c > 1.2*wantChurn {
		t.Errorf("Churned() = %.0f, want ~%.0f ± 20%%", c, wantChurn)
	}
}

// Two MixGenerators of one shape emit the same stream.
func TestMixGeneratorDeterminism(t *testing.T) {
	emit := func() []string {
		g := NewMixGenerator(2, 16, 8)
		out := make([]string, 2000)
		for i := range out {
			out[i] = string(g.Next())
		}
		return out
	}
	a, b := emit(), emit()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at frame %d", i)
		}
	}
}

// Poisson arrivals: the empirical rate matches the configured rate and
// the inter-arrival CV is ~1 (exponential), under a fixed seed.
func TestPoissonWorkloadStatistics(t *testing.T) {
	const flows = 50000
	const rate = 1000.0
	w, err := NewPoissonWorkload(100, flows, rate, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, w)
	if len(arr) != flows {
		t.Fatalf("stream yielded %d arrivals, want %d", len(arr), flows)
	}
	span := arr[len(arr)-1].At.Seconds()
	gotRate := float64(len(arr)) / span
	if gotRate < 0.95*rate || gotRate > 1.05*rate {
		t.Errorf("empirical rate %.1f/s, want %.0f ± 5%%", gotRate, rate)
	}
	// CV of inter-arrivals ~ 1 for a Poisson process.
	mean := span / float64(len(arr)-1)
	var varsum float64
	for i := 1; i < len(arr); i++ {
		d := (arr[i].At - arr[i-1].At).Seconds() - mean
		varsum += d * d
	}
	cv := sqrt(varsum/float64(len(arr)-2)) / mean
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("inter-arrival CV = %.3f, want ~1 (exponential)", cv)
	}
	for i, a := range arr {
		if a.Src == a.Dst {
			t.Fatalf("arrival %d has src == dst == %d", i, a.Src)
		}
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Diurnal modulation: the busiest period-quarter carries measurably
// more arrivals than the quietest, close to the analytic
// (1+amp)/(1-amp) peak-to-trough ratio integrated over quarters.
func TestDiurnalWorkloadModulation(t *testing.T) {
	const flows = 80000
	const amp = 0.6
	period := 10 * time.Second
	w, err := NewDiurnalWorkload(50, flows, 1000, amp, period, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, w)
	// Bucket arrivals by phase quarter across all cycles.
	var quarters [4]int
	for _, a := range arr {
		phase := a.At % period
		quarters[int(4*phase/period)]++
	}
	// sin over [0,period): quarter 0 rising (above base), quarter 2-3
	// below. Peak quarter is 0 or 1; trough 2 or 3.
	peak := max(quarters[0], quarters[1])
	trough := min(quarters[2], quarters[3])
	if trough == 0 {
		t.Fatal("empty trough quarter")
	}
	ratio := float64(peak) / float64(trough)
	// Integrating 1+amp·sin over the peak/trough quarters gives
	// (1 + amp·2√2/π) / (1 − amp·2√2/π) ≈ 2.86 for amp 0.6.
	if ratio < 1.8 || ratio > 4.5 {
		t.Errorf("peak/trough quarter ratio = %.2f, want diurnal modulation in [1.8, 4.5]", ratio)
	}
}

// Heavy-hitter stream: elephants take ~packetShare of the packets,
// the churn counter advances, and same-seed streams are identical.
func TestHeavyHitterWorkloadShareAndChurn(t *testing.T) {
	const flows = 100000
	const share = 0.8
	build := func() *HeavyHitterWorkload {
		w, err := NewHeavyHitterWorkload(200, flows, 10000, 4, 64, share, 128, 4, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := build()
	arr := drain(t, w)
	elephantPkts, totalPkts := 0, 0
	elephantArrivals := 0
	for _, a := range arr {
		totalPkts += a.Packets
		if a.Packets == 128 { // elephants are the only 128-packet flows
			elephantPkts += a.Packets
			elephantArrivals++
		}
	}
	got := float64(elephantPkts) / float64(totalPkts)
	if got < share-0.03 || got > share+0.03 {
		t.Errorf("elephant packet share = %.3f, want %.2f ± 0.03", got, share)
	}
	if elephantArrivals == 0 || elephantArrivals == len(arr) {
		t.Fatalf("elephant arrivals = %d of %d: mix degenerate", elephantArrivals, len(arr))
	}
	// Mouse churn advanced: mouse arrivals ≈ flows·(1−p) over a
	// 64-wide window living 16 arrivals each.
	if w.Churned() == 0 {
		t.Error("no mouse churn over 100k arrivals")
	}

	b := drain(t, build())
	if len(b) != len(arr) {
		t.Fatalf("same-seed runs yielded %d vs %d arrivals", len(arr), len(b))
	}
	for i := range arr {
		if arr[i] != b[i] {
			t.Fatalf("same-seed heavy-hitter streams diverge at arrival %d: %+v vs %+v", i, arr[i], b[i])
		}
	}
}

// Incast bursts: every burst has fanIn distinct sources, one victim,
// all arrivals inside the spread window, one burst per period.
func TestIncastWorkloadShape(t *testing.T) {
	const bursts = 20
	const fanIn = 16
	period := 100 * time.Millisecond
	spread := 5 * time.Millisecond
	w, err := NewIncastWorkload(64, bursts, fanIn, period, spread, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	arr := drain(t, w)
	if len(arr) != bursts*fanIn {
		t.Fatalf("%d arrivals, want %d bursts x %d", len(arr), bursts, fanIn)
	}
	for b := 0; b < bursts; b++ {
		burst := arr[b*fanIn : (b+1)*fanIn]
		victim := burst[0].Dst
		srcs := map[int]bool{}
		base := time.Duration(b) * period
		for _, a := range burst {
			if a.Dst != victim {
				t.Fatalf("burst %d has two victims: %d and %d", b, victim, a.Dst)
			}
			if a.Src == victim || srcs[a.Src] {
				t.Fatalf("burst %d source %d duplicated or equals victim", b, a.Src)
			}
			srcs[a.Src] = true
			if a.At < base || a.At >= base+spread {
				t.Fatalf("burst %d arrival at %v outside [%v, %v)", b, a.At, base, base+spread)
			}
		}
	}
}

// TestArenaCopyEndsWithItsSlot: a copy owns its slot and nothing past
// it, so growing it beyond the slot reallocates instead of writing into
// the next copy.
func TestArenaCopyEndsWithItsSlot(t *testing.T) {
	a := NewArena(2, 64)
	first := a.Copy(bytes.Repeat([]byte{0x11}, 64))
	next := a.Copy(bytes.Repeat([]byte{0x22}, 64))
	if room := cap(first) - len(first); room < ArenaTailroom {
		t.Fatalf("copy has %d bytes of tailroom, want at least %d", room, ArenaTailroom)
	}
	// One byte more than the slot holds.
	_ = append(first, bytes.Repeat([]byte{0xee}, a.stride-len(first)+1)...)
	if !bytes.Equal(next, bytes.Repeat([]byte{0x22}, 64)) {
		t.Errorf("growing one copy past its slot overwrote the next:\n% x", next)
	}
}
