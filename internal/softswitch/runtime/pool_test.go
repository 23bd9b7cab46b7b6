package runtime_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	ssruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
)

// scaled shrinks a stress iteration count under -short so the race
// matrix in CI stays fast.
func scaled(n int) int {
	if testing.Short() {
		return n / 10
	}
	return n
}

// countBackend is a discard egress that only counts, so worker tests
// can check frame conservation without draining anything.
type countBackend struct {
	frames atomic.Uint64
}

func (cb *countBackend) TransmitBatch(fs [][]byte) {
	cb.frames.Add(uint64(len(fs)))
}

func addFlow(t testing.TB, s *softswitch.Switch, table uint8, priority uint16, m openflow.Match, instrs ...openflow.Instruction) {
	t.Helper()
	_, err := s.ApplyFlowMod(&openflow.FlowMod{
		TableID: table, Command: openflow.FlowAdd, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: instrs,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func outputTo(port uint32) openflow.Instruction {
	return &openflow.InstrApplyActions{Actions: []openflow.Action{
		&openflow.ActionOutput{Port: port, MaxLen: 0xffff},
	}}
}

// classified is how many frames sw's flow cache saw, whatever it did
// with them: with Drops (malformed frames never reach the cache, and
// newForwardSwitch's one rule drops nothing else) it is the switch's
// own count of what entered it.
func classified(sw *softswitch.Switch) uint64 {
	c := sw.CacheStats()
	return c.Hits.Load() + c.Misses.Load() + c.Bypassed.Load()
}

// newForwardSwitch builds a switch forwarding everything from port 1
// to port 2's counting backend.
func newForwardSwitch(t testing.TB, opts ...softswitch.Option) (*softswitch.Switch, *countBackend) {
	t.Helper()
	sw := softswitch.New("pool", 0x70, opts...)
	cb := &countBackend{}
	sw.AttachPort(2, "out", cb)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, sw, 0, 10, m, outputTo(2))
	return sw, cb
}

// TestDispatchFlowAffinity is the RSS property test: dispatching many
// flows from many producers concurrently, a given 5-tuple must only
// ever be observed on ONE worker — the invariant that preserves
// per-flow ordering and cache locality.
func TestDispatchFlowAffinity(t *testing.T) {
	const (
		workers   = 4
		producers = 4
		nFlows    = 64
	)
	frames := scaled(20000)

	var mu sync.Mutex
	owner := make(map[pkt.Key]int)
	sw, _ := newForwardSwitch(t)
	pool := ssruntime.New(sw, ssruntime.Config{
		Workers: workers,
		Observer: func(worker int, inPort uint32, frames [][]byte) {
			mu.Lock()
			defer mu.Unlock()
			for _, f := range frames {
				var key pkt.Key
				if err := pkt.ExtractKey(f, inPort, &key); err != nil {
					t.Errorf("observer: extract: %v", err)
					continue
				}
				if prev, ok := owner[key]; ok && prev != worker {
					t.Errorf("flow %v seen on workers %d and %d", key, prev, worker)
				}
				owner[key] = worker
			}
		},
	})
	pool.Start()

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Same seed: every producer emits the same 64 flows, so each
			// flow reaches the pool from several goroutines at once.
			gen := fabric.NewUDPGenerator(64, nFlows, 7)
			for i := 0; i < frames/producers; i++ {
				for !pool.Dispatch(1, gen.Next()) {
					// ring full: wait for the workers
				}
			}
		}(p)
	}
	wg.Wait()
	pool.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(owner) != nFlows {
		t.Errorf("observed %d distinct flows, want %d", len(owner), nFlows)
	}
	// The hash must actually spread flows: with 64 flows on 4 workers,
	// every worker should own at least one.
	seen := make(map[int]bool)
	for _, w := range owner {
		seen[w] = true
	}
	if len(seen) < 2 {
		t.Errorf("all flows landed on %d worker(s) — sharding is not spreading", len(seen))
	}
}

// TestStopDrainsInFlight: every frame admitted by Dispatch before Stop
// must have traversed the switch by the time Stop returns — none may
// linger in an RX ring.
func TestStopDrainsInFlight(t *testing.T) {
	sw, cb := newForwardSwitch(t)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 3, RingSize: 1 << 14})
	pool.Start()

	gen := fabric.NewUDPGenerator(64, 128, 11)
	admitted := 0
	for i := 0; i < scaled(30000); i++ {
		if pool.Dispatch(1, gen.Next()) {
			admitted++
		}
	}
	pool.Stop()

	st := pool.Stats()
	if st.Frames != uint64(admitted) {
		t.Errorf("processed %d of %d admitted frames", st.Frames, admitted)
	}
	if got := cb.frames.Load() + sw.Drops(); got != uint64(admitted) {
		t.Errorf("conservation: egress+drops = %d, want %d", got, admitted)
	}
	if got := classified(sw) + sw.Drops(); got != st.Frames {
		t.Errorf("switch classified+dropped %d frames, pool processed %d", got, st.Frames)
	}
	// Stop is idempotent.
	pool.Stop()
}

// TestPoolDispatchZeroAlloc: handing a burst to a worker and running it
// through the switch allocates nothing; the ring carries the frames
// themselves, never copies.
func TestPoolDispatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are meaningless under the race detector")
	}
	sw, cb := newForwardSwitch(t)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 1})
	pool.Start()
	defer pool.Stop()

	const burst, size = 32, 64
	frame := fabric.NewUDPGenerator(size, 1, 5).Next()
	arena := fabric.NewArena(2*burst, size)
	vec := make([][]byte, burst)
	send := func() {
		for i := range vec {
			vec[i] = arena.Copy(frame)
		}
		if n := pool.DispatchBatch(1, vec); n != burst {
			t.Errorf("admitted %d of %d frames", n, burst)
		}
		pool.Drain()
	}
	send() // walk, install and settle pools
	const runs = 100
	if n := testing.AllocsPerRun(runs, send); n != 0 {
		t.Errorf("dispatch and drain of a %d-frame burst: %v allocs, want 0", burst, n)
	}
	// AllocsPerRun calls its function once more, to warm up.
	if want := uint64((runs + 2) * burst); cb.frames.Load() != want {
		t.Errorf("forwarded %d frames, want %d", cb.frames.Load(), want)
	}
}

// TestParkAndWake: a worker that has gone through the whole backoff
// ladder and parked must be woken by the next Dispatch.
func TestParkAndWake(t *testing.T) {
	sw, cb := newForwardSwitch(t)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 2})
	pool.Start()
	defer pool.Stop()

	gen := fabric.NewUDPGenerator(64, 8, 3)
	for round := 0; round < 5; round++ {
		// Give the workers ample time to run off the spin/yield budget
		// and park.
		time.Sleep(20 * time.Millisecond)
		want := cb.frames.Load() + 8
		for i := 0; i < 8; i++ {
			if !pool.Dispatch(1, gen.Next()) {
				t.Fatal("dispatch rejected on an idle pool")
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for cb.frames.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: parked workers never woke (egress %d, want %d)",
					round, cb.frames.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestMalformedFramesStillAccounted: frames whose key cannot be
// extracted shard by ingress port, traverse the switch, and surface as
// datapath drops — dispatch must not silently eat them.
func TestMalformedFramesStillAccounted(t *testing.T) {
	sw, cb := newForwardSwitch(t)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 2})
	pool.Start()

	const n = 500
	for i := 0; i < n; i++ {
		for !pool.Dispatch(1, []byte{0xde, 0xad}) { // too short for Ethernet
		}
	}
	pool.Stop()

	st := pool.Stats()
	if st.Frames != n {
		t.Errorf("processed %d of %d malformed frames", st.Frames, n)
	}
	if sw.Drops() != n {
		t.Errorf("switch drops = %d, want %d", sw.Drops(), n)
	}
	if got := classified(sw); got != 0 {
		t.Errorf("%d malformed frames reached the flow cache", got)
	}
	if cb.frames.Load() != 0 {
		t.Errorf("malformed frames leaked to egress: %d", cb.frames.Load())
	}
}

// TestWorkerStatsShardsExact: the per-worker shards must sum exactly
// to the aggregate — each frame is tallied on exactly one shard.
func TestWorkerStatsShardsExact(t *testing.T) {
	sw, _ := newForwardSwitch(t)
	pool := ssruntime.New(sw, ssruntime.Config{Workers: 4})
	pool.Start()
	gen := fabric.NewUDPGenerator(128, 256, 9)
	admitted := 0
	for i := 0; i < scaled(20000); i++ {
		if pool.Dispatch(1, gen.Next()) {
			admitted++
		}
	}
	pool.Stop()

	var sum ssruntime.PoolStats
	for i := 0; i < pool.Workers(); i++ {
		ws := pool.WorkerStats(i)
		sum.Frames += ws.Frames
		sum.Bytes += ws.Bytes
		sum.Batches += ws.Batches
		sum.RxDrops += ws.RxDrops
	}
	if agg := pool.Stats(); sum != agg {
		t.Errorf("shard sum %+v != aggregate %+v", sum, agg)
	}
	if sum.Frames != uint64(admitted) {
		t.Errorf("frames = %d, want %d", sum.Frames, admitted)
	}
	if got := classified(sw) + sw.Drops(); got != sum.Frames {
		t.Errorf("switch classified+dropped %d frames, shards sum to %d", got, sum.Frames)
	}
}

// TestWorkersVsFlowModRace hammers the pool from several producers
// while flow-mods, group-mods and expiry sweeps mutate the pipeline —
// the revision-validation machinery must keep cached replays and walks
// coherent with no data races (run under -race) and conserve every
// frame.
func TestWorkersVsFlowModRace(t *testing.T) {
	sw := softswitch.New("race", 0x99)
	cb := &countBackend{}
	sw.AttachPort(2, "out", cb)
	if err := sw.Groups().Apply(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeIndirect, GroupID: 1,
		Buckets: []openflow.Bucket{{Actions: []openflow.Action{
			&openflow.ActionOutput{Port: 2, MaxLen: 0xffff},
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	m := openflow.Match{}
	m.WithInPort(1)
	// Table 0 -> table 1 -> group 1 -> port 2: the path touches every
	// revision the cache validates (two tables plus the group table).
	addFlow(t, sw, 0, 10, m, &openflow.InstrGotoTable{TableID: 1})
	addFlow(t, sw, 1, 5, openflow.Match{},
		&openflow.InstrApplyActions{Actions: []openflow.Action{&openflow.ActionGroup{GroupID: 1}}})

	pool := ssruntime.New(sw, ssruntime.Config{Workers: 4})
	pool.Start()

	const producers = 4
	packets := scaled(20000)
	mods := scaled(3000)

	var wg sync.WaitGroup
	var admitted atomic.Uint64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := fabric.NewUDPGenerator(64, 64, int64(100+p))
			for i := 0; i < packets/producers; i++ {
				for !pool.Dispatch(1, gen.Next()) {
				}
				admitted.Add(1)
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mods; i++ {
			_, _ = sw.ApplyFlowMod(&openflow.FlowMod{
				TableID: 0, Command: openflow.FlowModify, Priority: 10,
				BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
				Match: m, Instructions: []openflow.Instruction{&openflow.InstrGotoTable{TableID: 1}},
			})
			if i%7 == 0 {
				_ = sw.Groups().Apply(&openflow.GroupMod{
					Command: openflow.GroupModify, GroupType: openflow.GroupTypeIndirect, GroupID: 1,
					Buckets: []openflow.Bucket{{Actions: []openflow.Action{
						&openflow.ActionOutput{Port: 2, MaxLen: 0xffff},
					}}},
				})
			}
			if i%13 == 0 {
				sw.SweepExpired()
			}
		}
	}()
	wg.Wait()
	pool.Stop()

	if st := pool.Stats(); st.Frames != admitted.Load() {
		t.Errorf("processed %d of %d admitted", st.Frames, admitted.Load())
	}
	if got := cb.frames.Load() + sw.Drops(); got != admitted.Load() {
		t.Errorf("conservation: egress+drops = %d, want %d", got, admitted.Load())
	}
}

// TestRingPortTagRoundTrip covers the dataplane side the pool builds
// on: PushFrame/PopFrame must carry each frame's ingress port through
// the ring.
func TestRingPortTagRoundTrip(t *testing.T) {
	r := dataplane.NewRing(8)
	for i := 0; i < 5; i++ {
		if !r.PushFrame([]byte{byte(i)}, uint32(100+i)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	for i := 0; i < 5; i++ {
		f, port, ok := r.PopFrame()
		if !ok || f[0] != byte(i) || port != uint32(100+i) {
			t.Fatalf("slot %d: frame %v port %d ok %v", i, f, port, ok)
		}
	}
	if _, _, ok := r.PopFrame(); ok {
		t.Fatal("pop succeeded on the drained ring")
	}
}
