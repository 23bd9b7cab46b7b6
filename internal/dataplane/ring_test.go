package dataplane

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing(8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d, want 8", r.Cap())
	}
	for i := 0; i < 8; i++ {
		if !r.Push([]byte{byte(i)}) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if r.Push([]byte{9}) {
		t.Fatal("push accepted on a full ring")
	}
	if r.Len() != 8 {
		t.Fatalf("len = %d, want 8", r.Len())
	}
	for i := 0; i < 8; i++ {
		f, ok := r.Pop()
		if !ok || f[0] != byte(i) {
			t.Fatalf("pop %d = %v,%v — FIFO order broken", i, f, ok)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop succeeded on an empty ring")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(4)
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			if !r.Push([]byte{byte(round), byte(i)}) {
				t.Fatalf("round %d: push %d rejected", round, i)
			}
		}
		for i := 0; i < 3; i++ {
			f, ok := r.Pop()
			if !ok || f[0] != byte(round) || f[1] != byte(i) {
				t.Fatalf("round %d: pop %d = %v,%v", round, i, f, ok)
			}
		}
	}
}

func TestRingConcurrent(t *testing.T) {
	const producers = 4
	perProd := 10000
	if testing.Short() {
		perProd = 1000 // keep the CI race matrix fast
	}
	r := NewRing(1024)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProd; i++ {
				f := []byte{byte(p), byte(i >> 8), byte(i)}
				for !r.Push(f) {
					// ring full: spin until the consumer catches up
				}
			}
		}(p)
	}
	// One consumer checks per-producer ordering.
	next := make([]int, producers)
	seen := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seen < producers*perProd {
			f, ok := r.Pop()
			if !ok {
				continue
			}
			p := int(f[0])
			i := int(f[1])<<8 | int(f[2])
			if i != next[p] {
				t.Errorf("producer %d: got %d, want %d (per-producer order broken)", p, i, next[p])
				return
			}
			next[p]++
			seen++
		}
	}()
	wg.Wait()
	<-done
	if seen != producers*perProd {
		t.Fatalf("consumed %d of %d frames", seen, producers*perProd)
	}
}

func TestRingDrain(t *testing.T) {
	r := NewRing(16)
	for i := 0; i < 10; i++ {
		r.Push([]byte{byte(i)})
	}
	batch := r.Drain(nil, 4)
	if len(batch) != 4 || batch[0][0] != 0 || batch[3][0] != 3 {
		t.Fatalf("bounded drain = %v", batch)
	}
	rest := r.Drain(batch[:0], 0)
	if len(rest) != 6 || rest[0][0] != 4 || rest[5][0] != 9 {
		t.Fatalf("unbounded drain = %v", rest)
	}
	if r.Len() != 0 {
		t.Fatalf("ring not empty after drain: %d", r.Len())
	}
}

// TestDrainBatchWraparound forces the ring's head/tail sequence
// counters through many wraps of a small ring while popping tagged
// frames off it, checking FIFO order, port tags and exact counts
// across the index wrap — the regime the telemetry drains and the
// worker RX rings run in permanently. (The name predates the pool's
// own drain loop; what it pins is PushFrame/PopFrame.)
func TestDrainBatchWraparound(t *testing.T) {
	r := NewRing(8)
	seq := byte(0)    // next value to push
	expect := byte(0) // next value we must pop
	for round := 0; round < 64; round++ {
		// Fill to a varying level so the wrap point lands on every
		// possible slot offset.
		fill := 1 + round%8
		for i := 0; i < fill; i++ {
			if !r.PushFrame([]byte{seq}, uint32(seq)) {
				t.Fatalf("round %d: push %d rejected below capacity", round, seq)
			}
			seq++
		}
		for i := 0; i < fill; i++ {
			f, port, ok := r.PopFrame()
			if !ok {
				t.Fatalf("round %d: popped %d of %d", round, i, fill)
			}
			if f[0] != expect {
				t.Fatalf("round %d: FIFO broken across wrap: got %d want %d", round, f[0], expect)
			}
			if port != uint32(expect) {
				t.Fatalf("round %d: port tag lost across wrap: got %d want %d", round, port, expect)
			}
			expect++
		}
		if _, _, ok := r.PopFrame(); ok || r.Len() != 0 {
			t.Fatalf("round %d: ring not empty: %d", round, r.Len())
		}
	}
	if seq != expect {
		t.Fatalf("conservation: pushed %d, popped %d", seq, expect)
	}
}

// TestDrainBatchUnboundedAtWrap pops everything from a full ring whose
// contents straddle the wrap boundary.
func TestDrainBatchUnboundedAtWrap(t *testing.T) {
	r := NewRing(4)
	// Advance tail/head to one slot before the wrap.
	for i := 0; i < 3; i++ {
		r.Push([]byte{byte(i)})
		r.Pop()
	}
	// Now fill fully: slots 3,0,1,2 — the contents span the wrap.
	for i := 0; i < 4; i++ {
		if !r.PushFrame([]byte{byte(10 + i)}, uint32(i)) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if r.PushFrame([]byte{99}, 0) {
		t.Fatal("push accepted on full ring at wrap boundary")
	}
	for i := 0; i < 4; i++ {
		f, port, ok := r.PopFrame()
		if !ok || f[0] != byte(10+i) || port != uint32(i) {
			t.Fatalf("slot %d = %v/%d/%v", i, f, port, ok)
		}
	}
	if _, _, ok := r.PopFrame(); ok {
		t.Fatal("pop succeeded on the drained ring")
	}
	// The drained ring must be immediately reusable for a full cycle.
	if !r.Push([]byte{42}) {
		t.Fatal("ring unusable after wrap drain")
	}
	if f, ok := r.Pop(); !ok || f[0] != 42 {
		t.Fatal("pop after wrap drain")
	}
}

// TestTypedRingWraparoundValues runs a non-frame payload (the shape
// telemetry exports use) through repeated wraps, checking order and
// the zeroing of vacated slots.
func TestTypedRingWraparoundValues(t *testing.T) {
	type rec struct {
		id  int
		ref *int
	}
	r := NewTypedRing[rec](4)
	if r.Cap() != 4 {
		t.Fatalf("cap = %d", r.Cap())
	}
	next, expect := 0, 0
	for round := 0; round < 32; round++ {
		n := 1 + round%4
		for i := 0; i < n; i++ {
			v := next
			if !r.Push(rec{id: v, ref: &v}) {
				t.Fatalf("push %d rejected", v)
			}
			next++
		}
		for i := 0; i < n; i++ {
			got, ok := r.Pop()
			if !ok || got.id != expect || got.ref == nil || *got.ref != expect {
				t.Fatalf("pop = %+v, %v; want id %d", got, ok, expect)
			}
			expect++
		}
		if _, ok := r.Pop(); ok {
			t.Fatal("pop from empty typed ring succeeded")
		}
	}
}

// TestTypedRingConcurrentMPMC hammers the typed ring from several
// producers and consumers, checking conservation.
func TestTypedRingConcurrentMPMC(t *testing.T) {
	const producers, consumers = 4, 4
	perProducer := 20000
	if testing.Short() {
		perProducer = 2000
	}
	r := NewTypedRing[int](64)
	var sum, want atomic.Int64
	var wg sync.WaitGroup
	var popped atomic.Int64
	total := int64(producers * perProducer)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := p*perProducer + i
				want.Add(int64(v))
				for !r.Push(v) {
					runtime.Gosched()
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for popped.Load() < total {
				v, ok := r.Pop()
				if !ok {
					runtime.Gosched()
					continue
				}
				sum.Add(int64(v))
				popped.Add(1)
			}
		}()
	}
	wg.Wait()
	if sum.Load() != want.Load() {
		t.Fatalf("sum %d != pushed %d", sum.Load(), want.Load())
	}
}
