package dataplane

import (
	"sync/atomic"
)

// TypedRing is a bounded, lock-free, multi-producer multi-consumer
// queue of values of type T (the classic sequence-numbered ring of
// Vyukov's bounded MPMC queue). Frame traffic uses the Ring wrapper
// below; other fixed-size payloads — the telemetry subsystem's flow
// records on their way from the datapath shards to the aggregator —
// instantiate TypedRing directly.
//
// Push and Pop never block and never allocate; a full ring rejects the
// push (the caller counts the drop, exactly like a NIC tail-drop).
type TypedRing[T any] struct {
	mask  uint64
	slots []typedSlot[T]
	_     [64]byte // keep head and tail on separate cache lines
	head  atomic.Uint64
	_     [64]byte
	tail  atomic.Uint64
}

type typedSlot[T any] struct {
	seq atomic.Uint64
	v   T
}

// NewTypedRing creates a ring with capacity rounded up to a power of
// two, clamped to [2, 1<<30] slots.
func NewTypedRing[T any](capacity int) *TypedRing[T] {
	if capacity > 1<<30 {
		capacity = 1 << 30
	}
	n := 2
	for n < capacity {
		n <<= 1
	}
	r := &TypedRing[T]{mask: uint64(n - 1), slots: make([]typedSlot[T], n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap returns the ring capacity in slots.
func (r *TypedRing[T]) Cap() int { return len(r.slots) }

// Len returns the approximate number of queued values.
func (r *TypedRing[T]) Len() int {
	n := int(r.head.Load()) - int(r.tail.Load())
	if n < 0 {
		return 0
	}
	return n
}

// Push enqueues one value. It returns false when the ring is full (the
// value is not enqueued).
func (r *TypedRing[T]) Push(v T) bool {
	pos := r.head.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				slot.v = v
				slot.seq.Store(pos + 1)
				return true
			}
			pos = r.head.Load()
		case diff < 0:
			return false // full
		default:
			pos = r.head.Load()
		}
	}
}

// Pop dequeues the oldest value. It returns false when the ring is
// empty. The vacated slot is zeroed so popped values do not pin
// whatever T references.
func (r *TypedRing[T]) Pop() (T, bool) {
	var zero T
	pos := r.tail.Load()
	for {
		slot := &r.slots[pos&r.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(pos+1); {
		case diff == 0:
			if r.tail.CompareAndSwap(pos, pos+1) {
				v := slot.v
				slot.v = zero
				slot.seq.Store(pos + uint64(len(r.slots)))
				return v, true
			}
			pos = r.tail.Load()
		case diff < 0:
			return zero, false // empty
		default:
			pos = r.tail.Load()
		}
	}
}

// frameTag is the payload of a frame Ring slot: the frame plus the
// ingress port it arrived on.
type frameTag struct {
	frame []byte
	port  uint32
}

// Ring is a bounded, lock-free, multi-producer multi-consumer frame
// queue: TypedRing instantiated for (frame, ingress-port) pairs. It is
// the in-memory substitute for a NIC queue: benchmarks attach it as a
// softswitch egress backend and drain it from the measurement loop,
// keeping netem's goroutines and timing model out of the measured path;
// the poll-mode worker runtime uses one per worker as its RX queue.
//
// Push and Pop never block and never allocate; a full ring rejects the
// push (the caller counts the drop, exactly like a NIC tail-drop).
type Ring struct {
	r TypedRing[frameTag]
}

// NewRing creates a ring with capacity rounded up to a power of two,
// clamped to [2, 1<<30] slots.
func NewRing(capacity int) *Ring {
	return &Ring{r: *NewTypedRing[frameTag](capacity)}
}

// Len returns the approximate number of queued frames.
func (r *Ring) Len() int { return r.r.Len() }

// Push enqueues one frame, taking ownership. It returns false when the
// ring is full (the frame is not enqueued and stays the caller's).
func (r *Ring) Push(frame []byte) bool { return r.PushFrame(frame, 0) }

// PushFrame enqueues one frame tagged with its ingress port, taking
// ownership of the frame. It returns false when the ring is full (the
// frame is not enqueued and stays the caller's). This is the producer
// side of an RX queue: the poll-mode worker runtime tags each frame so
// one ring can carry traffic arriving on many datapath ports.
func (r *Ring) PushFrame(frame []byte, inPort uint32) bool {
	return r.r.Push(frameTag{frame: frame, port: inPort})
}

// Pop dequeues the oldest frame, transferring ownership to the caller.
// It returns false when the ring is empty.
func (r *Ring) Pop() ([]byte, bool) {
	frame, _, ok := r.PopFrame()
	return frame, ok
}

// PopFrame dequeues the oldest frame with its ingress-port tag,
// transferring ownership to the caller. It returns false when the ring
// is empty. Frames enqueued with Push carry port 0.
func (r *Ring) PopFrame() ([]byte, uint32, bool) {
	t, ok := r.r.Pop()
	return t.frame, t.port, ok
}

// Drain pops up to max frames (or everything queued when max <= 0)
// into the given slice, which is grown as needed and returned — the
// batch-vector shape ReceiveBatch consumes directly.
func (r *Ring) Drain(into [][]byte, max int) [][]byte {
	for max <= 0 || len(into) < max {
		f, ok := r.Pop()
		if !ok {
			break
		}
		into = append(into, f)
	}
	return into
}
