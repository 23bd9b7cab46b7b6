package softswitch

import "sync"

// bufferPool stores packets referenced by packet-in buffer ids until
// the controller releases them via packet-out or flow-mod (or they are
// overwritten by newer packets — a ring, as in hardware). Slot i holds
// buffer id i+1; 0 is never allocated so controller helpers can treat a
// zero BufferID as "unset" without colliding with a real buffer.
type bufferPool struct {
	mu    sync.Mutex
	slots []buffered
	next  uint32 // slot the next store takes
	size  uint32
}

// buffered is a frame with the port it arrived on: a flow-mod that
// releases it need not match on in_port to say where it came from.
type buffered struct {
	frame  []byte
	inPort uint32
}

func newBufferPool(size int) *bufferPool {
	return &bufferPool{slots: make([]buffered, size), size: uint32(size)}
}

// store saves a copy of a frame and returns its buffer id.
func (b *bufferPool) store(inPort uint32, frame []byte) uint32 {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	b.mu.Lock()
	slot := b.next
	b.next = (slot + 1) % b.size
	b.slots[slot] = buffered{frame: cp, inPort: inPort}
	b.mu.Unlock()
	return slot + 1
}

// take removes and returns the frame for id and its ingress port.
func (b *bufferPool) take(id uint32) (frame []byte, inPort uint32, ok bool) {
	if id == 0 || id > b.size {
		return nil, 0, false
	}
	b.mu.Lock()
	got := b.slots[id-1]
	b.slots[id-1] = buffered{}
	b.mu.Unlock()
	return got.frame, got.inPort, got.frame != nil
}
