package pkt

// SerializableLayer is a header (or payload) that can write itself to a
// SerializeBuffer. SerializeTo PREPENDS the header (and, for headers
// with length/checksum fields, fixes those up against the bytes already
// in the buffer, which are treated as this header's payload).
type SerializableLayer interface {
	SerializeTo(b *SerializeBuffer) error
}

// SerializeBuffer builds packets back-to-front: each layer's
// SerializeTo PREPENDS its header, treating the bytes already present
// as its payload. This mirrors gopacket's SerializeBuffer and lets
// length and checksum fields be computed naturally.
type SerializeBuffer struct {
	buf     []byte // full backing array
	start   int    // index of first valid byte
	csumCtx checksumContext
}

type checksumContext struct {
	valid bool
	src   IPv4
	dst   IPv4
}

// serializeHeadroom is a new buffer's initial capacity: a full
// Ethernet/IP/TCP stack with room to spare. Headroom grows
// automatically if exceeded.
const serializeHeadroom = 256

// NewSerializeBuffer returns an empty buffer.
func NewSerializeBuffer() *SerializeBuffer {
	return &SerializeBuffer{buf: make([]byte, serializeHeadroom), start: serializeHeadroom}
}

// Bytes returns the serialized packet so far. The packet ends where the
// buffer does, so the result has no spare capacity: a datapath that
// owns it cannot grow it in place into bytes the buffer still uses.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:len(b.buf):len(b.buf)] }

// Len returns the number of valid bytes.
func (b *SerializeBuffer) Len() int { return len(b.buf) - b.start }

// Clear resets the buffer for reuse, keeping the backing array.
func (b *SerializeBuffer) Clear() {
	b.start = len(b.buf)
	b.csumCtx = checksumContext{}
}

// PrependBytes makes room for n bytes at the front and returns the
// slice to fill in. The returned slice is only valid until the next
// Prepend call.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n <= b.start {
		b.start -= n
		return b.buf[b.start : b.start+n]
	}
	// Grow: allocate a larger array with fresh headroom.
	needed := b.Len() + n
	newCap := len(b.buf)*2 + n
	if newCap < needed+64 {
		newCap = needed + 64
	}
	nb := make([]byte, newCap)
	newStart := newCap - b.Len() - n
	copy(nb[newStart+n:], b.Bytes())
	b.buf = nb
	b.start = newStart
	return b.buf[b.start : b.start+n]
}

// SetNetworkForChecksum records the IPv4 endpoints so that a TCP or UDP
// layer serialized next can compute its pseudo-header checksum. Call it
// before serializing the transport layer (i.e. after the payload).
func (b *SerializeBuffer) SetNetworkForChecksum(src, dst IPv4) {
	b.csumCtx = checksumContext{valid: true, src: src, dst: dst}
}

// SerializeLayers clears the buffer and serializes the given layers in
// wire order (outermost first), returning the final packet bytes. If an
// IPv4 layer precedes a TCP/UDP layer the transport checksum is
// computed automatically.
func SerializeLayers(b *SerializeBuffer, layers ...SerializableLayer) ([]byte, error) {
	b.Clear()
	// Find IPv4 context for L4 checksums before any serialization.
	for _, l := range layers {
		if ip, ok := l.(*IPv4Header); ok {
			b.SetNetworkForChecksum(ip.Src, ip.Dst)
		}
	}
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// Serialize is a convenience wrapper that allocates a fresh buffer.
func Serialize(layers ...SerializableLayer) ([]byte, error) {
	return SerializeLayers(NewSerializeBuffer(), layers...)
}
