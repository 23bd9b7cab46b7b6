package pkt

import (
	"encoding/binary"
	"fmt"
)

// IP protocol numbers.
const (
	IPProtoICMP uint8 = 1
	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
)

// IPv4MinHeaderLen is the length of an IPv4 header without options.
const IPv4MinHeaderLen = 20

// IPv4Header is an IPv4 header. Options are preserved verbatim.
type IPv4Header struct {
	TOS        uint8
	TotalLen   uint16
	ID         uint16
	Flags      uint8 // 3 bits: reserved, DF, MF
	FragOffset uint16
	TTL        uint8
	Protocol   uint8
	Checksum   uint16
	Src        IPv4
	Dst        IPv4
	Options    []byte
	payload    []byte
}

// IPv4 flag bits.
const (
	IPv4DontFragment  uint8 = 0x2
	IPv4MoreFragments uint8 = 0x1
)

// LayerPayload returns the bytes after the header, within TotalLen.
func (h *IPv4Header) LayerPayload() []byte { return h.payload }

// DecodeFromBytes parses the header from the start of data.
func (h *IPv4Header) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4MinHeaderLen {
		return errTruncated("IPv4")
	}
	vihl := data[0]
	if version := vihl >> 4; version != 4 {
		return &decodeError{header: "IPv4", msg: fmt.Sprintf("version %d", version)}
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < IPv4MinHeaderLen || len(data) < ihl {
		return &decodeError{header: "IPv4", msg: "bad IHL"}
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:4])
	h.ID = binary.BigEndian.Uint16(data[4:6])
	flagsFrag := binary.BigEndian.Uint16(data[6:8])
	h.Flags = uint8(flagsFrag >> 13)
	h.FragOffset = flagsFrag & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Checksum = binary.BigEndian.Uint16(data[10:12])
	copy(h.Src[:], data[12:16])
	copy(h.Dst[:], data[16:20])
	h.Options = data[IPv4MinHeaderLen:ihl]
	end := int(h.TotalLen)
	if end < ihl || end > len(data) {
		// Tolerate trailers / padding: clamp payload to available bytes.
		end = len(data)
	}
	h.payload = data[ihl:end]
	return nil
}

// SerializeTo implements SerializableLayer. TotalLen and Checksum are
// computed; the bytes already in the buffer are the payload.
func (h *IPv4Header) SerializeTo(b *SerializeBuffer) error {
	optLen := len(h.Options)
	if optLen%4 != 0 {
		return fmt.Errorf("pkt: IPv4 options length %d not multiple of 4", optLen)
	}
	hl := IPv4MinHeaderLen + optLen
	payloadLen := b.Len()
	hdr := b.PrependBytes(hl)
	hdr[0] = 0x40 | uint8(hl/4)
	hdr[1] = h.TOS
	h.TotalLen = uint16(hl + payloadLen)
	binary.BigEndian.PutUint16(hdr[2:4], h.TotalLen)
	binary.BigEndian.PutUint16(hdr[4:6], h.ID)
	binary.BigEndian.PutUint16(hdr[6:8], uint16(h.Flags)<<13|h.FragOffset&0x1fff)
	hdr[8] = h.TTL
	hdr[9] = h.Protocol
	hdr[10], hdr[11] = 0, 0
	copy(hdr[12:16], h.Src[:])
	copy(hdr[16:20], h.Dst[:])
	copy(hdr[20:], h.Options)
	h.Checksum = Checksum(hdr[:hl])
	binary.BigEndian.PutUint16(hdr[10:12], h.Checksum)
	return nil
}

// String summarizes the header for diagnostics.
func (h *IPv4Header) String() string {
	return fmt.Sprintf("IPv4 %s > %s proto=%d ttl=%d len=%d", h.Src, h.Dst, h.Protocol, h.TTL, h.TotalLen)
}

// IPv6HeaderLen is the length of the fixed IPv6 header.
const IPv6HeaderLen = 40

// IPv6Header is the fixed IPv6 header. Extension headers are treated as
// payload; the HARMLESS dataplane forwards IPv6 on L2 fields only.
type IPv6Header struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   uint16
	NextHeader   uint8
	HopLimit     uint8
	Src          IPv6
	Dst          IPv6
	payload      []byte
}

// DecodeFromBytes parses the header from the start of data.
func (h *IPv6Header) DecodeFromBytes(data []byte) error {
	if len(data) < IPv6HeaderLen {
		return errTruncated("IPv6")
	}
	vtf := binary.BigEndian.Uint32(data[0:4])
	if version := vtf >> 28; version != 6 {
		return &decodeError{header: "IPv6", msg: fmt.Sprintf("version %d", version)}
	}
	h.TrafficClass = uint8(vtf >> 20)
	h.FlowLabel = vtf & 0xfffff
	h.PayloadLen = binary.BigEndian.Uint16(data[4:6])
	h.NextHeader = data[6]
	h.HopLimit = data[7]
	copy(h.Src[:], data[8:24])
	copy(h.Dst[:], data[24:40])
	end := IPv6HeaderLen + int(h.PayloadLen)
	if end > len(data) {
		end = len(data)
	}
	h.payload = data[IPv6HeaderLen:end]
	return nil
}

// SerializeTo implements SerializableLayer.
func (h *IPv6Header) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	hdr := b.PrependBytes(IPv6HeaderLen)
	vtf := uint32(6)<<28 | uint32(h.TrafficClass)<<20 | h.FlowLabel&0xfffff
	binary.BigEndian.PutUint32(hdr[0:4], vtf)
	h.PayloadLen = uint16(payloadLen)
	binary.BigEndian.PutUint16(hdr[4:6], h.PayloadLen)
	hdr[6] = h.NextHeader
	hdr[7] = h.HopLimit
	copy(hdr[8:24], h.Src[:])
	copy(hdr[24:40], h.Dst[:])
	return nil
}

// String summarizes the header for diagnostics.
func (h *IPv6Header) String() string {
	return fmt.Sprintf("IPv6 %s > %s next=%d hlim=%d", h.Src, h.Dst, h.NextHeader, h.HopLimit)
}
