package pkt

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
	payload  []byte
}

// LayerPayload returns the bytes after the header, within Length.
func (u *UDP) LayerPayload() []byte { return u.payload }

// DecodeFromBytes parses the header from the start of data.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return errTruncated("UDP")
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	end := int(u.Length)
	if end < UDPHeaderLen || end > len(data) {
		end = len(data)
	}
	u.payload = data[UDPHeaderLen:end]
	return nil
}

// SerializeTo implements SerializableLayer. Length is computed from the
// buffer; the checksum is left zero (i.e. "not computed", legal for
// UDP/IPv4) unless the buffer carries pseudo-header context set by
// SetNetworkForChecksum.
func (u *UDP) SerializeTo(b *SerializeBuffer) error {
	payloadLen := b.Len()
	hdr := b.PrependBytes(UDPHeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], u.DstPort)
	u.Length = uint16(UDPHeaderLen + payloadLen)
	binary.BigEndian.PutUint16(hdr[4:6], u.Length)
	hdr[6], hdr[7] = 0, 0
	if b.csumCtx.valid {
		u.Checksum = L4Checksum(b.csumCtx.src, b.csumCtx.dst, IPProtoUDP, b.Bytes())
		if u.Checksum == 0 {
			u.Checksum = 0xffff // RFC 768: transmitted as all ones
		}
		binary.BigEndian.PutUint16(hdr[6:8], u.Checksum)
	} else {
		u.Checksum = 0
	}
	return nil
}

// String summarizes the header for diagnostics.
func (u *UDP) String() string {
	return fmt.Sprintf("UDP %d > %d len=%d", u.SrcPort, u.DstPort, u.Length)
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
	TCPUrg uint8 = 1 << 5
)

// TCPMinHeaderLen is the length of a TCP header without options.
const TCPMinHeaderLen = 20

// TCP is a TCP header. Options are preserved verbatim.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
	Options  []byte
	payload  []byte
}

// LayerPayload returns the bytes after the header and its options.
func (t *TCP) LayerPayload() []byte { return t.payload }

// DecodeFromBytes parses the header from the start of data.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPMinHeaderLen {
		return errTruncated("TCP")
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	dataOff := int(data[12]>>4) * 4
	if dataOff < TCPMinHeaderLen || dataOff > len(data) {
		return &decodeError{header: "TCP", msg: "bad data offset"}
	}
	t.Flags = data[13] & 0x3f
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	t.Urgent = binary.BigEndian.Uint16(data[18:20])
	t.Options = data[TCPMinHeaderLen:dataOff]
	t.payload = data[dataOff:]
	return nil
}

// SerializeTo implements SerializableLayer. The checksum is computed if
// the buffer carries pseudo-header context.
func (t *TCP) SerializeTo(b *SerializeBuffer) error {
	if len(t.Options)%4 != 0 {
		return fmt.Errorf("pkt: TCP options length %d not multiple of 4", len(t.Options))
	}
	hl := TCPMinHeaderLen + len(t.Options)
	hdr := b.PrependBytes(hl)
	binary.BigEndian.PutUint16(hdr[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(hdr[2:4], t.DstPort)
	binary.BigEndian.PutUint32(hdr[4:8], t.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], t.Ack)
	hdr[12] = uint8(hl/4) << 4
	hdr[13] = t.Flags & 0x3f
	binary.BigEndian.PutUint16(hdr[14:16], t.Window)
	hdr[16], hdr[17] = 0, 0
	binary.BigEndian.PutUint16(hdr[18:20], t.Urgent)
	copy(hdr[TCPMinHeaderLen:], t.Options)
	if b.csumCtx.valid {
		t.Checksum = L4Checksum(b.csumCtx.src, b.csumCtx.dst, IPProtoTCP, b.Bytes())
		binary.BigEndian.PutUint16(hdr[16:18], t.Checksum)
	} else {
		t.Checksum = 0
	}
	return nil
}

// FlagString renders the flag set like "SYN|ACK".
func (t *TCP) FlagString() string {
	names := []struct {
		bit  uint8
		name string
	}{{TCPSyn, "SYN"}, {TCPAck, "ACK"}, {TCPFin, "FIN"}, {TCPRst, "RST"}, {TCPPsh, "PSH"}, {TCPUrg, "URG"}}
	s := ""
	for _, n := range names {
		if t.Flags&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		s = "none"
	}
	return s
}

// String summarizes the header for diagnostics.
func (t *TCP) String() string {
	return fmt.Sprintf("TCP %d > %d [%s] seq=%d ack=%d", t.SrcPort, t.DstPort, t.FlagString(), t.Seq, t.Ack)
}

// ICMPv4 types.
const (
	ICMPv4EchoReply   uint8 = 0
	ICMPv4Unreachable uint8 = 3
	ICMPv4EchoRequest uint8 = 8
	ICMPv4TimeExceed  uint8 = 11
)

// ICMPv4HeaderLen is the length of the fixed ICMPv4 header.
const ICMPv4HeaderLen = 8

// ICMPv4 is an ICMPv4 header. For echo messages Rest carries the
// identifier (high 16 bits) and sequence number (low 16 bits).
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Rest     uint32
	payload  []byte
}

// LayerPayload returns the bytes after the header.
func (c *ICMPv4) LayerPayload() []byte { return c.payload }

// ID returns the echo identifier.
func (c *ICMPv4) ID() uint16 { return uint16(c.Rest >> 16) }

// Seq returns the echo sequence number.
func (c *ICMPv4) Seq() uint16 { return uint16(c.Rest) }

// SetEcho stores identifier and sequence into Rest.
func (c *ICMPv4) SetEcho(id, seq uint16) { c.Rest = uint32(id)<<16 | uint32(seq) }

// DecodeFromBytes parses the header from the start of data.
func (c *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < ICMPv4HeaderLen {
		return errTruncated("ICMPv4")
	}
	c.Type = data[0]
	c.Code = data[1]
	c.Checksum = binary.BigEndian.Uint16(data[2:4])
	c.Rest = binary.BigEndian.Uint32(data[4:8])
	c.payload = data[ICMPv4HeaderLen:]
	return nil
}

// SerializeTo implements SerializableLayer; the checksum covers the
// ICMP header plus the payload already in the buffer.
func (c *ICMPv4) SerializeTo(b *SerializeBuffer) error {
	hdr := b.PrependBytes(ICMPv4HeaderLen)
	hdr[0] = c.Type
	hdr[1] = c.Code
	hdr[2], hdr[3] = 0, 0
	binary.BigEndian.PutUint32(hdr[4:8], c.Rest)
	c.Checksum = Checksum(b.Bytes())
	binary.BigEndian.PutUint16(hdr[2:4], c.Checksum)
	return nil
}

// String summarizes the header for diagnostics.
func (c *ICMPv4) String() string {
	switch c.Type {
	case ICMPv4EchoRequest:
		return fmt.Sprintf("ICMP echo request id=%d seq=%d", c.ID(), c.Seq())
	case ICMPv4EchoReply:
		return fmt.Sprintf("ICMP echo reply id=%d seq=%d", c.ID(), c.Seq())
	}
	return fmt.Sprintf("ICMP type=%d code=%d", c.Type, c.Code)
}
