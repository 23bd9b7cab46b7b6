package pkt

import (
	"encoding/binary"
	"fmt"
)

// EtherType values used by the HARMLESS dataplane.
const (
	EtherTypeIPv4  uint16 = 0x0800
	EtherTypeARP   uint16 = 0x0806
	EtherTypeDot1Q uint16 = 0x8100 // C-VLAN tag (802.1Q)
	EtherTypeQinQ  uint16 = 0x88a8 // S-VLAN tag (802.1ad)
	EtherTypeIPv6  uint16 = 0x86dd
)

// EthernetHeaderLen is the length of an untagged Ethernet II header.
const EthernetHeaderLen = 14

// Dot1QHeaderLen is the length of one 802.1Q tag (TPID is accounted in
// the preceding EtherType position, so a tag adds 4 bytes on the wire).
const Dot1QHeaderLen = 4

// MinFrameLen is the minimum Ethernet frame size (without FCS). The
// emulated fabric does not enforce padding, but traffic generators use
// it to produce realistic size distributions.
const MinFrameLen = 60

// MaxFrameLen is the conventional maximum untagged frame size (without
// FCS): 1500-byte MTU plus the 14-byte header.
const MaxFrameLen = 1514

// Ethernet is an Ethernet II header.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	EtherType uint16 // the type immediately following this header
}

// DecodeFromBytes parses the header from the start of data.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return errTruncated("Ethernet")
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return nil
}

// SerializeTo implements SerializableLayer.
func (e *Ethernet) SerializeTo(b *SerializeBuffer) error {
	hdr := b.PrependBytes(EthernetHeaderLen)
	copy(hdr[0:6], e.Dst[:])
	copy(hdr[6:12], e.Src[:])
	binary.BigEndian.PutUint16(hdr[12:14], e.EtherType)
	return nil
}

// String summarizes the header for diagnostics.
func (e *Ethernet) String() string {
	return fmt.Sprintf("Ethernet %s > %s type=0x%04x", e.Src, e.Dst, e.EtherType)
}

// Dot1Q is one 802.1Q VLAN tag. On the wire the tag sits between the
// source MAC and the encapsulated EtherType; as decoded, the Ethernet
// header's EtherType is 0x8100 (or 0x88a8) and the tag carries the TCI
// plus the real EtherType.
type Dot1Q struct {
	Priority     uint8  // PCP, 3 bits
	DropEligible bool   // DEI, 1 bit
	VLANID       uint16 // VID, 12 bits
	EtherType    uint16 // encapsulated protocol
}

// DecodeFromBytes parses the tag from the start of data.
func (d *Dot1Q) DecodeFromBytes(data []byte) error {
	if len(data) < Dot1QHeaderLen {
		return errTruncated("Dot1Q")
	}
	tci := binary.BigEndian.Uint16(data[0:2])
	d.Priority = uint8(tci >> 13)
	d.DropEligible = tci&0x1000 != 0
	d.VLANID = tci & 0x0fff
	d.EtherType = binary.BigEndian.Uint16(data[2:4])
	return nil
}

// SerializeTo implements SerializableLayer.
func (d *Dot1Q) SerializeTo(b *SerializeBuffer) error {
	if d.VLANID > 0x0fff {
		return fmt.Errorf("pkt: VLAN id %d out of range", d.VLANID)
	}
	hdr := b.PrependBytes(Dot1QHeaderLen)
	tci := uint16(d.Priority)<<13 | d.VLANID
	if d.DropEligible {
		tci |= 0x1000
	}
	binary.BigEndian.PutUint16(hdr[0:2], tci)
	binary.BigEndian.PutUint16(hdr[2:4], d.EtherType)
	return nil
}

// String summarizes the tag for diagnostics.
func (d *Dot1Q) String() string {
	return fmt.Sprintf("Dot1Q vid=%d pcp=%d type=0x%04x", d.VLANID, d.Priority, d.EtherType)
}

// Payload is opaque application bytes, serialized after all headers.
type Payload []byte

// SerializeTo implements SerializableLayer.
func (p *Payload) SerializeTo(b *SerializeBuffer) error {
	dst := b.PrependBytes(len(*p))
	copy(dst, *p)
	return nil
}
