package pkt

import (
	"encoding/binary"
	"fmt"
)

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARPHeaderLen is the length of an Ethernet/IPv4 ARP packet.
const ARPHeaderLen = 28

// ARP is an Ethernet/IPv4 ARP packet (HTYPE=1, PTYPE=0x0800).
type ARP struct {
	Op        uint16
	SenderHW  MAC
	SenderIP  IPv4
	TargetHW  MAC
	TargetIP  IPv4
	HWType    uint16 // decoded as-is; 1 on serialize
	ProtoType uint16 // decoded as-is; 0x0800 on serialize
}

// DecodeFromBytes parses the packet from the start of data.
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < ARPHeaderLen {
		return errTruncated("ARP")
	}
	a.HWType = binary.BigEndian.Uint16(data[0:2])
	a.ProtoType = binary.BigEndian.Uint16(data[2:4])
	if hlen, plen := data[4], data[5]; hlen != 6 || plen != 4 {
		return &decodeError{header: "ARP", msg: fmt.Sprintf("unsupported hlen/plen %d/%d", hlen, plen)}
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderHW[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetHW[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}

// SerializeTo implements SerializableLayer.
func (a *ARP) SerializeTo(b *SerializeBuffer) error {
	hdr := b.PrependBytes(ARPHeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], 1)      // Ethernet
	binary.BigEndian.PutUint16(hdr[2:4], 0x0800) // IPv4
	hdr[4], hdr[5] = 6, 4
	binary.BigEndian.PutUint16(hdr[6:8], a.Op)
	copy(hdr[8:14], a.SenderHW[:])
	copy(hdr[14:18], a.SenderIP[:])
	copy(hdr[18:24], a.TargetHW[:])
	copy(hdr[24:28], a.TargetIP[:])
	return nil
}

// String summarizes the packet for diagnostics.
func (a *ARP) String() string {
	if a.Op == ARPRequest {
		return fmt.Sprintf("ARP who-has %s tell %s (%s)", a.TargetIP, a.SenderIP, a.SenderHW)
	}
	return fmt.Sprintf("ARP %s is-at %s", a.SenderIP, a.SenderHW)
}
