package pkt

import (
	"encoding/binary"
	"errors"
)

// In-place frame mutators implementing OpenFlow actions (push/pop VLAN,
// set-field, dec-TTL). They operate directly on the wire bytes and keep
// IP/L4 checksums consistent via incremental update, so a mutation is
// O(header) regardless of payload size — the property the HARMLESS
// hairpin path depends on for its "no major performance penalty" claim.

// ErrNoVLAN is returned when a VLAN operation targets an untagged frame.
var ErrNoVLAN = errors.New("pkt: frame has no VLAN tag")

// ErrTooShort is returned when a frame is too short for the operation.
var ErrTooShort = errors.New("pkt: frame too short")

// HasVLAN reports whether the frame carries an 802.1Q or 802.1ad tag.
func HasVLAN(frame []byte) bool {
	if len(frame) < EthernetHeaderLen {
		return false
	}
	et := binary.BigEndian.Uint16(frame[12:14])
	return et == EtherTypeDot1Q || et == EtherTypeQinQ
}

// VLANID returns the outermost VLAN id, or (0, false) if untagged.
func VLANID(frame []byte) (uint16, bool) {
	if !HasVLAN(frame) || len(frame) < EthernetHeaderLen+Dot1QHeaderLen {
		return 0, false
	}
	return binary.BigEndian.Uint16(frame[14:16]) & 0x0fff, true
}

// PushVLANOwned inserts a new outermost 802.1Q tag with the given VID
// (priority 0) into a frame the caller owns, together with whatever
// capacity lies behind it: with at least Dot1QHeaderLen bytes of spare
// capacity the payload slides back into them and nothing is allocated;
// otherwise the result is a fresh allocation sized for the tag. Either
// way the input slice is dead after the call.
func PushVLANOwned(frame []byte, tpid uint16, vid uint16) ([]byte, error) {
	n := len(frame)
	if n < EthernetHeaderLen {
		return nil, ErrTooShort
	}
	var out []byte
	if cap(frame)-n >= Dot1QHeaderLen {
		out = frame[:n+Dot1QHeaderLen]
	} else {
		out = make([]byte, n+Dot1QHeaderLen)
		copy(out[0:12], frame[0:12])
	}
	copy(out[16:], frame[12:n]) // old EtherType becomes the tag's inner type
	binary.BigEndian.PutUint16(out[12:14], tpid)
	binary.BigEndian.PutUint16(out[14:16], vid&0x0fff)
	return out, nil
}

// PushVLAN is the copying form of PushVLANOwned: the input slice is not
// modified and the result is a fresh allocation sized for the tag.
func PushVLAN(frame []byte, tpid uint16, vid uint16) ([]byte, error) {
	// Clipped to its length the frame has no spare capacity, so the
	// owned form takes its allocating branch and only reads the input.
	return PushVLANOwned(frame[:len(frame):len(frame)], tpid, vid)
}

// PopVLANOwned removes the outermost VLAN tag of a frame the caller
// owns: the two MAC addresses slide forward over the tag and the result
// is the input re-sliced past its first Dot1QHeaderLen bytes — O(12)
// whatever the frame size, and the spare capacity behind the frame is
// kept. The input slice is dead after the call.
func PopVLANOwned(frame []byte) ([]byte, error) {
	if len(frame) < EthernetHeaderLen+Dot1QHeaderLen {
		return nil, ErrTooShort
	}
	if !HasVLAN(frame) {
		return nil, ErrNoVLAN
	}
	copy(frame[Dot1QHeaderLen:Dot1QHeaderLen+12], frame[0:12])
	return frame[Dot1QHeaderLen:], nil
}

// PopVLAN is the copying form of PopVLANOwned: the input slice is not
// modified and the result is a fresh allocation.
func PopVLAN(frame []byte) ([]byte, error) {
	if _, tagged := VLANID(frame); tagged {
		frame = append([]byte(nil), frame...) // only a frame that will be rewritten is cloned
	}
	return PopVLANOwned(frame)
}

// SetVLANID rewrites the outermost tag's VID in place, preserving PCP
// and DEI bits.
func SetVLANID(frame []byte, vid uint16) error {
	if len(frame) < EthernetHeaderLen+Dot1QHeaderLen {
		return ErrTooShort
	}
	if !HasVLAN(frame) {
		return ErrNoVLAN
	}
	tci := binary.BigEndian.Uint16(frame[14:16])
	binary.BigEndian.PutUint16(frame[14:16], tci&0xf000|vid&0x0fff)
	return nil
}

// SetVLANPCP rewrites the outermost tag's priority bits in place.
func SetVLANPCP(frame []byte, pcp uint8) error {
	if len(frame) < EthernetHeaderLen+Dot1QHeaderLen {
		return ErrTooShort
	}
	if !HasVLAN(frame) {
		return ErrNoVLAN
	}
	tci := binary.BigEndian.Uint16(frame[14:16])
	binary.BigEndian.PutUint16(frame[14:16], tci&0x1fff|uint16(pcp&0x7)<<13)
	return nil
}

// SetEthDst rewrites the destination MAC in place.
func SetEthDst(frame []byte, mac MAC) error {
	if len(frame) < 6 {
		return ErrTooShort
	}
	copy(frame[0:6], mac[:])
	return nil
}

// SetEthSrc rewrites the source MAC in place.
func SetEthSrc(frame []byte, mac MAC) error {
	if len(frame) < 12 {
		return ErrTooShort
	}
	copy(frame[6:12], mac[:])
	return nil
}

// ipv4Offsets locates the IPv4 header and, when present, the L4 header
// within the frame, skipping VLAN tags. Returns ipOff < 0 if the frame
// is not IPv4.
func ipv4Offsets(frame []byte) (ipOff, l4Off int, proto uint8) {
	if len(frame) < EthernetHeaderLen {
		return -1, -1, 0
	}
	et := binary.BigEndian.Uint16(frame[12:14])
	off := EthernetHeaderLen
	for et == EtherTypeDot1Q || et == EtherTypeQinQ {
		if len(frame) < off+Dot1QHeaderLen {
			return -1, -1, 0
		}
		et = binary.BigEndian.Uint16(frame[off+2 : off+4])
		off += Dot1QHeaderLen
	}
	if et != EtherTypeIPv4 || len(frame) < off+IPv4MinHeaderLen {
		return -1, -1, 0
	}
	ihl := int(frame[off]&0xf) * 4
	if ihl < IPv4MinHeaderLen || len(frame) < off+ihl {
		return -1, -1, 0
	}
	proto = frame[off+9]
	fragOff := binary.BigEndian.Uint16(frame[off+6:off+8]) & 0x1fff
	if fragOff != 0 {
		return off, -1, proto
	}
	return off, off + ihl, proto
}

// l4ChecksumSlice returns the slice holding the L4 checksum for the
// given protocol, or nil when the protocol has no (adjustable) checksum
// or the frame is too short.
func l4ChecksumSlice(frame []byte, l4Off int, proto uint8) []byte {
	switch proto {
	case IPProtoTCP:
		if l4Off >= 0 && len(frame) >= l4Off+18 {
			return frame[l4Off+16 : l4Off+18]
		}
	case IPProtoUDP:
		if l4Off >= 0 && len(frame) >= l4Off+8 {
			cs := frame[l4Off+6 : l4Off+8]
			if cs[0] == 0 && cs[1] == 0 {
				return nil // checksum disabled; keep it disabled
			}
			return cs
		}
	}
	return nil
}

// SetIPv4Src rewrites the IPv4 source address in place, updating the IP
// header checksum and any TCP/UDP checksum incrementally.
func SetIPv4Src(frame []byte, ip IPv4) error { return setIPv4Addr(frame, ip, 12) }

// SetIPv4Dst rewrites the IPv4 destination address in place, updating
// checksums incrementally.
func SetIPv4Dst(frame []byte, ip IPv4) error { return setIPv4Addr(frame, ip, 16) }

func setIPv4Addr(frame []byte, ip IPv4, fieldOff int) error {
	ipOff, l4Off, proto := ipv4Offsets(frame)
	if ipOff < 0 {
		return ErrTooShort
	}
	fo := ipOff + fieldOff
	old := binary.BigEndian.Uint32(frame[fo : fo+4])
	new := ip.Uint32()
	if old == new {
		return nil
	}
	copy(frame[fo:fo+4], ip[:])
	updateChecksum32(frame[ipOff+10:ipOff+12], old, new)
	if cs := l4ChecksumSlice(frame, l4Off, proto); cs != nil {
		updateChecksum32(cs, old, new) // addresses are in the pseudo-header
	}
	return nil
}

// SetL4Src rewrites the TCP/UDP source port in place with checksum
// fixup.
func SetL4Src(frame []byte, port uint16) error { return setL4Port(frame, port, 0) }

// SetL4Dst rewrites the TCP/UDP destination port in place with checksum
// fixup.
func SetL4Dst(frame []byte, port uint16) error { return setL4Port(frame, port, 2) }

func setL4Port(frame []byte, port uint16, fieldOff int) error {
	_, l4Off, proto := ipv4Offsets(frame)
	if l4Off < 0 || (proto != IPProtoTCP && proto != IPProtoUDP) {
		return ErrTooShort
	}
	if len(frame) < l4Off+4 {
		return ErrTooShort
	}
	fo := l4Off + fieldOff
	old := binary.BigEndian.Uint16(frame[fo : fo+2])
	if old == port {
		return nil
	}
	binary.BigEndian.PutUint16(frame[fo:fo+2], port)
	if cs := l4ChecksumSlice(frame, l4Off, proto); cs != nil {
		updateChecksum16(cs, old, port)
	}
	return nil
}

// DecIPv4TTL decrements the TTL in place with incremental checksum
// update. It returns the new TTL; a result of 0 means the packet must
// be dropped (and, in a router, an ICMP time-exceeded generated).
func DecIPv4TTL(frame []byte) (uint8, error) {
	ipOff, _, _ := ipv4Offsets(frame)
	if ipOff < 0 {
		return 0, ErrTooShort
	}
	ttl := frame[ipOff+8]
	if ttl == 0 {
		return 0, nil
	}
	old := binary.BigEndian.Uint16(frame[ipOff+8 : ipOff+10])
	frame[ipOff+8] = ttl - 1
	new := binary.BigEndian.Uint16(frame[ipOff+8 : ipOff+10])
	updateChecksum16(frame[ipOff+10:ipOff+12], old, new)
	return ttl - 1, nil
}
