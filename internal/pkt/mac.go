// Package pkt implements wire-format encoding and decoding for the
// protocol layers the HARMLESS dataplane needs: Ethernet, 802.1Q VLAN
// tags, ARP, IPv4, IPv6, TCP, UDP, ICMPv4 and a small DNS codec.
//
// DecodeEthernet walks the one header chain a frame can carry into a
// Packet with each header in a typed field, convenient for hosts, tests,
// captures and management tooling. Each header type knows its own wire
// format, and serialization prepends headers onto a buffer so a packet
// is built back-to-front, as in gopacket.
//
// The datapath uses ExtractFlat (see key.go) instead, which packs
// all OpenFlow-matchable fields of a frame in a single pass without
// building header objects at all, and the in-place mutators in mutate.go
// that implement OpenFlow set-field/push/pop actions with incremental
// checksum fixup. The packed key is six words (FlatKey), the form the
// flow tables' classifier and the softswitch's flow cache mask, compare
// and hash; Key is its field-by-field form.
package pkt

import (
	"errors"
	"fmt"
)

// MAC is a 48-bit IEEE 802 MAC address. It is a value type and is
// comparable, so it can be used directly as a map key in forwarding
// tables.
type MAC [6]byte

// Well-known MAC addresses.
var (
	// BroadcastMAC is the all-ones broadcast address.
	BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	// ZeroMAC is the all-zero address (invalid as a source).
	ZeroMAC = MAC{}
)

// ParseMAC parses the canonical colon-separated hexadecimal form
// ("aa:bb:cc:dd:ee:ff"). Dashes are accepted as separators too.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("pkt: invalid MAC %q: wrong length", s)
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := hexVal(s[i*3])
		lo, ok2 := hexVal(s[i*3+1])
		if !ok1 || !ok2 {
			return m, fmt.Errorf("pkt: invalid MAC %q: bad hex digit", s)
		}
		m[i] = hi<<4 | lo
		if i < 5 && s[i*3+2] != ':' && s[i*3+2] != '-' {
			return m, fmt.Errorf("pkt: invalid MAC %q: bad separator", s)
		}
	}
	return m, nil
}

// MustMAC is like ParseMAC but panics on error. Intended for tests and
// package-level variables with literal addresses.
func MustMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

func hexVal(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// String renders the address in canonical colon-separated lowercase hex.
func (m MAC) String() string {
	const hexDigits = "0123456789abcdef"
	buf := make([]byte, 17)
	for i, b := range m {
		buf[i*3] = hexDigits[b>>4]
		buf[i*3+1] = hexDigits[b&0xf]
		if i < 5 {
			buf[i*3+2] = ':'
		}
	}
	return string(buf)
}

// IsMulticast reports whether the group bit (LSB of the first octet) is
// set. Broadcast is a special case of multicast.
func (m MAC) IsMulticast() bool { return m[0]&0x01 != 0 }

// IsZero reports whether m is the all-zero address.
func (m MAC) IsZero() bool { return m == ZeroMAC }

// IsUnicast reports whether m is a valid unicast address (group bit
// clear and not all-zero).
func (m MAC) IsUnicast() bool { return !m.IsMulticast() && !m.IsZero() }

// IPv4 is a 32-bit IPv4 address stored in network byte order. Like MAC
// it is comparable and map-key friendly.
type IPv4 [4]byte

// ParseIPv4 parses dotted-quad notation.
func ParseIPv4(s string) (IPv4, error) {
	var ip IPv4
	n, idx := 0, 0
	sawDigit := false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if !sawDigit || idx > 3 {
				return IPv4{}, errors.New("pkt: invalid IPv4 address " + s)
			}
			ip[idx] = byte(n)
			idx++
			n, sawDigit = 0, false
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			return IPv4{}, errors.New("pkt: invalid IPv4 address " + s)
		}
		n = n*10 + int(c-'0')
		if n > 255 {
			return IPv4{}, errors.New("pkt: invalid IPv4 address " + s)
		}
		sawDigit = true
	}
	if idx != 4 {
		return IPv4{}, errors.New("pkt: invalid IPv4 address " + s)
	}
	return ip, nil
}

// MustIPv4 is like ParseIPv4 but panics on error.
func MustIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// String renders the address as a dotted quad.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a host-order integer (useful for
// hashing and range checks).
func (ip IPv4) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// IPv4FromUint32 converts a host-order integer into an address.
func IPv4FromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IsZero reports whether ip is 0.0.0.0.
func (ip IPv4) IsZero() bool { return ip == IPv4{} }

// IPv6 is a 128-bit IPv6 address in network byte order.
type IPv6 [16]byte

// String renders a simple, non-compressed hex representation
// (full 8 groups). Compression is unnecessary for our diagnostics.
func (ip IPv6) String() string {
	return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
		uint16(ip[0])<<8|uint16(ip[1]), uint16(ip[2])<<8|uint16(ip[3]),
		uint16(ip[4])<<8|uint16(ip[5]), uint16(ip[6])<<8|uint16(ip[7]),
		uint16(ip[8])<<8|uint16(ip[9]), uint16(ip[10])<<8|uint16(ip[11]),
		uint16(ip[12])<<8|uint16(ip[13]), uint16(ip[14])<<8|uint16(ip[15]))
}
