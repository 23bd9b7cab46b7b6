package pkt

// IsBroadcast reports whether m is the all-ones broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsBroadcast reports whether ip is the limited broadcast address
// 255.255.255.255.
func (ip IPv4) IsBroadcast() bool { return ip == IPv4{255, 255, 255, 255} }

// IsMulticast reports whether ip is in 224.0.0.0/4.
func (ip IPv4) IsMulticast() bool { return ip[0]&0xf0 == 0xe0 }

// Mask applies a prefix-length mask and returns the network address.
func (ip IPv4) Mask(prefixLen int) IPv4 {
	if prefixLen <= 0 {
		return IPv4{}
	}
	if prefixLen >= 32 {
		return ip
	}
	mask := ^uint32(0) << (32 - uint(prefixLen))
	return IPv4FromUint32(ip.Uint32() & mask)
}

// VerifyChecksum recomputes the header checksum over raw (which must be
// the full header bytes) and reports whether it is consistent.
func (h *IPv4Header) VerifyChecksum(raw []byte) bool {
	hl := h.HeaderLen()
	if len(raw) < hl {
		return false
	}
	return Checksum(raw[:hl]) == 0 // sum including stored checksum folds to 0
}

// VLAN returns the outermost 802.1Q tag, or nil if untagged.
func (p *Packet) VLAN() *Dot1Q {
	if len(p.tags) == 0 {
		return nil
	}
	return &p.tags[0]
}

// HeaderLen returns the header length in bytes including options.
func (h *IPv4Header) HeaderLen() int { return IPv4MinHeaderLen + len(h.Options) }
