package openflow

import "bytes"

// Equal reports whether two matches contain the same TLVs in the same
// order.
func (m *Match) Equal(other *Match) bool {
	if len(m.OXMs) != len(other.OXMs) {
		return false
	}
	for i := range m.OXMs {
		a, b := m.OXMs[i], other.OXMs[i]
		if a.Field != b.Field || a.HasMask != b.HasMask ||
			!bytes.Equal(a.Value, b.Value) || !bytes.Equal(a.Mask, b.Mask) {
			return false
		}
	}
	return true
}
