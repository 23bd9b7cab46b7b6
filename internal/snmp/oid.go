// Package snmp implements the SNMPv2c subset the HARMLESS manager uses
// to discover and monitor the legacy switch: GET, GETNEXT, SET and
// RESPONSE PDUs with real BER (basic encoding rules) wire encoding,
// carried over UDP. An Agent serves a MIB view assembled from
// registered scalars; a Client issues requests with retry and
// request-id matching, plus a GETNEXT-based Walk.
//
// Everything is built on the standard library; no external ASN.1
// helpers are used (encoding/asn1 cannot express SNMP's
// application-class tags).
package snmp

import (
	"fmt"
	"strconv"
	"strings"
)

// OID is an object identifier, e.g. 1.3.6.1.2.1.1.5.0.
type OID []uint32

// ParseOID parses dotted notation with an optional leading dot.
func ParseOID(s string) (OID, error) {
	s = strings.TrimPrefix(s, ".")
	if s == "" {
		return nil, fmt.Errorf("snmp: empty OID")
	}
	parts := strings.Split(s, ".")
	o := make(OID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("snmp: bad OID component %q", p)
		}
		o = append(o, uint32(v))
	}
	if len(o) < 2 {
		return nil, fmt.Errorf("snmp: OID %q too short", s)
	}
	if o[0] > 2 || (o[0] < 2 && o[1] >= 40) {
		return nil, fmt.Errorf("snmp: invalid OID root %d.%d", o[0], o[1])
	}
	return o, nil
}

// MustOID is ParseOID that panics; for literals in tables and tests.
func MustOID(s string) OID {
	o, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return o
}

// String renders dotted notation with a leading dot.
func (o OID) String() string {
	var sb strings.Builder
	for _, c := range o {
		sb.WriteByte('.')
		sb.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return sb.String()
}

// Cmp compares two OIDs in lexicographic MIB order.
func (o OID) Cmp(other OID) int {
	n := len(o)
	if len(other) < n {
		n = len(other)
	}
	for i := 0; i < n; i++ {
		switch {
		case o[i] < other[i]:
			return -1
		case o[i] > other[i]:
			return 1
		}
	}
	switch {
	case len(o) < len(other):
		return -1
	case len(o) > len(other):
		return 1
	}
	return 0
}

// HasPrefix reports whether o begins with prefix.
func (o OID) HasPrefix(prefix OID) bool {
	if len(o) < len(prefix) {
		return false
	}
	for i, c := range prefix {
		if o[i] != c {
			return false
		}
	}
	return true
}

// Append returns a new OID with the extra components appended.
func (o OID) Append(components ...uint32) OID {
	out := make(OID, 0, len(o)+len(components))
	out = append(out, o...)
	return append(out, components...)
}

// Clone returns a copy.
func (o OID) Clone() OID {
	out := make(OID, len(o))
	copy(out, o)
	return out
}
