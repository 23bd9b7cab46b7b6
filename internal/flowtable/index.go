package flowtable

import (
	"encoding/binary"
	"slices"
	"sort"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The lookup index, in the style of ESwitch (Molnár et al., SIGCOMM
// 2016), the software switch the HARMLESS demo runs on: instead of
// scanning the priority-ordered list per packet, a table keeps its
// exact-match entries in a small set of templates — one hash table per
// distinct field signature — and everything else (masked fields, rare
// fields, match-all) in a short residual list in scan order. A lookup
// probes the few templates, then walks the residual only as far as an
// entry could still precede the best template hit. The answer is the
// entry the scan of Table.entries would return: highest priority, and
// among equal priorities the first installed.
//
// The HARMLESS translator (SS_1) program and L2/L3 forwarding tables
// are all-exact, so their residual is at most the table-miss entry.
//
// The index is part of the table and kept under its write lock: Add
// files the new entry, Delete and ExpireEntries rebuild from what they
// kept, Modify touches no match and so leaves it alone. Template
// signatures are MatchMask values, which also makes the index the one
// owner of "which fields does this table consult" (ConsultMask).

// template holds the exact-match entries of one field signature.
type template struct {
	sig MatchMask
	// maxPrio bounds the priorities in entries from above; templates
	// are kept in descending maxPrio order so a lookup can stop early.
	maxPrio uint16
	// entries maps the packed field values to the first entry in scan
	// order that constrains them so; entries it shadows (the same
	// values at a lower priority) can never win a lookup and resurface
	// when a delete rebuilds the index.
	entries map[templateKey]*Entry
}

// rareFields are matchable but have no place in a templateKey; an entry
// constraining one is residual.
const rareFields = MaskVLANPCP | MaskICMPCode | MaskARPSPA | MaskARPTPA

// signature returns the fields m consults and whether m can live in a
// template: it constrains at least one field, none through a mask, and
// none of the rare ones.
func signature(m *Match) (MatchMask, bool) {
	sig := MaskOf(m)
	exact := sig != 0 && sig&rareFields == 0 &&
		(!m.EthDstSet || m.EthDstMask == onesMAC) &&
		(!m.EthSrcSet || m.EthSrcMask == onesMAC) &&
		(!m.IPSrcSet || m.IPSrcMask == onesIPv4) &&
		(!m.IPDstSet || m.IPDstMask == onesIPv4)
	return sig, exact
}

// templateKey is the packed value of the constrained fields, zero
// padded (a template's keys all pack the same fields, so the same
// length). A fixed array keeps it comparable (map key) without
// allocation; 40 bytes hold every field a signature can name.
type templateKey [40]byte

// pack packs the fields of sig out of a packet key; ok is false when
// the packet lacks a field the signature needs, so it can match no
// entry of that template. The VLAN field packs as a presence byte plus
// VID, so VLANAbsent and VLANExact entries share a template without
// colliding: an untagged packet packs (0, 0) and meets only the former.
func pack(sig MatchMask, p *pkt.Key) (k templateKey, ok bool) {
	b := k[:0]
	if sig&MaskInPort != 0 {
		b = binary.BigEndian.AppendUint32(b, p.InPort)
	}
	if sig&MaskEthDst != 0 {
		b = append(b, p.EthDst[:]...)
	}
	if sig&MaskEthSrc != 0 {
		b = append(b, p.EthSrc[:]...)
	}
	if sig&MaskEthType != 0 {
		b = binary.BigEndian.AppendUint16(b, p.EthType)
	}
	if sig&MaskVLAN != 0 {
		if p.HasVLAN {
			b = binary.BigEndian.AppendUint16(append(b, 1), p.VLANID)
		} else {
			b = append(b, 0, 0, 0)
		}
	}
	if sig&MaskIPProto != 0 {
		if !p.HasIPv4 && !p.HasIPv6 {
			return k, false
		}
		b = append(b, p.IPProto)
	}
	if sig&MaskIPSrc != 0 {
		if !p.HasIPv4 {
			return k, false
		}
		b = append(b, p.IPSrc[:]...)
	}
	if sig&MaskIPDst != 0 {
		if !p.HasIPv4 {
			return k, false
		}
		b = append(b, p.IPDst[:]...)
	}
	if sig&MaskL4Src != 0 {
		if !p.HasL4 {
			return k, false
		}
		b = binary.BigEndian.AppendUint16(b, p.L4Src)
	}
	if sig&MaskL4Dst != 0 {
		if !p.HasL4 {
			return k, false
		}
		b = binary.BigEndian.AppendUint16(b, p.L4Dst)
	}
	if sig&MaskICMPType != 0 {
		if !p.HasICMP {
			return k, false
		}
		b = append(b, p.ICMPType)
	}
	if sig&MaskARPOp != 0 {
		if !p.HasARP {
			return k, false
		}
		b = binary.BigEndian.AppendUint16(b, p.ARPOp)
	}
	return k, true // every append landed in k
}

// packMatch packs the values an exact match constrains, through the
// packet key that satisfies it — so an entry and the packets it matches
// pack by one definition.
func packMatch(sig MatchMask, m *Match) templateKey {
	p := pkt.Key{
		InPort: m.InPort, EthDst: m.EthDst, EthSrc: m.EthSrc, EthType: m.EthType,
		HasVLAN: m.VLAN == VLANExact, VLANID: m.VLANVID,
		HasIPv4: true, IPProto: m.IPProto, IPSrc: m.IPSrc, IPDst: m.IPDst,
		HasL4: true, L4Src: m.L4Src, L4Dst: m.L4Dst,
		HasICMP: true, ICMPType: m.ICMPType,
		HasARP: true, ARPOp: m.ARPOp,
	}
	k, _ := pack(sig, &p)
	return k
}

// before reports whether e precedes o in scan order: higher priority
// first, then first installed.
func (e *Entry) before(o *Entry) bool {
	return e.Priority > o.Priority || e.Priority == o.Priority && e.seq < o.seq
}

// insertInOrder inserts e at its place in a list kept in scan order.
func insertInOrder(list []*Entry, e *Entry) []*Entry {
	i := sort.Search(len(list), func(i int) bool { return !list[i].before(e) })
	list = append(list, nil)
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// index files e, which Add just placed in t.entries — in the slot of
// replaced when that is non-nil, whose match equals e's. The caller
// holds the write lock.
func (t *Table) index(e, replaced *Entry) {
	sig, exact := signature(e.Match)
	t.consult.Store(uint32(t.ConsultMask().Union(sig)))
	if !exact {
		if replaced == nil {
			t.residual = insertInOrder(t.residual, e)
		} else {
			t.residual[slices.Index(t.residual, replaced)] = e
		}
		return
	}
	i := 0
	for i < len(t.templates) && t.templates[i].sig != sig {
		i++
	}
	if i == len(t.templates) {
		t.templates = append(t.templates, &template{sig: sig, entries: make(map[templateKey]*Entry)})
	}
	tpl := t.templates[i]
	k := packMatch(sig, e.Match)
	if cur := tpl.entries[k]; cur == nil || cur == replaced || e.before(cur) {
		tpl.entries[k] = e
	}
	if e.Priority > tpl.maxPrio {
		tpl.maxPrio = e.Priority
	}
	for ; i > 0 && t.templates[i-1].maxPrio < tpl.maxPrio; i-- {
		t.templates[i], t.templates[i-1] = t.templates[i-1], t.templates[i]
	}
}

// reindex rebuilds the index from t.entries, after Delete or
// ExpireEntries rewrote them. The caller holds the write lock.
func (t *Table) reindex() {
	t.templates, t.residual = nil, nil
	t.consult.Store(0)
	for _, e := range t.entries {
		t.index(e, nil)
	}
}

// find returns the entry the priority-ordered scan of t.entries would:
// the first in scan order that matches k, nil on a table miss. The
// caller holds the read lock.
func (t *Table) find(k *pkt.Key) *Entry {
	var best *Entry
	for _, tpl := range t.templates {
		if best != nil && tpl.maxPrio < best.Priority {
			break // nor can any later template hold an entry before best
		}
		if pk, ok := pack(tpl.sig, k); ok {
			if e := tpl.entries[pk]; e != nil && (best == nil || e.before(best)) {
				best = e
			}
		}
	}
	for _, e := range t.residual {
		if best != nil && !e.before(best) {
			break
		}
		if e.Match.Matches(k) {
			return e
		}
	}
	return best
}
