package flowtable

import (
	"sort"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The classifier: tuple-space search, the lookup structure of Open
// vSwitch and ESwitch (Molnár et al., SIGCOMM 2016), the software switch
// the HARMLESS demo runs on. An OpenFlow match is a value under a mask,
// and that is the one form a rule's wildcards take here: Add compiles
// the Match into a (value, mask) pair over the packed packet key
// (pkt.FlatKey), and the table files the entry under its mask — one
// tuple per distinct mask, each a hash table from value to entry. A
// lookup ANDs the packet's packed key with each tuple's mask and probes:
// one hash per mask in use, however many rules share it, whatever they
// mask (exact fields, prefixes, holed MAC masks, the match-all). The
// answer is the entry the scan of Table.entries would return: highest
// priority, and among equal priorities the first installed.
//
// The HARMLESS translator (SS_1) program is two tuples, an L2 table with
// a table-miss default two; the worst case is a table whose every rule
// has a mask of its own, which costs a compare per rule, as a scan does.
//
// The tuples are part of the table and kept under its write lock: Add
// files the new entry, Delete and ExpireEntries rebuild from what they
// kept, Modify touches no match and so leaves them alone. Their masks
// ORed together are the bits a lookup here can read (ConsultMask).

// compiled is a Match in the classifier's form: a key satisfies the
// match iff its packed form ANDed with mask equals value — and, with
// anyIP, it is an IPv4 or IPv6 packet; with never, not at all.
type compiled struct {
	value, mask pkt.FlatKey
	// anyIP: ip_proto is constrained and no IPv4-only field is, so the
	// packet must be IPv4 or IPv6 — the one prerequisite of Matches that
	// is a disjunction, and so no bit of mask. A property of the mask
	// (ip_proto in it, HasIPv4 not), hence of the tuple.
	anyIP bool
	// never: vlan_pcp on a match for untagged packets.
	never bool
}

var (
	// shapeBits covers the presence bits of a packed key, ipShape the two
	// either of which makes a packet IP.
	shapeBits = flatOf(&pkt.Key{HasVLAN: true, HasIPv4: true, HasIPv6: true, HasARP: true, HasL4: true, HasICMP: true})
	ipShape   = flatOf(&pkt.Key{HasIPv4: true, HasIPv6: true})
)

func flatOf(k *pkt.Key) (f pkt.FlatKey) {
	k.FlatInto(&f)
	return f
}

// compile packs m through two packet keys, so that the layout stays
// pkt's alone: v holds the values m asks for, w all ones under every bit
// it constrains. A presence bit enters both wherever Matches demands the
// header.
func compile(m *Match) compiled {
	var v, w pkt.Key
	if m.InPortSet {
		v.InPort, w.InPort = m.InPort, ^uint32(0)
	}
	if m.EthDstSet {
		v.EthDst, w.EthDst = m.EthDst, m.EthDstMask
	}
	if m.EthSrcSet {
		v.EthSrc, w.EthSrc = m.EthSrc, m.EthSrcMask
	}
	if m.EthTypeSet {
		v.EthType, w.EthType = m.EthType, ^uint16(0)
	}
	switch m.VLAN {
	case VLANAbsent:
		w.HasVLAN = true
	case VLANExact:
		v.HasVLAN, w.HasVLAN, v.VLANID, w.VLANID = true, true, m.VLANVID, ^uint16(0)
	}
	if m.VLANPCPSet {
		v.HasVLAN, w.HasVLAN, v.VLANPCP, w.VLANPCP = true, true, m.VLANPCP, ^uint8(0)
	}
	if m.IPProtoSet {
		v.IPProto, w.IPProto = m.IPProto, ^uint8(0)
	}
	if m.IPSrcSet {
		v.HasIPv4, w.HasIPv4, v.IPSrc, w.IPSrc = true, true, m.IPSrc, m.IPSrcMask
	}
	if m.IPDstSet {
		v.HasIPv4, w.HasIPv4, v.IPDst, w.IPDst = true, true, m.IPDst, m.IPDstMask
	}
	if m.L4SrcSet {
		v.HasL4, w.HasL4, v.L4Src, w.L4Src = true, true, m.L4Src, ^uint16(0)
	}
	if m.L4DstSet {
		v.HasL4, w.HasL4, v.L4Dst, w.L4Dst = true, true, m.L4Dst, ^uint16(0)
	}
	if m.ICMPTypeSet {
		v.HasICMP, w.HasICMP, v.ICMPType, w.ICMPType = true, true, m.ICMPType, ^uint8(0)
	}
	if m.ICMPCodeSet {
		v.HasICMP, w.HasICMP, v.ICMPCode, w.ICMPCode = true, true, m.ICMPCode, ^uint8(0)
	}
	if m.ARPOpSet {
		v.HasARP, w.HasARP, v.ARPOp, w.ARPOp = true, true, m.ARPOp, ^uint16(0)
	}
	if m.ARPSPASet {
		v.HasARP, w.HasARP, v.ARPSPA, w.ARPSPA = true, true, m.ARPSPA, m.ARPSPAMask
	}
	if m.ARPTPASet {
		v.HasARP, w.HasARP, v.ARPTPA, w.ARPTPA = true, true, m.ARPTPA, m.ARPTPAMask
	}
	c := compiled{
		mask:  flatOf(&w),
		anyIP: m.IPProtoSet && !w.HasIPv4,
		never: m.VLANPCPSet && m.VLAN == VLANAbsent,
	}
	value := flatOf(&v)
	c.value = value.And(&c.mask)
	return c
}

// coveredBy reports whether every key c accepts, r accepts too: r
// constrains no bit c leaves free, and on r's bits the two agree. (r's IP
// shape check needs no look: it comes with ip_proto in r's mask, hence in
// c's, and then c makes the check itself or demands IPv4 outright.)
func (c *compiled) coveredBy(r *compiled) bool {
	if c.never || r.never {
		return c.never
	}
	return c.mask.And(&r.mask) == r.mask && c.value.And(&r.mask) == r.value
}

// tuple holds the entries of one mask.
type tuple struct {
	mask  pkt.FlatKey
	anyIP bool
	// maxPrio bounds the priorities of the tuple's entries from above;
	// tuples are kept in descending maxPrio order so a lookup can stop
	// early.
	maxPrio uint16
	// A tuple of one value is compared, not hashed: first is the bucket
	// of value while entries is nil. A table of all-distinct masks then
	// costs a compare per rule, and a table-miss default six words.
	value pkt.FlatKey
	first *Entry
	// entries maps each value to its bucket: the first entry in scan
	// order that asks for it. Entries it shadows (the same value at a
	// lower priority) can never win a lookup and resurface when a delete
	// rebuilds the tuples.
	entries map[pkt.FlatKey]*Entry
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

// bucket returns the entry filed at value v, nil when there is none.
func (tp *tuple) bucket(v *pkt.FlatKey) *Entry {
	if tp.entries != nil {
		return tp.entries[*v]
	}
	if tp.value == *v {
		return tp.first
	}
	return nil
}

// filed reports whether the tuple of c's mask holds an entry at c's
// value. The caller holds a lock.
func (t *Table) filed(c *compiled) bool {
	for i := range t.tuples {
		if t.tuples[i].mask == c.mask {
			return t.tuples[i].bucket(&c.value) != nil
		}
	}
	return false
}

// index files e, which Add just compiled and placed in t.entries — in
// the slot of replaced when that is non-nil, whose match equals e's. at,
// when reindex passes one, maps each mask to its tuple's place. The caller
// holds the write lock.
func (t *Table) index(e, replaced *Entry, at map[pkt.FlatKey]int) {
	c := &e.cm
	if c.never {
		return
	}
	if cur := t.ConsultMask(); cur.And(&c.mask) != c.mask {
		wider := cur.Or(&c.mask)
		t.consult.Store(&wider)
	}
	i, ok := at[c.mask]
	if at == nil {
		for i < len(t.tuples) && t.tuples[i].mask != c.mask {
			i++
		}
	} else if !ok {
		i = len(t.tuples)
		at[c.mask] = i
	}
	if i == len(t.tuples) {
		t.tuples = append(t.tuples, tuple{mask: c.mask, anyIP: c.anyIP, value: c.value})
	}
	tp := &t.tuples[i]
	switch cur := tp.bucket(&c.value); {
	case cur != nil && cur != replaced && !e.before(cur):
		// shadowed by cur
	case tp.entries != nil:
		tp.entries[c.value] = e
	case tp.value == c.value:
		tp.first = e
	default: // a second value: the tuple is hashed from here on
		tp.entries = map[pkt.FlatKey]*Entry{tp.value: tp.first, c.value: e}
	}
	if e.Priority > tp.maxPrio {
		tp.maxPrio = e.Priority
	}
	for ; i > 0 && t.tuples[i-1].maxPrio < t.tuples[i].maxPrio; i-- {
		t.tuples[i], t.tuples[i-1] = t.tuples[i-1], t.tuples[i]
	}
}

// reindex rebuilds the tuples from t.entries, after Delete or
// ExpireEntries rewrote them. t.entries is in scan order, so each tuple
// is appended at its maxPrio and stays where at says it is: a table of
// all-distinct masks is rebuilt in one pass, not one scan per entry. The
// caller holds the write lock.
func (t *Table) reindex() {
	t.tuples = nil
	t.consult.Store(&shapeBits)
	at := make(map[pkt.FlatKey]int)
	for _, e := range t.entries {
		t.index(e, nil, at)
	}
}

// find returns the entry the priority-ordered scan of t.entries would:
// the first in scan order that matches the packed key f, nil on a table
// miss. The caller holds the read lock.
func (t *Table) find(f *pkt.FlatKey) *Entry {
	var best *Entry
	for i := range t.tuples {
		tp := &t.tuples[i]
		if best != nil && tp.maxPrio < best.Priority {
			break // nor can any later tuple hold an entry before best
		}
		if s := &ipShape; tp.anyIP && f[0]&s[0]|f[1]&s[1]|f[2]&s[2]|f[3]&s[3]|f[4]&s[4]|f[5]&s[5] == 0 {
			continue // neither IPv4 nor IPv6
		}
		var e *Entry
		if tp.entries != nil {
			e = tp.entries[f.And(&tp.mask)]
		} else if m, v := &tp.mask, &tp.value; (f[0]&m[0]^v[0])|(f[1]&m[1]^v[1])|(f[2]&m[2]^v[2])|
			(f[3]&m[3]^v[3])|(f[4]&m[4]^v[4])|(f[5]&m[5]^v[5]) == 0 {
			e = tp.first
		}
		if e != nil && (best == nil || e.before(best)) {
			best = e
		}
	}
	return best
}
