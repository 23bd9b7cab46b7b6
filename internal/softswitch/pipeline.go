package softswitch

import (
	"encoding/binary"
	"sync"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// replay executes a cache entry's program on a run: frames the batch
// probe resolved to the entry, back to back in the burst (a single frame
// is a run of one), copied into the dispatch's scratch and compacted
// there. A credit is paid once for the run, with the bytes its frames
// have at that point of the program; rewrites apply frame by frame; the
// output appends the survivors in one go (applyRun). A program that
// decides per packet (perFrame) takes its run one frame at a time. A
// crossing (opCross) moves the rest of the program to the peer switch.
func (s *Switch) replay(mf *CacheEntry, inPort uint32, run [][]byte, st *dispatchState) {
	if mf.perFrame && len(run) > 1 {
		for i := range run {
			s.replay(mf, inPort, run[i:i+1], st)
		}
		return
	}
	tx := &st.tx
	live := st.run[:len(run)]
	copy(live, run)
	sw, crossed := s, 0
	for i := range mf.ops {
		op := &mf.ops[i]
		switch op.kind {
		case opCredit:
			bytes := 0
			for _, f := range live {
				bytes += len(f)
			}
			tx.credit(op.table, op.entry, len(live), bytes, sw.clock)
		case opMeter: // perFrame: a run of one
			if !sw.meters.Pass(op.meterID, len(live[0])) {
				sw.drops.Inc()
				return
			}
		case opApply:
			if !mf.perFrame {
				if live = sw.applyRun(op.acts, live, tx); len(live) == 0 {
					return // output, or every frame dropped
				}
				continue
			}
			var res applyResult
			if live[0], res = sw.applyActions(op.acts, inPort, live[0], op.tableID, op.entry, tx); res != applyRetained {
				return // frame consumed (output, group) or dropped
			}
		case opCross:
			if live = cross(op, live, tx, crossed); len(live) == 0 {
				return
			}
			crossed++
			tx.depth = max(tx.depth, crossed)
			sw, inPort = op.port.peer, op.port.peerPort
		}
	}
	// Program ran to completion without consuming the frames: the walk
	// ended with an empty action set or one lacking an output. Drop,
	// exactly as runPipelineKeyed does.
	sw.drops.Add(uint64(len(live)))
}

// cross carries a replayed run over op's patch port, crossed ports into
// the entry, and returns the frames that go on in the peer. Where follow
// would not go on — into a peer with telemetry, at the hop bound, or for
// a frame a guarded crossing finds tagged — frames go out the port.
func cross(op *microOp, live [][]byte, tx *txContext, crossed int) [][]byte {
	p := op.port
	if p.peer.telemetry.Load() != nil || tx.hops+crossed >= maxPatchHops {
		tx.addRun(p, live)
		return live[:0]
	}
	n, bytes := 0, uint64(0)
	for _, f := range live {
		if op.untagged && pkt.HasVLAN(f) {
			tx.add(p, f)
			continue
		}
		live[n] = f
		n++
		bytes += uint64(len(f))
	}
	p.crossed(n, bytes)
	return live[:n]
}

// applyRun executes one action list of a program that decides nothing
// per packet on a run's frames, compacting the survivors in place: each
// rewrite frame by frame, dropping and counting a frame that fails it,
// and the output — the program's only one, and its last action — as one
// append of the survivors to the port's egress vector. It returns the
// frames still held, none once they were output.
func (s *Switch) applyRun(acts []openflow.Action, live [][]byte, tx *txContext) [][]byte {
	for _, a := range acts {
		if out, ok := a.(*openflow.ActionOutput); ok {
			if p := s.getPort(out.Port); p != nil {
				tx.addRun(p, live)
			} else {
				s.drops.Add(uint64(len(live)))
			}
			return live[:0]
		}
		n := 0
		for _, f := range live {
			f, ok := s.rewrite(a, f)
			if !ok {
				s.drops.Inc()
				continue
			}
			live[n] = f
			n++
		}
		if live = live[:n]; n == 0 {
			break
		}
	}
	return live
}

// runPipelineKeyed walks the tables from table 0 for a key parsed once
// per frame into its packed form. With rec non-nil it records every
// table consulted, with its revision read before the lookup, its consult
// mask, and every operation executed, so the walk can be cached; a
// recorded program whose last action outputs to a patch port stops short
// of that output and returns the port and the frame, for the caller to
// follow into the peer or to output (recorder.follow).
func (s *Switch) runPipelineKeyed(flat *pkt.FlatKey, inPort uint32, frame []byte, rec *recorder, tx *txContext) ([]byte, *swPort) {
	var actionSet []openflow.Action
	var tableID uint8
	for {
		table := s.tables[tableID]
		var rev uint64
		if rec != nil {
			rev = table.Version()
			rec.mask = rec.mask.Or(table.ConsultMask())
		}
		entry := table.Find(flat)
		if entry == nil {
			// OpenFlow 1.3 table-miss without a miss entry: drop. Not
			// cached — a later flow-add must see the packet's key again.
			if rec != nil {
				rec.uncacheable = true
			}
			s.drops.Inc()
			return nil, nil
		}
		tx.credit(table, entry, 1, len(frame), s.clock)
		if rec != nil {
			rec.deps = append(rec.deps, tableDep{table: table, rev: rev})
			rec.ops = append(rec.ops, microOp{kind: opCredit, table: table, entry: entry})
		}
		next := int16(-1)
		for _, instr := range entry.Instrs() {
			switch in := instr.(type) {
			case *openflow.InstrMeter:
				if rec != nil {
					rec.ops = append(rec.ops, microOp{kind: opMeter, meterID: in.MeterID})
				}
				if !s.meters.Pass(in.MeterID, len(frame)) {
					// The rest of the walk was never observed; a future
					// packet of this flow may pass the meter, so the
					// truncated program must not be cached.
					if rec != nil {
						rec.uncacheable = true
					}
					s.drops.Inc()
					return nil, nil
				}
			case *openflow.InstrApplyActions:
				acts := in.Actions
				var patch *swPort
				if rec != nil {
					rec.ops = append(rec.ops, microOp{kind: opApply, acts: acts, tableID: tableID, entry: entry})
					if patch = s.patchOutput(acts); patch != nil {
						acts = acts[:len(acts)-1]
					}
				}
				var res applyResult
				frame, res = s.applyActions(acts, inPort, frame, tableID, entry, tx)
				if patch != nil && res == applyRetained {
					return frame, patch
				}
				if res != applyRetained {
					// A per-packet drop truncates the observed program;
					// consumption by output/group is structural and the
					// recording stays cacheable.
					if rec != nil && res == applyDropped {
						rec.uncacheable = true
					}
					return nil, nil
				}
			case *openflow.InstrClearActions:
				actionSet = actionSet[:0]
			case *openflow.InstrWriteActions:
				actionSet = mergeActionSet(actionSet, in.Actions)
			case *openflow.InstrGotoTable:
				next = int16(in.TableID)
			}
		}
		if next < 0 || int(next) >= len(s.tables) || uint8(next) <= tableID {
			break // end of pipeline
		}
		tableID = uint8(next)
	}

	// Execute the accumulated action set (spec order: pop, push,
	// set-field/dec-ttl, group, output last).
	if len(actionSet) == 0 {
		s.drops.Inc()
		return nil, nil
	}
	ordered := orderActionSet(actionSet)
	var patch *swPort
	if rec != nil {
		rec.ops = append(rec.ops, microOp{kind: opApply, acts: ordered, tableID: tableID})
		if patch = s.patchOutput(ordered); patch != nil {
			ordered = ordered[:len(ordered)-1]
		}
	}
	frame, res := s.applyActions(ordered, inPort, frame, tableID, nil, tx)
	switch {
	case patch != nil && res == applyRetained:
		return frame, patch
	case res == applyRetained && frame != nil:
		s.drops.Inc() // an action set without an output
	case rec != nil && res == applyDropped:
		rec.uncacheable = true
	}
	return nil, nil
}

// patchOutput returns the patch port an action list outputs to as its
// last action and only output, if any: where a recording walk may follow
// the frame. A list with an output or a group ahead of that one runs
// whole, as on an unrecorded walk: follow would hand the frame off anyway.
func (s *Switch) patchOutput(acts []openflow.Action) *swPort {
	for i, a := range acts {
		switch a := a.(type) {
		case *openflow.ActionGroup:
			return nil
		case *openflow.ActionOutput:
			if p := s.getPort(a.Port); i == len(acts)-1 && p != nil && p.peer != nil {
				return p
			}
			return nil
		}
	}
	return nil
}

// mergeActionSet implements write-actions semantics: one action per
// type, later writes replace earlier ones.
func mergeActionSet(set, add []openflow.Action) []openflow.Action {
	for _, a := range add {
		replaced := false
		for i, old := range set {
			if old.ActionType() == a.ActionType() {
				// set-field actions are per-field.
				if sf, ok := a.(*openflow.ActionSetField); ok {
					if osf, ok := old.(*openflow.ActionSetField); ok && osf.OXM.Field != sf.OXM.Field {
						continue
					}
				}
				set[i] = a
				replaced = true
				break
			}
		}
		if !replaced {
			set = append(set, a)
		}
	}
	return set
}

// orderActionSet sorts the action set into spec execution order.
func orderActionSet(set []openflow.Action) []openflow.Action {
	rank := func(a openflow.Action) int {
		switch a.ActionType() {
		case openflow.ActionTypePopVLAN:
			return 0
		case openflow.ActionTypePushVLAN:
			return 1
		case openflow.ActionTypeDecNwTTL:
			return 2
		case openflow.ActionTypeSetField:
			return 3
		case openflow.ActionTypeGroup:
			return 4
		case openflow.ActionTypeOutput:
			return 5
		}
		return 3
	}
	out := make([]openflow.Action, len(set))
	copy(out, set)
	// Insertion sort: the set is tiny and must be stable.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank(out[j]) < rank(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// applyResult is how an action list left the frame. The recorder tells
// consumed from dropped: an output or group ends every packet of the flow
// there, while a drop (TTL run out, malformed tag) is per packet and
// leaves the rest of the walk unseen, so that walk is not cached.
type applyResult int

const (
	applyRetained applyResult = iota // caller keeps the (possibly reallocated) frame
	applyConsumed                    // output/group took ownership
	applyDropped                     // frame dropped by a per-packet condition
)

// applyActions executes an action list on the frame, which the switch
// owns together with the spare capacity behind it: set-field, VLAN pop
// and — given room for the tag — VLAN push rewrite it in place. It
// returns the (re-sliced or reallocated) frame and applyRetained if the
// caller keeps ownership; otherwise the frame was consumed or dropped.
// entry may be nil (action-set execution).
func (s *Switch) applyActions(actions []openflow.Action, inPort uint32, frame []byte, tableID uint8, entry *flowtable.Entry, tx *txContext) ([]byte, applyResult) {
	for i, a := range actions {
		switch act := a.(type) {
		case *openflow.ActionGroup:
			s.applyGroup(act.GroupID, inPort, frame, tableID, tx)
			return nil, applyConsumed // group consumes the frame
		case *openflow.ActionOutput:
			last := i == len(actions)-1
			s.output(act, inPort, frame, tableID, entry, last, tx)
			if last {
				return nil, applyConsumed
			}
			frame = ownedCopy(frame, false) // output took the frame; the rest acts on a copy
		default:
			var ok bool
			if frame, ok = s.rewrite(a, frame); !ok {
				s.drops.Inc()
				return nil, applyDropped
			}
		}
	}
	return frame, applyRetained
}

// rewrite applies one frame-local action — VLAN push or pop, dec-TTL,
// set-field — to a frame the switch owns, returning the (re-sliced or
// reallocated) frame, or false when the frame is to be dropped (a
// malformed tag, a TTL run out). Other actions leave the frame as it is.
func (s *Switch) rewrite(a openflow.Action, frame []byte) ([]byte, bool) {
	var err error
	switch act := a.(type) {
	case *openflow.ActionPushVLAN:
		frame, err = pkt.PushVLANOwned(frame, act.EtherType, 0)
	case *openflow.ActionPopVLAN:
		frame, err = pkt.PopVLANOwned(frame)
	case *openflow.ActionDecNwTTL:
		var ttl uint8
		if ttl, err = pkt.DecIPv4TTL(frame); ttl == 0 {
			return nil, false
		}
	case *openflow.ActionSetField:
		err = s.applySetField(act, frame)
	}
	return frame, err == nil
}

// applySetField rewrites one field in place.
func (s *Switch) applySetField(act *openflow.ActionSetField, frame []byte) error {
	o := act.OXM
	switch o.Field {
	case openflow.OXMVLANVID:
		vid := binary.BigEndian.Uint16(o.Value) &^ openflow.OXMVIDPresent
		return pkt.SetVLANID(frame, vid)
	case openflow.OXMVLANPCP:
		return pkt.SetVLANPCP(frame, o.Value[0])
	case openflow.OXMEthDst:
		var m pkt.MAC
		copy(m[:], o.Value)
		return pkt.SetEthDst(frame, m)
	case openflow.OXMEthSrc:
		var m pkt.MAC
		copy(m[:], o.Value)
		return pkt.SetEthSrc(frame, m)
	case openflow.OXMIPv4Src:
		var ip pkt.IPv4
		copy(ip[:], o.Value)
		return pkt.SetIPv4Src(frame, ip)
	case openflow.OXMIPv4Dst:
		var ip pkt.IPv4
		copy(ip[:], o.Value)
		return pkt.SetIPv4Dst(frame, ip)
	case openflow.OXMTCPSrc, openflow.OXMUDPSrc:
		return pkt.SetL4Src(frame, binary.BigEndian.Uint16(o.Value))
	case openflow.OXMTCPDst, openflow.OXMUDPDst:
		return pkt.SetL4Dst(frame, binary.BigEndian.Uint16(o.Value))
	}
	return nil // unsupported set-fields are ignored (logged by vet of flow-mods in a real switch)
}

// applyGroup executes a group on the frame (consuming it).
func (s *Switch) applyGroup(groupID, inPort uint32, frame []byte, tableID uint8, tx *txContext) {
	g, ok := s.groups.Get(groupID)
	if !ok {
		s.drops.Inc()
		return
	}
	g.Hit(len(frame))
	switch g.Type {
	case openflow.GroupTypeAll:
		// Replicate to every bucket.
		for i := range g.Buckets {
			if f, res := s.applyActions(g.Buckets[i].Actions, inPort, ownedCopy(frame, false), tableID, nil, tx); res == applyRetained && f != nil {
				s.drops.Inc()
			}
		}
	default:
		var key pkt.FlatKey
		var b *openflow.Bucket
		if pkt.ExtractFlat(frame, inPort, &key) == nil {
			b = g.SelectBucket(key.FlowSum())
		}
		if b == nil {
			s.drops.Inc()
			return
		}
		if f, res := s.applyActions(b.Actions, inPort, frame, tableID, nil, tx); res == applyRetained && f != nil {
			s.drops.Inc()
		}
	}
}

// output realizes the OUTPUT action, including reserved ports. last
// indicates the frame can be transferred without copying.
func (s *Switch) output(act *openflow.ActionOutput, inPort uint32, frame []byte, tableID uint8, entry *flowtable.Entry, last bool, tx *txContext) {
	switch act.Port {
	case openflow.PortController:
		s.sendPacketIn(inPort, frame, act.MaxLen, tableID, entry)
	case openflow.PortFlood, openflow.PortAll:
		s.flood(inPort, frame, tx)
	case openflow.PortInPort:
		if p := s.getPort(inPort); p != nil {
			tx.add(p, ownedCopy(frame, last))
		}
	case openflow.PortTable:
		// Restart the pipeline, uncached (packet-out only).
		var flat pkt.FlatKey
		if frame = ownedCopy(frame, last); pkt.ExtractFlat(frame, inPort, &flat) != nil {
			s.drops.Inc()
			return
		}
		s.runPipelineKeyed(&flat, inPort, frame, nil, tx)
	default:
		p := s.getPort(act.Port)
		if p == nil {
			s.drops.Inc()
			return
		}
		tx.add(p, ownedCopy(frame, last))
	}
}

// ownedCopy returns frame directly when ownership can transfer, or a
// copy otherwise.
func ownedCopy(frame []byte, canTransfer bool) []byte {
	if canTransfer {
		return frame
	}
	cp := make([]byte, len(frame))
	copy(cp, frame)
	return cp
}

// flood replicates the frame to every port except the ingress, in
// ascending port order; the last recipient takes the frame itself.
func (s *Switch) flood(inPort uint32, frame []byte, tx *txContext) {
	var last *swPort
	for _, p := range s.ports.Load().all {
		if p.no == inPort {
			continue
		}
		if last != nil {
			tx.add(last, ownedCopy(frame, false))
		}
		last = p
	}
	if last != nil {
		tx.add(last, frame)
	}
}

// sendPacketIn forwards the frame to the controller.
func (s *Switch) sendPacketIn(inPort uint32, frame []byte, maxLen uint16, tableID uint8, entry *flowtable.Entry) {
	s.agentMu.RLock()
	a := s.agent
	s.agentMu.RUnlock()
	if a == nil {
		s.drops.Inc()
		return
	}
	s.pktIns.Inc()

	reason := openflow.PacketInReasonAction
	var cookie uint64
	if entry != nil {
		cookie = entry.Cookie
		// A priority-0 match-all entry is the table-miss entry; the
		// spec reports those packet-ins as NO_MATCH.
		if entry.Priority == 0 {
			reason = openflow.PacketInReasonNoMatch
		}
	}
	bufferID := openflow.NoBuffer
	data := frame
	if maxLen != 0xffff && int(maxLen) < len(frame) {
		bufferID = s.buffers.store(inPort, frame)
		data = frame[:maxLen:maxLen] // the rest of the frame is not the excerpt's to grow into
	}
	m := pktInPool.Get().(*pktInScratch)
	binary.BigEndian.PutUint32(m.port[:], inPort)
	m.oxm[0] = openflow.OXM{Field: openflow.OXMInPort, Value: m.port[:]}
	m.pi = openflow.PacketIn{
		BufferID: bufferID,
		TotalLen: uint16(len(frame)),
		Reason:   reason,
		TableID:  tableID,
		Cookie:   cookie,
		Match:    openflow.Match{OXMs: m.oxm[:]},
		Data:     data,
	}
	a.sendPacketIn(&m.pi)
	m.pi.Data = nil // the pool must not pin the frame
	pktInPool.Put(m)
}

// pktInScratch is a PACKET_IN together with the storage its match
// points into. The agent encodes the message before sendPacketIn
// returns and keeps nothing of it, so the forwarding goroutine builds
// every packet-in in a pooled one and allocates nothing.
type pktInScratch struct {
	pi   openflow.PacketIn
	oxm  [1]openflow.OXM
	port [4]byte
}

var pktInPool = sync.Pool{New: func() any { return new(pktInScratch) }}

// InjectPacketOut realizes a controller PACKET_OUT: resolve the buffer
// (if referenced) and run the actions through a full dispatch, so its
// outputs coalesce and patch deliveries stay iterative like any other
// ingress. The switch takes ownership of po.Data (openflow.Parse hands
// out a private copy).
func (s *Switch) InjectPacketOut(po *openflow.PacketOut) {
	frame := po.Data
	if po.BufferID != openflow.NoBuffer {
		if buffered, _, ok := s.buffers.take(po.BufferID); ok {
			frame = buffered
		}
	}
	if len(frame) == 0 {
		return
	}
	st := dispatchPool.Get().(*dispatchState)
	if f, res := s.applyActions(po.Actions, po.InPort, frame, 0, nil, &st.tx); res == applyRetained && f != nil {
		s.drops.Inc() // no output action: drop
	}
	s.flushTx(&st.tx)
	runWork(st)
	st.release()
}
