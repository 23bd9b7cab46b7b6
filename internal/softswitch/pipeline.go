package softswitch

import (
	"encoding/binary"
	"sync"

	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The per-frame entry point Receive and the vector entry point
// ReceiveBatch live in batch.go; both funnel into the walk below with
// a txContext that coalesces egress per port. With the flow cache
// enabled (the default) a frame's header key is first probed against
// the cache; a valid hit replays the pre-resolved program, a miss takes
// the full pipeline walk and records a new cache entry.

// replay executes a cache entry's operation program on a run: frames
// the batch probe resolved to the entry, back to back in the burst (a
// single frame is a run of one). The run is copied into the dispatch's
// scratch and compacted there; the caller's vector is only read. The
// operations execute in recorded order, as on the walk that was
// recorded. A credit is paid once for the run, with its frame count and
// the bytes its frames have at that position of the program; a rewrite
// is applied frame by frame, a frame that fails it dropped and counted
// alone; the output appends the survivors in one go (applyRun). A
// program that makes a per-packet decision (perFrame: meters, groups,
// packet-ins, floods, several outputs) takes its run one frame at a
// time, so every packet meets those as it would on the walk.
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
	for i := range mf.ops {
		op := &mf.ops[i]
		switch op.kind {
		case opCredit:
			bytes := 0
			for _, f := range live {
				bytes += len(f)
			}
			tx.credit(op.table, op.entry, len(live), bytes, s.clock)
		case opMeter: // perFrame: a run of one
			if !s.meters.Pass(op.meterID, len(live[0])) {
				s.drops.Inc()
				return
			}
		case opApply:
			if !mf.perFrame {
				if live = s.applyRun(op.acts, live, tx); len(live) == 0 {
					return // output, or every frame dropped
				}
				continue
			}
			var res applyResult
			if live[0], res = s.applyActions(op.acts, inPort, live[0], op.tableID, op.entry, tx); res != applyRetained {
				return // frame consumed (output, group) or dropped
			}
		}
	}
	// Program ran to completion without consuming the frames: the walk
	// ended with an empty action set or one lacking an output. Drop,
	// exactly as runPipelineKeyed does.
	s.drops.Add(uint64(len(live)))
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

// runPipeline extracts the frame's key and executes tables from
// startTable onwards (the uncached path; packet-out and OUTPUT:TABLE
// restarts come through here).
func (s *Switch) runPipeline(inPort uint32, frame []byte, startTable uint8, tx *txContext) {
	var flat pkt.FlatKey
	if err := pkt.ExtractFlat(frame, inPort, &flat); err != nil {
		s.drops.Inc()
		return
	}
	s.runPipelineKeyed(&flat, inPort, frame, startTable, nil, tx)
}

// runPipelineKeyed executes tables from startTable onwards for an
// already-parsed key in its packed form — parsed once per frame, for the
// cache probe and for every table's classifier. When rec is non-nil
// every consulted table (with its pre-lookup revision) and every
// executed operation is recorded so the walk's decision can be cached;
// the table's consult mask is folded into rec.mask at the same point, so
// the recording also captures the wildcard mask the entry is stored
// under.
// The revision is read *before* the lookup: a flow-mod racing the
// walk then leaves the recording stale-by-revision rather than
// wrongly valid.
func (s *Switch) runPipelineKeyed(flat *pkt.FlatKey, inPort uint32, frame []byte, startTable uint8, rec *recorder, tx *txContext) {
	var actionSet []openflow.Action
	tableID := startTable
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
			return
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
					return
				}
			case *openflow.InstrApplyActions:
				if rec != nil {
					rec.ops = append(rec.ops, microOp{kind: opApply, acts: in.Actions, tableID: tableID, entry: entry})
				}
				var res applyResult
				frame, res = s.applyActions(in.Actions, inPort, frame, tableID, entry, tx)
				if res != applyRetained {
					// A per-packet drop truncates the observed program;
					// consumption by output/group is structural and the
					// recording stays cacheable.
					if rec != nil && res == applyDropped {
						rec.uncacheable = true
					}
					return
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
		return
	}
	ordered := orderActionSet(actionSet)
	if rec != nil {
		rec.ops = append(rec.ops, microOp{kind: opApply, acts: ordered, tableID: tableID})
	}
	if frame, res := s.applyActions(ordered, inPort, frame, tableID, nil, tx); res == applyRetained && frame != nil {
		// Action set without output: drop (already accounted inside
		// applyActions when it falls through).
		s.drops.Inc()
	} else if rec != nil && res == applyDropped {
		rec.uncacheable = true
	}
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

// applyResult classifies how an action list left the frame. The
// distinction between consumed and dropped matters to the cache
// recorder: consumption by output/group is decided by the program
// structure alone (every packet of the flow ends there), while a drop
// is a per-packet condition (TTL reached zero, malformed tag) after
// which the rest of the walk is unknown — such walks must not be
// cached.
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
			// More actions follow: they operate on a fresh copy since
			// output transferred ownership.
			cp := make([]byte, len(frame))
			copy(cp, frame)
			frame = cp
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
			cp := make([]byte, len(frame))
			copy(cp, frame)
			if f, res := s.applyActions(g.Buckets[i].Actions, inPort, cp, tableID, nil, tx); res == applyRetained && f != nil {
				s.drops.Inc()
			}
		}
	default:
		var key pkt.FlatKey
		if err := pkt.ExtractFlat(frame, inPort, &key); err != nil {
			s.drops.Inc()
			return
		}
		b := g.SelectBucket(key.FlowSum())
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
			s.transmit(p, ownedCopy(frame, last), tx)
		}
	case openflow.PortTable:
		// Restart the pipeline (packet-out only).
		s.runPipeline(inPort, ownedCopy(frame, last), 0, tx)
	default:
		p := s.getPort(act.Port)
		if p == nil {
			s.drops.Inc()
			return
		}
		s.transmit(p, ownedCopy(frame, last), tx)
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
			s.transmit(last, ownedCopy(frame, false), tx)
		}
		last = p
	}
	if last != nil {
		s.transmit(last, frame, tx)
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
