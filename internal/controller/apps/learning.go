// Package apps contains the controller applications showcased by the
// HARMLESS demo (Fig. 1): L2 learning, the source-IP load balancer,
// the DMZ policy filter, and parental control.
package apps

import (
	"sync"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// Learning is a reactive L2 learning switch: unknown destinations are
// flooded, known ones get an exact-match flow installed with an idle
// timeout. It operates in a single table so it can terminate an app
// pipeline (filters in lower-numbered tables goto this one).
type Learning struct {
	controller.BaseApp
	// Table is the flow table this app owns.
	Table uint8
	// IdleTimeout for installed flows, seconds (0 = permanent).
	IdleTimeout uint16

	mu  sync.Mutex
	fdb map[uint64]map[pkt.MAC]uint32 // per-dpid MAC -> port
}

// Name implements controller.App.
func (l *Learning) Name() string { return "learning" }

// SwitchConnected installs the table-miss entry.
func (l *Learning) SwitchConnected(sw *controller.SwitchHandle) {
	if err := sw.InstallTableMiss(l.Table); err != nil {
		return
	}
}

// MACTable returns a snapshot of the learned addresses for a switch.
func (l *Learning) MACTable(dpid uint64) map[pkt.MAC]uint32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[pkt.MAC]uint32, len(l.fdb[dpid]))
	for mac, port := range l.fdb[dpid] {
		out[mac] = port
	}
	return out
}

// Lookup returns the learned port of mac on a switch.
func (l *Learning) Lookup(dpid uint64, mac pkt.MAC) (uint32, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	port, ok := l.fdb[dpid][mac]
	return port, ok
}

// PortStatus reacts to topology changes (a port added or removed —
// e.g. an incremental HARMLESS migration moving a host to a new
// logical port): all learned state for the switch is flushed and the
// table-miss entry reinstalled, so stale destination flows cannot
// blackhole traffic to relocated hosts.
func (l *Learning) PortStatus(sw *controller.SwitchHandle, ps *openflow.PortStatus) {
	l.mu.Lock()
	delete(l.fdb, sw.DPID())
	l.mu.Unlock()
	// Non-strict delete with an empty match clears the whole table
	// (including the miss entry), so reinstall it right after.
	_ = sw.FlowMod(&openflow.FlowMod{
		TableID: l.Table, Command: openflow.FlowDelete,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
	})
	_ = sw.InstallTableMiss(l.Table)
}

// PacketIn learns the source and either installs a forward flow or
// floods.
func (l *Learning) PacketIn(sw *controller.SwitchHandle, pi *openflow.PacketIn) {
	if pi.TableID != l.Table {
		return // another app's intercept (e.g. DNS), not an L2 miss
	}
	inPort, ok := pi.InPort()
	if !ok || len(pi.Data) < pkt.EthernetHeaderLen {
		return
	}
	var src, dst pkt.MAC
	copy(dst[:], pi.Data[0:6])
	copy(src[:], pi.Data[6:12])

	l.mu.Lock()
	if l.fdb == nil {
		l.fdb = make(map[uint64]map[pkt.MAC]uint32)
	}
	table := l.fdb[sw.DPID()]
	if table == nil {
		table = make(map[pkt.MAC]uint32)
		l.fdb[sw.DPID()] = table
	}
	if src.IsUnicast() {
		table[src] = inPort
	}
	outPort, known := table[dst]
	l.mu.Unlock()

	if !dst.IsUnicast() || !known {
		_ = sw.FloodPacket(inPort, pi.Data)
		return
	}
	// Install the forward flow and release the packet along it: one
	// action list serves both messages.
	acts := []openflow.Action{&openflow.ActionOutput{Port: outPort, MaxLen: 0xffff}}
	_ = sw.FlowMod(&openflow.FlowMod{
		TableID: l.Table, Command: openflow.FlowAdd, Priority: 10,
		IdleTimeout: l.IdleTimeout,
		BufferID:    openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		// The match reads the destination where it lies, in the frame
		// the PACKET_IN owns.
		Match:        openflow.Match{OXMs: []openflow.OXM{{Field: openflow.OXMEthDst, Value: pi.Data[0:6:6]}}},
		Instructions: []openflow.Instruction{&openflow.InstrApplyActions{Actions: acts}},
	})
	_ = sw.PacketOut(inPort, pi.Data, acts...)
}
