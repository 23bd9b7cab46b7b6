package main

// rig.go is the benchmark's whole contact surface with the repository:
// no other file of this package imports internal/.... A change that
// renames, merges or removes one of the functions below breaks the
// benchmark here and nowhere else. What is pinned:
//
//	fabric     BuildDeployment, DeployConfig.{NumPorts,Apps,Controllers},
//	           Deployment.{Legacy,S4,Hosts,Links,TrunkLink,WaitConnected,Close},
//	           Host.{Ping,IP}, HostMAC, HostIP
//	netem      NewLink, LinkConfig{}, Link.{A,B,Close}, Receiver,
//	           Port.{Send,SendBatch,SetReceiver,WrapReceiver,Counters}
//	softswitch New, Switch.{AttachNetPort,AttachPort,ApplyFlowMod,
//	           ReceiveBatch,CacheStats,PacketIns,Drops,Table,NumTables,
//	           DatapathID,SetTelemetry,StartAgent}, NewRingBackend,
//	           RingBackend.Ring, Agent.Stop
//	softswitch/runtime  New, Config.Workers, Pool.{Start,Dispatch,Drain,Stop}
//	flowtable  Table.{Lookup,Stats,Len}
//	harmless   PlanMigration, PlanConfig, Plan.VLANForPort, BuildS4,
//	           S4Config, S4.{SS1,SS2,AttachTrunk}
//	legacy     NewSwitch, Switch.{AttachPort,SetPortAccess,SetPortTrunk,
//	           PortCounters,NumPorts}
//	controller New, Controller.AttachConn, SwitchHandle.DPID, App
//	apps       Learning{Table}, Learning.Lookup
//	controlplane Endpoint{Conn}, Connect, Config{}, Events{},
//	           Controller.{AwaitBarrier,Close}
//	openflow   FlowMod, PacketIn, Match.With*, InstrApplyActions,
//	           InstrGotoTable, ActionOutput, Message.Marshal, Parse,
//	           Flow*/Port*/NoBuffer/GroupAny constants
//	pkt        SerializeLayers, NewSerializeBuffer, Ethernet, IPv4Header,
//	           UDP, Payload, ExtractKey, Key, PushVLAN, MAC, IPv4
//	dataplane  NewRing, Ring.{Push,Pop,Drain}
//	telemetry  NewTable, Config{}
//	stats      CacheCounters and PortCounters fields

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	stdruntime "runtime"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/legacy"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch"
	swruntime "github.com/harmless-sdn/harmless/internal/softswitch/runtime"
	"github.com/harmless-sdn/harmless/internal/telemetry"
)

// --- traffic ----------------------------------------------------------

// reactiveMAC is destination i of the reactive workload, a host the
// learning app has seen behind port 2.
func reactiveMAC(i int) pkt.MAC { return pkt.MAC{0x02, 0xbb, 0, 0, byte(i >> 8), byte(i)} }

// buildFrames generates a workload's template frames from the seed:
// UDP from host 1 to host 2, one frame per flow, in seed-shuffled
// order with seed-random payloads. What tells flows apart is what the
// workload's flow program looks at — UDP ports on the L2 workloads,
// ipv4_dst and udp_dst (never a distractor rule's value) on the ACL
// workload, the destination MAC on the reactive one. The UDP checksum
// is zero ("none"), so stamping a sequence number leaves frames valid.
func buildFrames(w *workload, seed int64) (*frameSet, error) {
	if w.flows&(w.flows-1) != 0 || w.frameLen < seqOff+seqLen {
		return nil, fmt.Errorf("%s: need a power-of-two flow count and frames of at least %d bytes", w.name, seqOff+seqLen)
	}
	rng := rand.New(rand.NewSource(seed))
	fs := &frameSet{frames: make([][]byte, w.flows), frameLen: w.frameLen, mask: uint64(w.flows - 1)}
	backing := make([]byte, w.flows*w.frameLen)
	buf := pkt.NewSerializeBuffer()
	payload := make(pkt.Payload, w.frameLen-seqOff)
	for slot, i := range rng.Perm(w.flows) {
		eth := pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4}
		ip := pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(1), Dst: fabric.HostIP(2)}
		udp := pkt.UDP{SrcPort: 7777, DstPort: uint16(1024 + rng.Intn(40000))}
		switch {
		case w.kind == kindReactive:
			eth.Dst = reactiveMAC(i)
		case w.acl:
			ip.Src = pkt.IPv4{10, 1, 0, 1}
			ip.Dst = pkt.IPv4{10, 2 + byte(i>>16), byte(i >> 8), byte(i)}
		default:
			udp.SrcPort = uint16(1024 + i)
		}
		rng.Read(payload)
		f, err := pkt.SerializeLayers(buf, &eth, &ip, &udp, &payload)
		if err != nil {
			return nil, fmt.Errorf("%s: frame %d: %w", w.name, i, err)
		}
		if len(f) != w.frameLen {
			return nil, fmt.Errorf("%s: frame %d is %d bytes, want %d", w.name, i, len(f), w.frameLen)
		}
		t := backing[slot*w.frameLen : (slot+1)*w.frameLen : (slot+1)*w.frameLen]
		copy(t, f)
		t[seqOff-2], t[seqOff-1] = 0, 0 // UDP checksum: none
		fs.frames[slot] = t
	}
	return fs, nil
}

// --- flow programs ----------------------------------------------------

func outputTo(port uint32) openflow.Instruction {
	return &openflow.InstrApplyActions{Actions: []openflow.Action{
		&openflow.ActionOutput{Port: port, MaxLen: 0xffff},
	}}
}

func flowAdd(table uint8, priority uint16, m openflow.Match, instrs ...openflow.Instruction) *openflow.FlowMod {
	return &openflow.FlowMod{
		TableID: table, Command: openflow.FlowAdd, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: instrs,
	}
}

func tableMiss() *openflow.FlowMod {
	return flowAdd(0, 0, openflow.Match{}, outputTo(openflow.PortController))
}

func install(sw *softswitch.Switch, fms ...*openflow.FlowMod) error {
	for _, fm := range fms {
		if _, err := sw.ApplyFlowMod(fm); err != nil {
			return fmt.Errorf("installing %v: %w", fm, err)
		}
	}
	return nil
}

// l2Program is what apps.Learning leaves on SS_2 once hosts 1 and 2
// have talked: one eth_dst → output flow each, above the table-miss.
func l2Program() []*openflow.FlowMod {
	var out []*openflow.FlowMod
	for port := 1; port <= 2; port++ {
		m := openflow.Match{}
		m.WithEthDst(fabric.HostMAC(port))
		out = append(out, flowAdd(0, 10, m, outputTo(uint32(port))))
	}
	return append(out, tableMiss())
}

// aclProgram is the ruleset of internal/softswitch/bench_test.go's
// benchSwitch: 63 L3 distractors above an in_port entry that goes to
// table 1, where 63 L4 distractors sit above a catch-all to port 2.
func aclProgram() []*openflow.FlowMod {
	var out []*openflow.FlowMod
	for i := 0; i < 63; i++ {
		m := openflow.Match{}
		m.WithInPort(1).WithEthType(pkt.EtherTypeIPv4).WithIPv4Dst(pkt.IPv4{10, 9, byte(i >> 8), byte(i)})
		out = append(out, flowAdd(0, uint16(1000-i), m, outputTo(2)))
	}
	in := openflow.Match{}
	in.WithInPort(1)
	out = append(out, flowAdd(0, 10, in, &openflow.InstrGotoTable{TableID: 1}))
	for i := 0; i < 63; i++ {
		m := openflow.Match{}
		m.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(uint16(50000 + i))
		out = append(out, flowAdd(1, uint16(1000-i), m, outputTo(2)))
	}
	return append(out, flowAdd(1, 1, openflow.Match{}, outputTo(2)))
}

// --- rigs ---------------------------------------------------------------

// rig is one assembled system under test, seen from outside: where to
// inject, where the frames come out, and which counters it exposes.
type rig struct {
	send      func([]byte)
	sendBatch func([][]byte)
	setSink   func(func([]byte))
	snapshot  func() counters
	flush     func() error // reactive: forget the learned flows
	tableLen  func() int   // reactive: SS_2 table 0
	tap       func()       // switch the tracer's taps on
	close     func()
}

func buildRig(w *workload, tr *tracer) (*rig, error) {
	switch w.kind {
	case kindChain:
		return buildChain(tr)
	case kindReactive:
		return buildReactive(w, tr)
	}
	return buildSwitch(w)
}

func addSwitchCounters(c *counters, sws ...*softswitch.Switch) {
	for _, sw := range sws {
		if cs := sw.CacheStats(); cs != nil {
			c.Hits += cs.Hits.Load()
			c.Misses += cs.Misses.Load()
			c.Bypassed += cs.Bypassed.Load()
			c.Evictions += cs.Evictions.Load()
		}
		c.PktIns += sw.PacketIns()
		c.Drops += sw.Drops()
		for id := 0; id < sw.NumTables(); id++ {
			lookups, _ := sw.Table(uint8(id)).Stats()
			c.Lookups += lookups
		}
	}
}

func addLinkCounters(c *counters, links ...*netem.Link) {
	for _, l := range links {
		c.NetemTxDropped += l.A().Counters().TxDropped.Load() + l.B().Counters().TxDropped.Load()
	}
}

// buildSwitch is the bare baseline: one switch with default options
// between two synchronous links, programmed directly.
func buildSwitch(w *workload) (*rig, error) {
	sw := softswitch.New(w.name, 0xbe)
	in, out := netem.NewLink(netem.LinkConfig{Name: "in"}), netem.NewLink(netem.LinkConfig{Name: "out"})
	sw.AttachNetPort(1, "in", in.A())
	sw.AttachNetPort(2, "out", out.A())
	program := l2Program()
	if w.acl {
		program = aclProgram()
	}
	if err := install(sw, program...); err != nil {
		return nil, err
	}
	return &rig{
		send:      func(f []byte) { _ = in.B().Send(f) },
		sendBatch: func(fs [][]byte) { _ = in.B().SendBatch(fs) },
		setSink:   func(fn func([]byte)) { out.B().SetReceiver(fn) },
		snapshot: func() counters {
			var c counters
			addSwitchCounters(&c, sw)
			addLinkCounters(&c, in, out)
			return c
		},
		tap:   func() {},
		close: func() { in.Close(); out.Close() },
	}, nil
}

const (
	chainPorts  = 4 // three access ports and the trunk, as in Fig. 1
	waitTimeout = 5 * time.Second
)

func chainCounters(d *fabric.Deployment) counters {
	var c counters
	addSwitchCounters(&c, d.S4.SS1, d.S4.SS2)
	addLinkCounters(&c, d.Links...)
	addLinkCounters(&c, d.TrunkLink)
	for p := 1; p <= d.Legacy.NumPorts(); p++ {
		pc := d.Legacy.PortCounters(p)
		c.LegacyRx += pc.RxPackets.Load()
		c.LegacyTx += pc.TxPackets.Load()
	}
	return c
}

func chainRig(d *fabric.Deployment) *rig {
	// Links[i] serves access port i+1; its B end is the host's.
	host1, host2 := d.Links[0].B(), d.Links[1].B()
	return &rig{
		send:      func(f []byte) { _ = host1.Send(f) },
		sendBatch: func(fs [][]byte) { _ = host1.SendBatch(fs) },
		setSink:   func(fn func([]byte)) { host2.SetReceiver(fn) },
		snapshot:  func() counters { return chainCounters(d) },
		tap:       func() {},
		close:     d.Close,
	}
}

// buildChain is the full Fig. 1 path, brought up the way the repository
// brings it up: CLI-configured legacy switch, S4, learning controller
// over the control channel. Two pings leave the legacy FDB and the
// learned flows in place before the sink replaces host 2.
func buildChain(tr *tracer) (*rig, error) {
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts: chainPorts,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		return nil, err
	}
	if err := d.WaitConnected(waitTimeout); err != nil {
		d.Close()
		return nil, err
	}
	for i := 0; i < 2; i++ {
		if err := d.Hosts[1].Ping(d.Hosts[2].IP, waitTimeout); err != nil {
			d.Close()
			return nil, err
		}
	}
	r := chainRig(d)
	if tr != nil {
		r.tap = func() {
			// Boundary 1: the trunk hands the tagged frame to SS_1.
			// Boundary 2: the trunk hands the retagged frame back to
			// the legacy switch.
			d.TrunkLink.B().WrapReceiver(func(next netem.Receiver) netem.Receiver {
				return func(f []byte) { tr.mark(1); next(f) }
			})
			d.TrunkLink.A().WrapReceiver(func(next netem.Receiver) netem.Receiver {
				return func(f []byte) { tr.mark(2); next(f) }
			})
		}
	}
	return r, nil
}

// buildReactive is the chain with the control channel in the
// benchmark's hands: it owns the net.Pipe, gives the switch's end to
// the deployment and runs its own controller with the learning app on
// the other. Every destination is taught to the app behind port 2 with
// one broadcast from there, so a frame to it misses in SS_2 and comes
// back as FLOW_MOD + PACKET_OUT.
func buildReactive(w *workload, tr *tracer) (*rig, error) {
	learning := &apps.Learning{Table: 0}
	ctrl := controller.New([]controller.App{learning})
	swSide, ctrlSide := net.Pipe()
	var swConn io.ReadWriteCloser = swSide
	var tapping atomic.Bool // set by the injector, read on the channel's goroutines
	if tr != nil {
		on := func(boundary int, types ...uint8) func(uint8) {
			return func(t uint8) {
				for _, want := range types {
					if t == want && tapping.Load() {
						tr.markOnce(boundary)
					}
				}
			}
		}
		swConn = &tapConn{
			ReadWriteCloser: swSide,
			wr:              ofTap{on: on(1, ofPacketIn)},
			rd:              ofTap{on: on(2, ofFlowMod, ofPacketOut)},
		}
	}
	attached := make(chan error, 1)
	go func() {
		_, err := ctrl.AttachConn(ctrlSide)
		attached <- err
	}()
	d, err := fabric.BuildDeployment(fabric.DeployConfig{
		NumPorts:    chainPorts,
		Controllers: []controlplane.Endpoint{{Conn: swConn}},
	})
	if err != nil {
		swSide.Close() // lets the controller's handshake give up
		return nil, err
	}
	if err := <-attached; err != nil {
		d.Close()
		return nil, err
	}
	ss2 := d.S4.SS2
	if err := poll(func() bool { return ss2.Table(0).Len() == 1 }); err != nil {
		d.Close()
		return nil, fmt.Errorf("table-miss entry never arrived: %w", err)
	}
	// Teach the app: a broadcast from each destination, out of port 2.
	for i := 0; i < w.flows; i++ {
		payload := make(pkt.Payload, seqLen)
		f, err := pkt.SerializeLayers(pkt.NewSerializeBuffer(),
			&pkt.Ethernet{Src: reactiveMAC(i), Dst: pkt.BroadcastMAC, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(2), Dst: pkt.IPv4{10, 0, 0, 255}},
			&pkt.UDP{SrcPort: 7777, DstPort: 7777}, &payload)
		if err != nil {
			d.Close()
			return nil, err
		}
		_ = d.Links[1].B().Send(f)
	}
	dpid := ss2.DatapathID()
	if err := poll(func() bool {
		port, ok := learning.Lookup(dpid, reactiveMAC(w.flows-1))
		return ok && port == 2
	}); err != nil {
		d.Close()
		return nil, fmt.Errorf("learning app never saw the destinations: %w", err)
	}
	r := chainRig(d)
	r.flush = func() error {
		return install(ss2, &openflow.FlowMod{
			TableID: 0, Command: openflow.FlowDelete,
			BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		}, tableMiss())
	}
	r.tableLen = func() int { return ss2.Table(0).Len() }
	r.tap = func() { tapping.Store(true) }
	return r, nil
}

// poll waits for a condition that another goroutine brings about.
func poll(cond func() bool) error {
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", waitTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// --- isolated probes ----------------------------------------------------

// probe times one layer's public entry points alone.
type probe struct {
	name   string
	ops    int    // operations one call of fn performs
	fn     func() // the timed call
	settle func() // optional: wait for work fn handed to other goroutines
	// extra reports shares a probe counts on the side.
	extra func() map[string]float64
	close func()
}

// copier hands out fresh copies of tmpl from a ring of buffers, for
// layers that take ownership of what they are sent.
func copier(tmpl []byte) func() []byte {
	const slots = 256
	stride := (len(tmpl) + tailroom + 63) &^ 63
	arena, slot := make([]byte, slots*stride), 0
	return func() []byte {
		off := slot * stride
		slot = (slot + 1) % slots
		f := arena[off : off+len(tmpl) : off+stride]
		copy(f, tmpl)
		return f
	}
}

// l2Switch is a switch with the L2 program whose port 2 is a ring, the
// 1024 flows of fs already cached.
func l2Switch(fs *frameSet) (*softswitch.Switch, *dataplane.Ring, error) {
	sw := softswitch.New("probe", 0xb0)
	sw.AttachPort(1, "in", softswitch.NewRingBackend(16))
	egress := softswitch.NewRingBackend(4096)
	sw.AttachPort(2, "out", egress)
	if err := install(sw, l2Program()...); err != nil {
		return nil, nil, err
	}
	var out [][]byte
	for i := 0; i < len(fs.frames); i += burst {
		sw.ReceiveBatch(1, fs.frames[i:i+burst])
		out = egress.Ring().Drain(out[:0], 0)
	}
	return sw, egress.Ring(), nil
}

// hitProbe times ReceiveBatch on the cache-hit path at one batch size.
func hitProbe(name string, fs *frameSet, batch int, tel *telemetry.Table) (probe, error) {
	sw, ring, err := l2Switch(fs)
	if err != nil {
		return probe{}, err
	}
	if tel != nil {
		sw.SetTelemetry(tel)
	}
	vec, out, next := make([][]byte, batch), [][]byte(nil), 0
	return probe{name: name, ops: batch, fn: func() {
		next = (next + copy(vec, fs.frames[next:next+batch])) & int(fs.mask)
		sw.ReceiveBatch(1, vec)
		out = ring.Drain(out[:0], 0)
	}}, nil
}

// legacyProbes times the three crossings of a stand-alone legacy
// switch: access→access, access→trunk (tag), trunk→access (untag).
func legacyProbes(untagged []byte) ([]probe, error) {
	const trunk, vlanL2, vlanTag = 4, 10, 20
	ls := legacy.NewSwitch("probe", trunk)
	links := make([]*netem.Link, trunk)
	for i := range links {
		links[i] = netem.NewLink(netem.LinkConfig{})
		ls.AttachPort(i+1, links[i].A())
		links[i].B().SetReceiver(func([]byte) {})
	}
	for port, vlan := range map[int]uint16{1: vlanL2, 2: vlanL2, 3: vlanTag} {
		if err := ls.SetPortAccess(port, vlan); err != nil {
			return nil, err
		}
	}
	if err := ls.SetPortTrunk(trunk, 1, nil); err != nil {
		return nil, err
	}
	tagged, err := pkt.PushVLAN(untagged, pkt.EtherTypeDot1Q, vlanTag)
	if err != nil {
		return nil, err
	}
	// Host 2 speaks once on port 2 so the access→access crossing is a
	// known unicast; the VLAN of port 3 holds only that port and the
	// trunk, so the tag and untag crossings have one egress either way.
	reply := append([]byte(nil), untagged...)
	copy(reply[0:6], untagged[6:12])
	copy(reply[6:12], untagged[0:6])
	_ = links[1].B().Send(reply)
	closeAll := func() {
		for _, l := range links {
			l.Close()
		}
	}
	mk := func(name string, in *netem.Port, tmpl []byte, close func()) probe {
		fresh := copier(tmpl)
		return probe{name: name, ops: 1, fn: func() { _ = in.Send(fresh()) }, close: close}
	}
	return []probe{
		mk("legacy.l2_ns", links[0].B(), untagged, nil),
		mk("legacy.tag_ns", links[2].B(), untagged, nil),
		mk("legacy.untag_ns", links[trunk-1].B(), tagged, closeAll),
	}, nil
}

// s4Probe sends a tagged frame into a stand-alone S4 over its trunk
// link and takes it back retagged: SS_1 → SS_2 → SS_1, no legacy
// switch.
func s4Probe(untagged []byte) (probe, error) {
	plan, err := harmless.PlanMigration(harmless.PlanConfig{Hostname: "probe", NumPorts: chainPorts})
	if err != nil {
		return probe{}, err
	}
	s4, err := harmless.BuildS4(plan, harmless.S4Config{})
	if err != nil {
		return probe{}, err
	}
	if err := install(s4.SS2, l2Program()...); err != nil {
		return probe{}, err
	}
	trunk := netem.NewLink(netem.LinkConfig{Name: "trunk"})
	s4.AttachTrunk(trunk.B())
	back := 0
	trunk.A().SetReceiver(func([]byte) { back++ })
	tagged, err := pkt.PushVLAN(untagged, pkt.EtherTypeDot1Q, plan.VLANForPort[1])
	if err != nil {
		return probe{}, err
	}
	fresh := copier(tagged)
	_ = trunk.A().Send(fresh())
	if back != 1 {
		return probe{}, fmt.Errorf("S4 round trip returned %d frames, want 1", back)
	}
	return probe{name: "harmless.s4_roundtrip_ns", ops: 1, fn: func() { _ = trunk.A().Send(fresh()) }, close: trunk.Close}, nil
}

// codecProbe times Marshal + Parse of one message.
func codecProbe(name string, m openflow.Message) probe {
	return probe{name: name, ops: 1, fn: func() {
		b, err := m.Marshal()
		if err == nil {
			_, err = openflow.Parse(b)
		}
		if err != nil {
			panic(err) // a message this file built does not round-trip
		}
	}}
}

// barrierProbe times a BARRIER round trip between a switch agent and a
// controlplane.Controller over a net.Pipe.
func barrierProbe() (probe, error) {
	sw := softswitch.New("probe", 0xb1)
	swSide, ctrlSide := net.Pipe()
	agent := sw.StartAgent(swSide, 0)
	ctl, err := controlplane.Connect(ctrlSide, controlplane.Config{}, controlplane.Events{})
	if err != nil {
		agent.Stop()
		return probe{}, err
	}
	ctx := context.Background()
	return probe{name: "controlplane.barrier_rtt_ns", ops: 1,
		fn: func() {
			if err := ctl.AwaitBarrier(ctx); err != nil {
				panic(err)
			}
		},
		close: func() { _ = ctl.Close(); agent.Stop() },
	}, nil
}

// poolProbe feeds a one-worker poll-mode pool from one producer and
// drains its egress ring: producer → RX ring → worker → switch → ring.
// A full RX ring is retried after yielding, and counted.
func poolProbe(fs *frameSet) (probe, error) {
	sw, ring, err := l2Switch(fs)
	if err != nil {
		return probe{}, err
	}
	pool := swruntime.New(sw, swruntime.Config{Workers: 1})
	pool.Start()
	var out [][]byte
	var attempts, full float64
	next := 0
	return probe{name: "runtime.pool_w1_ns", ops: burst,
		fn: func() {
			for _, f := range fs.frames[next : next+burst] {
				for attempts++; !pool.Dispatch(1, f); attempts++ {
					full++
					stdruntime.Gosched()
				}
			}
			next = (next + burst) & int(fs.mask)
			out = ring.Drain(out[:0], 0)
		},
		settle: func() { pool.Drain(); out = ring.Drain(out[:0], 0) },
		extra:  func() map[string]float64 { return map[string]float64{"runtime.ring_full_share": full / attempts} },
		close:  pool.Stop,
	}, nil
}

// loopProbe is the harness with nothing under test: injector, one
// link, sink.
func loopProbe(fs *frameSet) probe {
	l := netem.NewLink(netem.LinkConfig{})
	inj, snk := newInjector(fs), &sink{fs: fs}
	l.B().SetReceiver(snk.receive)
	return probe{name: "harness.loop_ns", ops: 1, fn: func() { _ = l.A().Send(inj.next()) }, close: l.Close}
}

var timerSink int64

// buildProbes assembles every isolated probe over 64-byte frames of
// 1024 flows.
func buildProbes(seed int64) ([]probe, error) {
	fs, err := buildFrames(&workload{name: "probes", kind: kindChain, frameLen: 64, flows: 1024}, seed)
	if err != nil {
		return nil, err
	}
	frame := fs.frames[0]
	var probes []probe
	add := func(p probe, err error) error {
		probes = append(probes, p)
		return err
	}

	var key pkt.Key
	probes = append(probes, probe{name: "pkt.extract_key_ns", ops: 1, fn: func() { _ = pkt.ExtractKey(frame, 1, &key) }})

	acl := softswitch.New("probe", 0xb2)
	if err := install(acl, aclProgram()...); err != nil {
		return nil, err
	}
	if err := pkt.ExtractKey(frame, 1, &key); err != nil {
		return nil, err
	}
	lookupKey, table0 := key, acl.Table(0)
	if e := table0.Lookup(&lookupKey, len(frame)); e == nil || e.Priority != 10 {
		return nil, fmt.Errorf("ACL table 0 lookup matched %v, want its last entry", e)
	}
	probes = append(probes, probe{name: "flowtable.lookup_ns", ops: 1, fn: func() { table0.Lookup(&lookupKey, len(frame)) }})

	l := netem.NewLink(netem.LinkConfig{})
	received := 0
	l.B().SetReceiver(func([]byte) { received++ })
	probes = append(probes, probe{name: "netem.send_ns", ops: 1, fn: func() { _ = l.A().Send(frame) }, close: l.Close})

	ring := dataplane.NewRing(1024)
	probes = append(probes, probe{name: "dataplane.ring_pushpop_ns", ops: 1, fn: func() { ring.Push(frame); ring.Pop() }})

	for _, hp := range []struct {
		name  string
		batch int
		tel   *telemetry.Table
	}{
		{"softswitch.hit_b1_ns", 1, nil},
		{"softswitch.hit_b32_ns", burst, nil},
		{"telemetry.hit_b32_ns", burst, telemetry.NewTable(telemetry.Config{})},
	} {
		if err := add(hitProbe(hp.name, fs, hp.batch, hp.tel)); err != nil {
			return nil, err
		}
	}

	lp, err := legacyProbes(frame)
	if err != nil {
		return nil, err
	}
	probes = append(probes, lp...)
	if err := add(s4Probe(frame)); err != nil {
		return nil, err
	}

	m := openflow.Match{}
	m.WithEthDst(fabric.HostMAC(2))
	probes = append(probes, codecProbe("openflow.flowmod_codec_ns", flowAdd(0, 10, m, outputTo(2))))
	in := openflow.Match{}
	in.WithInPort(1)
	probes = append(probes, codecProbe("openflow.pktin_codec_ns", &openflow.PacketIn{
		BufferID: openflow.NoBuffer, TotalLen: uint16(len(frame)), Reason: openflow.PacketInReasonNoMatch,
		Match: in, Data: frame,
	}))

	if err := add(barrierProbe()); err != nil {
		return nil, err
	}
	if err := add(poolProbe(fs)); err != nil {
		return nil, err
	}
	probes = append(probes, loopProbe(fs))
	probes = append(probes, probe{name: "harness.timer_ns", ops: 1, fn: func() { timerSink = nowNs() }})
	return probes, nil
}
