package softswitch

import (
	"net"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

var (
	macA = pkt.MustMAC("02:00:00:00:00:0a")
	macB = pkt.MustMAC("02:00:00:00:00:0b")
	ipA  = pkt.MustIPv4("10.0.0.1")
	ipB  = pkt.MustIPv4("10.0.0.2")
)

type collector struct {
	mu     sync.Mutex
	frames [][]byte
}

func (c *collector) receiver() netem.Receiver {
	return func(f []byte) {
		c.mu.Lock()
		c.frames = append(c.frames, f)
		c.mu.Unlock()
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) last() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return nil
	}
	return c.frames[len(c.frames)-1]
}

// rig attaches n netem ports (1..n) to a switch, with collectors on
// the far ends.
type rig struct {
	sw    *Switch
	hosts map[uint32]*collector
	far   map[uint32]*netem.Port
}

func newRig(t *testing.T, n int, opts ...Option) *rig {
	t.Helper()
	r := &rig{
		sw:    New("ss", 0x100, opts...),
		hosts: map[uint32]*collector{},
		far:   map[uint32]*netem.Port{},
	}
	for i := uint32(1); i <= uint32(n); i++ {
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		r.sw.AttachNetPort(i, "p", l.A())
		col := &collector{}
		l.B().SetReceiver(col.receiver())
		r.hosts[i] = col
		r.far[i] = l.B()
	}
	return r
}

func (r *rig) inject(t *testing.T, port uint32, frame []byte) {
	t.Helper()
	if err := r.far[port].Send(frame); err != nil {
		t.Fatal(err)
	}
}

func udpFrame(t testing.TB, src, dst pkt.MAC, ipSrc, ipDst pkt.IPv4, sport, dport uint16, payload string) []byte {
	t.Helper()
	pl := pkt.Payload([]byte(payload))
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: src, Dst: dst, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: ipSrc, Dst: ipDst},
		&pkt.UDP{SrcPort: sport, DstPort: dport},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// addFlow installs a flow via the management path.
func addFlow(t testing.TB, s *Switch, table uint8, priority uint16, match openflow.Match, instrs ...openflow.Instruction) {
	t.Helper()
	_, err := s.ApplyFlowMod(&openflow.FlowMod{
		TableID: table, Command: openflow.FlowAdd, Priority: priority,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: match, Instructions: instrs,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func apply(actions ...openflow.Action) openflow.Instruction {
	return &openflow.InstrApplyActions{Actions: actions}
}

func out(port uint32) openflow.Action {
	return &openflow.ActionOutput{Port: port, MaxLen: 0xffff}
}

func TestBasicForwarding(t *testing.T) {
	r := newRig(t, 2)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x"))
	if r.hosts[2].count() != 1 {
		t.Errorf("port 2 got %d", r.hosts[2].count())
	}
	if r.hosts[1].count() != 0 {
		t.Error("reflected")
	}
}

func TestTableMissDrops(t *testing.T) {
	r := newRig(t, 2)
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x"))
	if r.hosts[2].count() != 0 {
		t.Error("forwarded without flow")
	}
	if r.sw.Drops() != 1 {
		t.Errorf("drops = %d", r.sw.Drops())
	}
}

func TestVLANPushPop(t *testing.T) {
	r := newRig(t, 2)
	// Port 1 -> push vlan 101 -> port 2.
	m1 := openflow.Match{}
	m1.WithInPort(1)
	vidVal := []byte{0x10, 0x65} // 0x1000|101
	addFlow(t, r.sw, 0, 10, m1, apply(
		&openflow.ActionPushVLAN{EtherType: pkt.EtherTypeDot1Q},
		&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMVLANVID, Value: vidVal}},
		out(2),
	))
	// Port 2 -> pop vlan -> port 1.
	m2 := openflow.Match{}
	m2.WithInPort(2)
	addFlow(t, r.sw, 0, 10, m2, apply(&openflow.ActionPopVLAN{}, out(1)))

	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "tag-me"))
	f := r.hosts[2].last()
	if f == nil {
		t.Fatal("no frame")
	}
	vid, ok := pkt.VLANID(f)
	if !ok || vid != 101 {
		t.Fatalf("vid=%d ok=%v", vid, ok)
	}
	// Send it back; tag must be removed.
	r.inject(t, 2, f)
	back := r.hosts[1].last()
	if back == nil {
		t.Fatal("no return frame")
	}
	if pkt.HasVLAN(back) {
		t.Error("tag not popped")
	}
	p := pkt.DecodeEthernet(back)
	if p.UDP() == nil || string(p.ApplicationPayload()) != "tag-me" {
		t.Errorf("payload corrupted: %s", p)
	}
}

func TestGotoTablePipeline(t *testing.T) {
	r := newRig(t, 3)
	// Table 0: anything from port 1 -> goto table 1.
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, &openflow.InstrGotoTable{TableID: 1})
	// Table 1: UDP dport 80 -> port 2; everything else -> port 3.
	m80 := openflow.Match{}
	m80.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(80)
	addFlow(t, r.sw, 1, 20, m80, apply(out(2)))
	addFlow(t, r.sw, 1, 1, openflow.Match{}, apply(out(3)))

	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1000, 80, "web"))
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1000, 53, "dns"))
	if r.hosts[2].count() != 1 || r.hosts[3].count() != 1 {
		t.Errorf("port2=%d port3=%d", r.hosts[2].count(), r.hosts[3].count())
	}
}

func TestWriteActionsActionSet(t *testing.T) {
	r := newRig(t, 3)
	// Table 0 writes output:2, goes to table 1; table 1 replaces the
	// output with 3 via another write-actions.
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m,
		&openflow.InstrWriteActions{Actions: []openflow.Action{out(2)}},
		&openflow.InstrGotoTable{TableID: 1},
	)
	addFlow(t, r.sw, 1, 10, openflow.Match{},
		&openflow.InstrWriteActions{Actions: []openflow.Action{out(3)}},
	)
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x"))
	if r.hosts[2].count() != 0 || r.hosts[3].count() != 1 {
		t.Errorf("port2=%d port3=%d", r.hosts[2].count(), r.hosts[3].count())
	}
}

func TestClearActions(t *testing.T) {
	r := newRig(t, 2)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m,
		&openflow.InstrWriteActions{Actions: []openflow.Action{out(2)}},
		&openflow.InstrGotoTable{TableID: 1},
	)
	addFlow(t, r.sw, 1, 10, openflow.Match{}, &openflow.InstrClearActions{})
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x"))
	if r.hosts[2].count() != 0 {
		t.Error("cleared action set still executed")
	}
	if r.sw.Drops() == 0 {
		t.Error("empty action set should drop")
	}
}

func TestFloodAndInPort(t *testing.T) {
	r := newRig(t, 4)
	addFlow(t, r.sw, 0, 1, openflow.Match{}, apply(out(openflow.PortFlood)))
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "f"))
	if r.hosts[1].count() != 0 {
		t.Error("flood hit ingress")
	}
	for _, p := range []uint32{2, 3, 4} {
		if r.hosts[p].count() != 1 {
			t.Errorf("port %d got %d", p, r.hosts[p].count())
		}
	}
	// IN_PORT reflection.
	m := openflow.Match{}
	m.WithInPort(2)
	addFlow(t, r.sw, 0, 10, m, apply(out(openflow.PortInPort)))
	r.inject(t, 2, udpFrame(t, macB, macA, ipB, ipA, 1, 2, "r"))
	if r.hosts[2].count() != 2 { // 1 from flood + 1 reflected
		t.Errorf("in_port reflection: %d", r.hosts[2].count())
	}
}

func TestSetFieldRewrites(t *testing.T) {
	r := newRig(t, 2)
	newDst := pkt.MustIPv4("192.168.9.9")
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(
		&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMIPv4Dst, Value: newDst[:]}},
		&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMEthDst, Value: macB[:]}},
		&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMUDPDst, Value: []byte{0, 99}}},
		&openflow.ActionDecNwTTL{},
		out(2),
	))
	r.inject(t, 1, udpFrame(t, macA, pkt.MustMAC("02:00:00:00:00:99"), ipA, ipB, 1, 2, "nat"))
	f := r.hosts[2].last()
	if f == nil {
		t.Fatal("no frame")
	}
	p := pkt.DecodeEthernet(f)
	if p.IPv4().Dst != newDst {
		t.Errorf("dst = %s", p.IPv4().Dst)
	}
	if p.Ethernet().Dst != macB {
		t.Errorf("eth dst = %s", p.Ethernet().Dst)
	}
	if p.UDP().DstPort != 99 {
		t.Errorf("udp dst = %d", p.UDP().DstPort)
	}
	if p.IPv4().TTL != 63 {
		t.Errorf("ttl = %d", p.IPv4().TTL)
	}
	// Checksums must still verify.
	if pkt.L4Checksum(p.IPv4().Src, p.IPv4().Dst, pkt.IPProtoUDP, p.IPv4().LayerPayload()) != 0 {
		t.Error("UDP checksum broken")
	}
}

func TestGroupSelectLoadBalances(t *testing.T) {
	r := newRig(t, 3)
	_ = r.sw.Groups().Apply(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeSelect, GroupID: 1,
		Buckets: []openflow.Bucket{
			{Weight: 1, Actions: []openflow.Action{out(2)}},
			{Weight: 1, Actions: []openflow.Action{out(3)}},
		},
	})
	addFlow(t, r.sw, 0, 10, openflow.Match{}, apply(&openflow.ActionGroup{GroupID: 1}))
	for i := 0; i < 100; i++ {
		r.inject(t, 1, udpFrame(t, macA, macB, pkt.IPv4FromUint32(uint32(i)), ipB, uint16(i), 80, "lb"))
	}
	c2, c3 := r.hosts[2].count(), r.hosts[3].count()
	if c2+c3 != 100 {
		t.Fatalf("total %d", c2+c3)
	}
	if c2 < 20 || c3 < 20 {
		t.Errorf("imbalanced: %d/%d", c2, c3)
	}
}

func TestGroupAllReplicates(t *testing.T) {
	r := newRig(t, 3)
	_ = r.sw.Groups().Apply(&openflow.GroupMod{
		Command: openflow.GroupAdd, GroupType: openflow.GroupTypeAll, GroupID: 2,
		Buckets: []openflow.Bucket{
			{Actions: []openflow.Action{out(2)}},
			{Actions: []openflow.Action{out(3)}},
		},
	})
	addFlow(t, r.sw, 0, 10, openflow.Match{}, apply(&openflow.ActionGroup{GroupID: 2}))
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "rep"))
	if r.hosts[2].count() != 1 || r.hosts[3].count() != 1 {
		t.Errorf("replication: %d/%d", r.hosts[2].count(), r.hosts[3].count())
	}
}

func TestMeterLimitsRate(t *testing.T) {
	clk := netem.NewManualClock()
	r := newRig(t, 2, WithClock(clk))
	_ = r.sw.Meters().Apply(&openflow.MeterMod{
		Command: openflow.MeterAdd, Flags: openflow.MeterFlagPktps, MeterID: 1,
		Bands: []openflow.MeterBand{{Type: openflow.MeterBandDrop, Rate: 10, BurstSize: 10}},
	})
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, &openflow.InstrMeter{MeterID: 1}, apply(out(2)))
	for i := 0; i < 50; i++ {
		r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "m"))
	}
	if got := r.hosts[2].count(); got != 10 {
		t.Errorf("passed %d, want 10 (burst)", got)
	}
}

func TestPatchPorts(t *testing.T) {
	// Two switches joined by a patch pair; traffic enters sw1 port 1,
	// crosses the patch, exits sw2 port 1.
	s1 := New("s1", 1)
	s2 := New("s2", 2)
	ConnectPatch(s1, 10, s2, 10)

	l1 := netem.NewLink(netem.LinkConfig{})
	defer l1.Close()
	s1.AttachNetPort(1, "in", l1.A())
	l2 := netem.NewLink(netem.LinkConfig{})
	defer l2.Close()
	s2.AttachNetPort(1, "out", l2.A())
	col := &collector{}
	l2.B().SetReceiver(col.receiver())

	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, s1, 0, 10, m, apply(out(10)))
	m2 := openflow.Match{}
	m2.WithInPort(10)
	addFlow(t, s2, 0, 10, m2, apply(out(1)))

	_ = l1.B().Send(udpFrame(t, macA, macB, ipA, ipB, 1, 2, "patch"))
	if col.count() != 1 {
		t.Fatalf("got %d frames", col.count())
	}
	if s1.PortCounters(10).TxPackets.Load() != 1 || s2.PortCounters(10).RxPackets.Load() != 1 {
		t.Error("patch counters wrong")
	}
}

// TestTableLookupFollowsFlowMods: the tables' lookup, with the flow
// cache in front of it or alone, forwards by the program as it stands —
// per-VLAN rows each to their port, and a replaced row from the very
// next frame.
func TestTableLookupFollowsFlowMods(t *testing.T) {
	for name, opts := range map[string][]Option{
		"cached":   nil,
		"uncached": {WithFlowCacheSize(0)},
	} {
		t.Run(name, func(t *testing.T) {
			r := newRig(t, 3, opts...)
			for vid := uint16(101); vid <= 102; vid++ {
				m := openflow.Match{}
				m.WithInPort(1).WithVLAN(vid)
				addFlow(t, r.sw, 0, 100, m, apply(&openflow.ActionPopVLAN{}, out(uint32(vid-99))))
			}
			tagged := func(vid uint16) []byte {
				f, err := pkt.PushVLAN(udpFrame(t, macA, macB, ipA, ipB, 1, 2, "s"), pkt.EtherTypeDot1Q, vid)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			r.inject(t, 1, tagged(101))
			r.inject(t, 1, tagged(102))
			if r.hosts[2].count() != 1 || r.hosts[3].count() != 1 {
				t.Fatalf("per-VLAN rows: port2=%d port3=%d, want 1 and 1", r.hosts[2].count(), r.hosts[3].count())
			}
			// Replace the vlan-101 row: same match and priority, now to port 3.
			m := openflow.Match{}
			m.WithInPort(1).WithVLAN(101)
			addFlow(t, r.sw, 0, 100, m, apply(&openflow.ActionPopVLAN{}, out(3)))
			r.inject(t, 1, tagged(101))
			if r.hosts[2].count() != 1 || r.hosts[3].count() != 2 {
				t.Errorf("stale lookup after the replace: port2=%d port3=%d, want 1 and 2", r.hosts[2].count(), r.hosts[3].count())
			}
		})
	}
}

// TestTableCountersWhicheverStructureAnswers: a table counts one lookup
// per packet it is consulted for and one match per hit — the same in
// Table.Stats and in the OFPMP_TABLE reply whether the hit entry is
// filed in the index's hash templates or in its residual list, and
// whether the flow cache or the table itself answered.
func TestTableCountersWhicheverStructureAnswers(t *testing.T) {
	indexed, residual := openflow.Match{}, openflow.Match{}
	indexed.WithEthDst(macB)
	residual.WithEthDstMasked(macB, pkt.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}) // macB, not macA
	for _, c := range []struct {
		name  string
		match openflow.Match
		opts  []Option
	}{
		{"indexed/uncached", indexed, []Option{WithFlowCacheSize(0)}},
		{"residual/uncached", residual, []Option{WithFlowCacheSize(0)}},
		{"indexed/cached", indexed, nil},
		{"residual/cached", residual, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 2, c.opts...)
			fc := startFakeController(t, r.sw)
			addFlow(t, r.sw, 0, 10, c.match, apply(out(2)))
			for i := 0; i < 3; i++ {
				r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "hit"))
			}
			for i := 0; i < 2; i++ {
				r.inject(t, 1, udpFrame(t, macB, macA, ipB, ipA, 2, 1, "miss"))
			}
			if lookups, matched := r.sw.Table(0).Stats(); lookups != 5 || matched != 3 {
				t.Errorf("Table.Stats = %d lookups / %d matched, want 5 / 3", lookups, matched)
			}
			_ = fc.conn.Send(&openflow.MultipartRequest{MPType: openflow.MultipartTable})
			reply := <-fc.mpReplies
			if ts := reply.Tables[0]; ts.LookupCount != 5 || ts.MatchedCount != 3 || ts.ActiveCount != 1 {
				t.Errorf("OFPMP_TABLE row 0 = %+v, want 5 lookups / 3 matched / 1 active", ts)
			}
		})
	}
}

// TestFlowModDeleteAndStats: flow, port and table stats, with a flow's
// age read from the switch's clock, and a delete-all that empties them.
func TestFlowModDeleteAndStats(t *testing.T) {
	clk := netem.NewManualClock()
	r := newRig(t, 2, WithClock(clk))
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 10, m, apply(out(2)))
	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 1, 2, "x"))
	clk.Advance(7 * time.Second)
	fs := r.sw.FlowStats(openflow.TableAll)
	if len(fs) != 1 || fs[0].PacketCount != 1 || fs[0].DurationSec != 7 {
		t.Fatalf("flow stats: %+v, want 1 packet over 7 s", fs)
	}
	// Delete all flows.
	_, err := r.sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: openflow.TableAll, Command: openflow.FlowDelete,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.sw.FlowStats(openflow.TableAll)) != 0 {
		t.Error("flows not deleted")
	}
	ps := r.sw.PortStats()
	if len(ps) != 2 {
		t.Fatalf("port stats: %+v", ps)
	}
	if ps[0].RxPackets != 1 {
		t.Errorf("port 1 rx: %+v", ps[0])
	}
	ts := r.sw.TableStats()
	if len(ts) != DefaultNumTables || ts[0].LookupCount == 0 {
		t.Errorf("table stats: %+v", ts)
	}
}

// TestOptionOrderIndependent: the tables must run on the injected clock
// wherever WithClock sits relative to WithNumTables.
func TestOptionOrderIndependent(t *testing.T) {
	for name, order := range map[string]func(netem.Clock) []Option{
		"clock-first":  func(c netem.Clock) []Option { return []Option{WithClock(c), WithNumTables(2)} },
		"tables-first": func(c netem.Clock) []Option { return []Option{WithNumTables(2), WithClock(c)} },
	} {
		t.Run(name, func(t *testing.T) {
			clk := netem.NewManualClock()
			sw := New("order", 0x1, order(clk)...)
			if sw.NumTables() != 2 {
				t.Fatalf("NumTables = %d, want 2", sw.NumTables())
			}
			fm := flowMod(openflow.FlowAdd, 0, 10, openflow.Match{}, apply(out(2)))
			fm.HardTimeout = 5
			if _, err := sw.ApplyFlowMod(fm); err != nil {
				t.Fatal(err)
			}
			clk.Advance(10 * time.Second)
			sw.SweepExpired()
			if n := sw.Table(0).Len(); n != 0 {
				t.Errorf("5 s hard-timeout entry survived a 10 s manual-clock advance (%d left)", n)
			}
		})
	}
}

func TestFlowModBadTable(t *testing.T) {
	r := newRig(t, 1)
	_, err := r.sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 99, Command: openflow.FlowAdd, BufferID: openflow.NoBuffer,
		OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
	})
	if err == nil {
		t.Error("table 99 accepted")
	}
}

func TestPortDescs(t *testing.T) {
	r := newRig(t, 3)
	descs := r.sw.PortDescs()
	if len(descs) != 3 || descs[0].PortNo != 1 || descs[2].PortNo != 3 {
		t.Errorf("descs: %+v", descs)
	}
}

// fakeController drives the agent over a pipe.
type fakeController struct {
	conn      *openflow.Conn
	mu        sync.Mutex
	pktIns    []*openflow.PacketIn
	removed   []*openflow.FlowRemoved
	features  *openflow.FeaturesReply
	mpReplies chan *openflow.MultipartReply
	barriers  chan uint32
}

func startFakeController(t *testing.T, sw *Switch) *fakeController {
	t.Helper()
	c1, c2 := net.Pipe()
	fc := &fakeController{
		conn:      openflow.NewConn(c1),
		mpReplies: make(chan *openflow.MultipartReply, 4),
		barriers:  make(chan uint32, 4),
	}
	agent := sw.StartAgent(c2, 0)
	t.Cleanup(agent.Stop)
	t.Cleanup(func() { fc.conn.Close() })
	fr, err := fc.conn.Handshake(fc.early)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	fc.features = fr
	go func() {
		for {
			m, err := fc.conn.Recv()
			if err != nil {
				return
			}
			fc.early(m)
		}
	}()
	return fc
}

func (fc *fakeController) early(m openflow.Message) {
	switch t := m.(type) {
	case *openflow.PacketIn:
		fc.mu.Lock()
		fc.pktIns = append(fc.pktIns, t)
		fc.mu.Unlock()
	case *openflow.FlowRemoved:
		fc.mu.Lock()
		fc.removed = append(fc.removed, t)
		fc.mu.Unlock()
	case *openflow.MultipartReply:
		fc.mpReplies <- t
	case *openflow.BarrierReply:
		fc.barriers <- t.XID()
	}
}

func (fc *fakeController) packetInCount() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return len(fc.pktIns)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestAgentHandshakeAndPacketIn(t *testing.T) {
	r := newRig(t, 2)
	fc := startFakeController(t, r.sw)
	if fc.features.DatapathID != 0x100 || fc.features.NTables != DefaultNumTables {
		t.Errorf("features: %+v", fc.features)
	}
	// Install a table-miss entry -> controller.
	fm := &openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 0,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Instructions: []openflow.Instruction{apply(&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff})},
	}
	if err := fc.conn.Send(fm); err != nil {
		t.Fatal(err)
	}
	// Barrier to ensure the flow-mod is applied.
	if err := fc.conn.Send(&openflow.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "barrier", func() bool { return len(fc.barriers) > 0 })

	r.inject(t, 1, udpFrame(t, macA, macB, ipA, ipB, 5, 6, "to-controller"))
	waitFor(t, "packet-in", func() bool { return fc.packetInCount() == 1 })
	fc.mu.Lock()
	pi := fc.pktIns[0]
	fc.mu.Unlock()
	if port, ok := pi.InPort(); !ok || port != 1 {
		t.Errorf("in_port: %d %v", port, ok)
	}
	if pi.Reason != openflow.PacketInReasonNoMatch {
		t.Errorf("reason: %d", pi.Reason)
	}
	p := pkt.DecodeEthernet(pi.Data)
	if string(p.ApplicationPayload()) != "to-controller" {
		t.Errorf("payload: %s", p)
	}

	// Packet-out back through port 2.
	po := &openflow.PacketOut{
		BufferID: openflow.NoBuffer, InPort: openflow.PortController,
		Actions: []openflow.Action{out(2)}, Data: pi.Data,
	}
	if err := fc.conn.Send(po); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "packet-out delivery", func() bool { return r.hosts[2].count() == 1 })
}

func TestAgentMultipart(t *testing.T) {
	r := newRig(t, 2)
	fc := startFakeController(t, r.sw)
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(t, r.sw, 0, 7, m, apply(out(2)))

	_ = fc.conn.Send(&openflow.MultipartRequest{MPType: openflow.MultipartDesc})
	reply := <-fc.mpReplies
	if reply.Desc == nil || reply.Desc.Manufacturer != "HARMLESS project" {
		t.Errorf("desc: %+v", reply.Desc)
	}
	_ = fc.conn.Send(&openflow.MultipartRequest{MPType: openflow.MultipartFlow})
	reply = <-fc.mpReplies
	if len(reply.Flows) != 1 || reply.Flows[0].Priority != 7 {
		t.Errorf("flows: %+v", reply.Flows)
	}
	_ = fc.conn.Send(&openflow.MultipartRequest{MPType: openflow.MultipartPortDesc})
	reply = <-fc.mpReplies
	if len(reply.PortDescs) != 2 {
		t.Errorf("port descs: %+v", reply.PortDescs)
	}
	_ = fc.conn.Send(&openflow.MultipartRequest{MPType: openflow.MultipartPortStats})
	reply = <-fc.mpReplies
	if len(reply.Ports) != 2 {
		t.Errorf("port stats: %+v", reply.Ports)
	}
	_ = fc.conn.Send(&openflow.MultipartRequest{MPType: openflow.MultipartTable})
	reply = <-fc.mpReplies
	if len(reply.Tables) != DefaultNumTables {
		t.Errorf("tables: %+v", reply.Tables)
	}
}

func TestAgentFlowRemovedOnExpiry(t *testing.T) {
	clk := netem.NewManualClock()
	r := newRig(t, 2, WithClock(clk))
	fc := startFakeController(t, r.sw)
	m := openflow.Match{}
	m.WithInPort(1)
	fm := &openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10, IdleTimeout: 5,
		Flags:    openflow.FlowFlagSendFlowRem,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{apply(out(2))},
	}
	if _, err := r.sw.ApplyFlowMod(fm); err != nil {
		t.Fatal(err)
	}
	clk.Advance(6 * time.Second)
	if removed := r.sw.SweepExpired(); len(removed) != 1 {
		t.Fatalf("expired %d", len(removed))
	}
	waitFor(t, "flow-removed", func() bool {
		fc.mu.Lock()
		defer fc.mu.Unlock()
		return len(fc.removed) == 1
	})
	fc.mu.Lock()
	fr := fc.removed[0]
	fc.mu.Unlock()
	if fr.Reason != openflow.FlowRemovedIdleTimeout || fr.Priority != 10 {
		t.Errorf("flow removed: %+v", fr)
	}
}

// TestAgentStopDuringSweep: the agent's own sweeper goroutine is the
// caller of SweepExpired, and Stop does not wait for it — so Stop clears
// Switch.agent while a sweep may be reading it. Each round stops the
// agent right after its sweeper is seen expiring an entry; the race
// detector fails the test on an unlocked read.
func TestAgentStopDuringSweep(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 8
	}
	for i := 0; i < rounds; i++ {
		clk := netem.NewManualClock()
		sw := New("stop", 0x45, WithClock(clk))
		fm := flowMod(openflow.FlowAdd, 0, 10, openflow.Match{})
		fm.HardTimeout, fm.Flags = 1, openflow.FlowFlagSendFlowRem
		if _, err := sw.ApplyFlowMod(fm); err != nil {
			t.Fatal(err)
		}
		a := sw.NewAgent(controlplane.Config{}, time.Second)
		waitFor(t, "the sweeper to expire the entry", func() bool {
			clk.Advance(time.Second) // again each poll: the sweeper arms its ticker when it starts
			return sw.Table(0).Len() == 0
		})
		a.Stop()
	}
}

func TestAgentRejectsBadFlowMod(t *testing.T) {
	r := newRig(t, 1)
	fc := startFakeController(t, r.sw)
	// Install a flow-mod with a bad table id; the agent must reject it
	// (observed via the unchanged table) and answer the barrier.
	fm := &openflow.FlowMod{
		TableID: 99, Command: openflow.FlowAdd,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
	}
	if err := fc.conn.Send(fm); err != nil {
		t.Fatal(err)
	}
	_ = fc.conn.Send(&openflow.BarrierRequest{})
	waitFor(t, "barrier", func() bool { return len(fc.barriers) > 0 })
	if r.sw.Table(0).Len() != 0 {
		t.Error("bad flow-mod installed something")
	}
}

// BenchmarkPipelineForward times the table walk alone: cache off, one
// in_port row.
func BenchmarkPipelineForward(b *testing.B) {
	sw := New("bench", 1, WithFlowCacheSize(0))
	l1 := netem.NewLink(netem.LinkConfig{})
	defer l1.Close()
	l2 := netem.NewLink(netem.LinkConfig{})
	defer l2.Close()
	sw.AttachNetPort(1, "in", l1.A())
	sw.AttachNetPort(2, "out", l2.A())
	l2.B().SetReceiver(func([]byte) {})
	m := openflow.Match{}
	m.WithInPort(1)
	addFlow(b, sw, 0, 10, m, apply(out(2)))
	frame := udpFrame(b, macA, macB, ipA, ipB, 1, 2, "bench-payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Receive(1, frame)
	}
}

func TestFlowModPrerequisiteValidation(t *testing.T) {
	r := newRig(t, 2)
	// tcp_dst without ip_proto: rejected like real hardware.
	bad := openflow.Match{}
	bad.WithTCPDst(80)
	_, err := r.sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: bad, Instructions: []openflow.Instruction{apply(out(2))},
	})
	if err == nil {
		t.Error("tcp_dst without ip_proto accepted")
	}
	// ipv4_dst without eth_type: rejected.
	bad2 := openflow.Match{}
	bad2.WithIPv4Dst(ipB)
	_, err = r.sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: bad2, Instructions: []openflow.Instruction{apply(out(2))},
	})
	if err == nil {
		t.Error("ipv4_dst without eth_type accepted")
	}
	// The full prerequisite chain passes.
	good := openflow.Match{}
	good.WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoTCP).WithTCPDst(80)
	_, err = r.sw.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 1,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: good, Instructions: []openflow.Instruction{apply(out(2))},
	})
	if err != nil {
		t.Errorf("valid prerequisite chain rejected: %v", err)
	}
}
