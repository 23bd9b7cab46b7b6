package legacy

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

var (
	macA = pkt.MustMAC("02:00:00:00:00:0a")
	macB = pkt.MustMAC("02:00:00:00:00:0b")
	macC = pkt.MustMAC("02:00:00:00:00:0c")
)

// collector records frames delivered to the far end of a link.
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

func (c *collector) reset() {
	c.mu.Lock()
	c.frames = nil
	c.mu.Unlock()
}

// rig is a switch with each port attached to a sync link whose far end
// records frames.
type rig struct {
	sw    *Switch
	hosts map[int]*collector
	ports map[int]*netem.Port // far ends, for injecting frames
}

func newRig(t *testing.T, numPorts int, opts ...Option) *rig {
	t.Helper()
	r := &rig{
		sw:    NewSwitch("sw1", numPorts, opts...),
		hosts: make(map[int]*collector),
		ports: make(map[int]*netem.Port),
	}
	for i := 1; i <= numPorts; i++ {
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		r.sw.AttachPort(i, l.A())
		col := &collector{}
		l.B().SetReceiver(col.receiver())
		r.hosts[i] = col
		r.ports[i] = l.B()
	}
	return r
}

// inject sends a frame into switch port n.
func (r *rig) inject(t *testing.T, n int, frame []byte) {
	t.Helper()
	if err := r.ports[n].Send(frame); err != nil {
		t.Fatalf("inject port %d: %v", n, err)
	}
}

func ethFrame(t testing.TB, src, dst pkt.MAC, payload string) []byte {
	t.Helper()
	pl := pkt.Payload([]byte(payload))
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: src, Dst: dst, EtherType: pkt.EtherTypeIPv4},
		&pl,
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func taggedFrame(t testing.TB, src, dst pkt.MAC, vid uint16, payload string) []byte {
	t.Helper()
	f, err := pkt.PushVLAN(ethFrame(t, src, dst, payload), pkt.EtherTypeDot1Q, vid)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestUnknownUnicastFloods(t *testing.T) {
	r := newRig(t, 4)
	r.inject(t, 1, ethFrame(t, macA, macB, "hello"))
	// All ports except ingress must receive it (VLAN 1 everywhere).
	for p := 2; p <= 4; p++ {
		if r.hosts[p].count() != 1 {
			t.Errorf("port %d got %d frames, want 1", p, r.hosts[p].count())
		}
	}
	if r.hosts[1].count() != 0 {
		t.Error("frame reflected to ingress port")
	}
}

func TestLearningUnicastForwarding(t *testing.T) {
	r := newRig(t, 4)
	// A on port 1 talks; B on port 2 answers; then A→B must go only
	// to port 2.
	r.inject(t, 1, ethFrame(t, macA, macB, "1"))
	r.inject(t, 2, ethFrame(t, macB, macA, "2"))
	for i := 1; i <= 4; i++ {
		r.hosts[i].reset()
	}
	r.inject(t, 1, ethFrame(t, macA, macB, "3"))
	if r.hosts[2].count() != 1 {
		t.Errorf("port 2 got %d, want 1", r.hosts[2].count())
	}
	for _, p := range []int{1, 3, 4} {
		if r.hosts[p].count() != 0 {
			t.Errorf("port %d got %d, want 0", p, r.hosts[p].count())
		}
	}
}

func TestSameSegmentFiltered(t *testing.T) {
	r := newRig(t, 4)
	// Learn both A and B on port 1 (hub behind the port).
	r.inject(t, 1, ethFrame(t, macA, macB, "x"))
	r.inject(t, 1, ethFrame(t, macB, macA, "y"))
	for i := 1; i <= 4; i++ {
		r.hosts[i].reset()
	}
	// A→B where both live on port 1: the bridge must filter.
	r.inject(t, 1, ethFrame(t, macA, macB, "z"))
	for p := 1; p <= 4; p++ {
		if r.hosts[p].count() != 0 {
			t.Errorf("port %d got %d, want 0 (filtered)", p, r.hosts[p].count())
		}
	}
}

func TestBroadcastFloodsWithinVLAN(t *testing.T) {
	r := newRig(t, 4)
	if err := r.sw.SetPortAccess(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := r.sw.SetPortAccess(2, 10); err != nil {
		t.Fatal(err)
	}
	// Ports 3,4 stay in VLAN 1.
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "bc"))
	if r.hosts[2].count() != 1 {
		t.Errorf("same-VLAN port got %d", r.hosts[2].count())
	}
	if r.hosts[3].count() != 0 || r.hosts[4].count() != 0 {
		t.Error("broadcast leaked across VLANs")
	}
}

func TestVLANIsolationUnicast(t *testing.T) {
	r := newRig(t, 4)
	_ = r.sw.SetPortAccess(1, 10)
	_ = r.sw.SetPortAccess(2, 20)
	// Learn A in VLAN 10 @1, B in VLAN 20 @2.
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "a"))
	r.inject(t, 2, ethFrame(t, macB, pkt.BroadcastMAC, "b"))
	for i := 1; i <= 4; i++ {
		r.hosts[i].reset()
	}
	// A→B unicast: B is unknown in VLAN 10, so flood within VLAN 10
	// only — port 2 must NOT see it.
	r.inject(t, 1, ethFrame(t, macA, macB, "x"))
	if r.hosts[2].count() != 0 {
		t.Error("unicast leaked across VLANs")
	}
}

func TestAccessEgressUntagged(t *testing.T) {
	r := newRig(t, 2)
	_ = r.sw.SetPortAccess(1, 10)
	_ = r.sw.SetPortAccess(2, 10)
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "u"))
	f := r.hosts[2].last()
	if f == nil {
		t.Fatal("no frame")
	}
	if pkt.HasVLAN(f) {
		t.Error("access egress must be untagged")
	}
}

func TestTrunkEgressTagged(t *testing.T) {
	r := newRig(t, 2)
	_ = r.sw.SetPortAccess(1, 101)
	_ = r.sw.SetPortTrunk(2, 1, []uint16{101, 102})
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "t"))
	f := r.hosts[2].last()
	if f == nil {
		t.Fatal("no frame on trunk")
	}
	vid, ok := pkt.VLANID(f)
	if !ok || vid != 101 {
		t.Errorf("trunk frame vid=%d ok=%v, want tagged 101", vid, ok)
	}
}

func TestTrunkIngressTaggedToAccessUntagged(t *testing.T) {
	// The HARMLESS return path: frame arrives on the trunk tagged with
	// the access port's VLAN and must exit untagged on that port.
	r := newRig(t, 3)
	_ = r.sw.SetPortAccess(1, 101)
	_ = r.sw.SetPortAccess(2, 102)
	_ = r.sw.SetPortTrunk(3, 1, []uint16{101, 102})
	r.inject(t, 3, taggedFrame(t, macC, pkt.BroadcastMAC, 102, "ret"))
	if r.hosts[1].count() != 0 {
		t.Error("VLAN 102 frame delivered to VLAN 101 port")
	}
	f := r.hosts[2].last()
	if f == nil {
		t.Fatal("no frame on access port 2")
	}
	if pkt.HasVLAN(f) {
		t.Error("access egress must be untagged")
	}
}

func TestTrunkDisallowedVLANDropped(t *testing.T) {
	r := newRig(t, 2)
	_ = r.sw.SetPortAccess(1, 30)
	_ = r.sw.SetPortTrunk(2, 1, []uint16{10, 20})
	r.inject(t, 2, taggedFrame(t, macA, pkt.BroadcastMAC, 30, "no"))
	if r.hosts[1].count() != 0 {
		t.Error("disallowed VLAN forwarded")
	}
	if d := r.sw.PortCounters(2).RxDropped.Load(); d != 1 {
		t.Errorf("RxDropped = %d", d)
	}
}

// TestTrunkAllowedSet pins what the allowed VLAN set keeps of the list it
// is given: the ids at both ends of the range, an empty list apart from
// "all", a copy in Config() that does not alias the switch's.
func TestTrunkAllowedSet(t *testing.T) {
	sw := NewSwitch("edge", 3)
	if err := sw.SetPortTrunk(1, 1, []uint16{4094, 1, 64, 63}); err != nil {
		t.Fatal(err)
	}
	_ = sw.SetPortTrunk(2, 1, []uint16{})
	_ = sw.SetPortTrunk(3, 1, nil)
	cfg := sw.Config()
	if al := cfg.Ports[1].AllowedList(); fmt.Sprint(al) != "[1 63 64 4094]" {
		t.Errorf("allowed list = %v", al)
	}
	for vlan, want := range map[uint16]bool{1: true, 2: false, 63: true, 64: true, 4094: true, 4095: false, 0xffff: false} {
		if got := cfg.Ports[1].allows(vlan); got != want {
			t.Errorf("allows(%d) = %v, want %v", vlan, got, want)
		}
	}
	if al := cfg.Ports[2].AllowedList(); al == nil || len(al) != 0 || cfg.Ports[2].allows(1) {
		t.Errorf("empty allowed list: %v, carries VLAN 1: %v", al, cfg.Ports[2].allows(1))
	}
	if al := cfg.Ports[3].AllowedList(); al != nil || !cfg.Ports[3].allows(4094) {
		t.Errorf("nil allowed list reads %v", al)
	}
	cfg.Ports[1].Allowed.Add(2)
	if sw.Config().Ports[1].allows(2) {
		t.Error("Config() shares its allowed set with the switch")
	}
}

func TestTrunkNativeVLANUntagged(t *testing.T) {
	r := newRig(t, 2)
	_ = r.sw.SetPortAccess(1, 99)
	_ = r.sw.SetPortTrunk(2, 99, nil) // native 99, all allowed
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "n"))
	f := r.hosts[2].last()
	if f == nil {
		t.Fatal("no frame")
	}
	if pkt.HasVLAN(f) {
		t.Error("native VLAN must egress untagged on trunk")
	}
	// And untagged ingress on the trunk classifies into native VLAN.
	r.hosts[1].reset()
	r.inject(t, 2, ethFrame(t, macB, pkt.BroadcastMAC, "m"))
	if r.hosts[1].count() != 1 {
		t.Error("native-classified frame not delivered to access port")
	}
}

func TestAccessPortRejectsForeignTag(t *testing.T) {
	r := newRig(t, 2)
	_ = r.sw.SetPortAccess(1, 10)
	_ = r.sw.SetPortAccess(2, 10)
	r.inject(t, 1, taggedFrame(t, macA, pkt.BroadcastMAC, 20, "bad"))
	if r.hosts[2].count() != 0 {
		t.Error("foreign-tagged frame accepted on access port")
	}
	// Matching tag is accepted.
	r.inject(t, 1, taggedFrame(t, macA, pkt.BroadcastMAC, 10, "ok"))
	if r.hosts[2].count() != 1 {
		t.Error("own-VLAN tagged frame rejected on access port")
	}
}

func TestShutdownPort(t *testing.T) {
	r := newRig(t, 2)
	if err := r.sw.SetPortShutdown(1, true); err != nil {
		t.Fatal(err)
	}
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "x"))
	if r.hosts[2].count() != 0 {
		t.Error("shutdown port forwarded traffic")
	}
	// Egress side: traffic must not exit a shutdown port either.
	r.inject(t, 2, ethFrame(t, macB, pkt.BroadcastMAC, "y"))
	if r.hosts[1].count() != 0 {
		t.Error("traffic egressed a shutdown port")
	}
	if err := r.sw.SetPortShutdown(1, false); err != nil {
		t.Fatal(err)
	}
	r.inject(t, 2, ethFrame(t, macB, pkt.BroadcastMAC, "z"))
	if r.hosts[1].count() != 1 {
		t.Error("re-enabled port did not forward")
	}
}

func TestRuntFrameCountsError(t *testing.T) {
	r := newRig(t, 2)
	r.inject(t, 1, []byte{1, 2, 3})
	if e := r.sw.PortCounters(1).RxErrors.Load(); e != 1 {
		t.Errorf("RxErrors = %d", e)
	}
}

func TestCounters(t *testing.T) {
	r := newRig(t, 2)
	f := ethFrame(t, macA, pkt.BroadcastMAC, "count")
	r.inject(t, 1, f)
	if rx := r.sw.PortCounters(1).RxPackets.Load(); rx != 1 {
		t.Errorf("RxPackets = %d", rx)
	}
	if tx := r.sw.PortCounters(2).TxPackets.Load(); tx != 1 {
		t.Errorf("TxPackets = %d", tx)
	}
	if b := r.sw.PortCounters(2).TxBytes.Load(); b != uint64(len(f)) {
		t.Errorf("TxBytes = %d, want %d", b, len(f))
	}
}

func TestConfigManagement(t *testing.T) {
	sw := NewSwitch("edge-1", 8)
	if sw.NumPorts() != 8 {
		t.Errorf("NumPorts = %d", sw.NumPorts())
	}
	if err := sw.SetPortAccess(99, 10); err == nil {
		t.Error("expected error for unknown port")
	}
	if err := sw.SetPortAccess(1, 0); err == nil {
		t.Error("expected error for VLAN 0")
	}
	if err := sw.SetPortTrunk(1, 1, []uint16{5000}); err == nil {
		t.Error("expected error for out-of-range allowed VLAN")
	}
	if err := sw.DeclareVLAN(101, "harmless-p1"); err != nil {
		t.Fatal(err)
	}
	cfg := sw.Config()
	if cfg.VLANs[101] != "harmless-p1" {
		t.Errorf("VLANs: %v", cfg.VLANs)
	}
	// Config is a copy: mutating it must not affect the switch.
	cfg.VLANs[999] = "ghost"
	if _, ok := sw.Config().VLANs[999]; ok {
		t.Error("Config() returned a live reference")
	}
	sw.SetHostname("edge-renamed")
	if sw.Hostname() != "edge-renamed" {
		t.Error("hostname not applied")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	sw.RemoveVLAN(101)
	if _, ok := sw.Config().VLANs[101]; ok {
		t.Error("VLAN not removed")
	}
}

func TestFDBAging(t *testing.T) {
	clk := netem.NewManualClock()
	r := newRig(t, 3, WithClock(clk))
	r.inject(t, 1, ethFrame(t, macA, pkt.BroadcastMAC, "l"))
	r.inject(t, 2, ethFrame(t, macB, macA, "to-a"))
	if r.hosts[1].count() != 1 {
		t.Fatal("learned forwarding failed")
	}
	if r.hosts[3].count() != 1 {
		t.Fatal("initial broadcast should reach port 3")
	}
	r.hosts[1].reset()
	r.hosts[3].reset()
	clk.Advance(DefaultFDBAging + time.Second)
	// A's entry expired: unicast to A floods again.
	r.inject(t, 2, ethFrame(t, macB, macA, "to-a-again"))
	if r.hosts[3].count() != 1 {
		t.Error("expired entry should cause flooding")
	}
}

// countingClock counts how often the bridge asks for the time.
type countingClock struct {
	*netem.ManualClock
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.ManualClock.Now()
}

// TestOneClockReadPerForward pins the bridge's clock: a clock other than
// netem.RealClock is read exactly, once per forward call whatever the
// burst size, and what it learns carries that reading.
func TestOneClockReadPerForward(t *testing.T) {
	clk := &countingClock{ManualClock: netem.NewManualClock()}
	r := newRig(t, 3, WithClock(clk))
	for _, n := range []int{1, 8, 32} {
		clk.Advance(time.Second)
		burst := make([][]byte, n)
		for i := range burst {
			burst[i] = ethFrame(t, macA, macB, "x")
		}
		clk.reads = 0
		if err := r.ports[1].SendBatch(burst); err != nil {
			t.Fatal(err)
		}
		if clk.reads != 1 {
			t.Errorf("burst of %d: %d clock reads, want 1", n, clk.reads)
		}
		if e := r.sw.FDB().Entries(); len(e) != 1 || !e[0].LastSeen.Equal(clk.ManualClock.Now()) {
			t.Errorf("burst of %d: FDB %+v, want macA last seen at %v", n, e, clk.ManualClock.Now())
		}
	}
}

func TestFDBOperations(t *testing.T) {
	clk := netem.NewManualClock()
	f := NewFDB(2, clk)
	f.Learn(1, macA, 1)
	f.Learn(1, macB, 2)
	if f.Len() != 2 {
		t.Errorf("Len = %d", f.Len())
	}
	// Table full: macC not learned.
	f.Learn(1, macC, 3)
	if _, ok := f.Lookup(1, macC); ok {
		t.Error("macC learned despite full table")
	}
	// After aging, learning evicts an expired entry.
	clk.Advance(DefaultFDBAging + time.Second)
	f.Learn(1, macC, 3)
	if p, ok := f.Lookup(1, macC); !ok || p != 3 {
		t.Error("macC not learned after eviction")
	}
	// Static entries survive aging and are not displaced.
	f.AddStatic(2, macA, 7)
	clk.Advance(time.Hour)
	if p, ok := f.Lookup(2, macA); !ok || p != 7 {
		t.Error("static entry lost")
	}
	f.Learn(2, macA, 9)
	if p, _ := f.Lookup(2, macA); p != 7 {
		t.Error("static entry displaced by learning")
	}
	// Broadcast source never learned.
	f.Learn(1, pkt.BroadcastMAC, 1)
	if _, ok := f.Lookup(1, pkt.BroadcastMAC); ok {
		t.Error("broadcast learned")
	}
	// Sweep removes expired dynamics but keeps statics.
	removed := f.Sweep()
	if removed == 0 {
		t.Error("sweep removed nothing")
	}
	if _, ok := f.Lookup(2, macA); !ok {
		t.Error("static swept")
	}
	// FlushVLAN.
	f.Learn(3, macB, 4)
	f.FlushVLAN(3)
	if _, ok := f.Lookup(3, macB); ok {
		t.Error("FlushVLAN did not remove entry")
	}
}

func TestFDBEntriesSorted(t *testing.T) {
	f := NewFDB(0, nil)
	f.Learn(2, macB, 1)
	f.Learn(1, macC, 2)
	f.Learn(1, macA, 3)
	es := f.Entries()
	if len(es) != 3 {
		t.Fatalf("Entries: %d", len(es))
	}
	if es[0].VLAN != 1 || es[0].MAC != macA || es[2].VLAN != 2 {
		t.Errorf("sort order: %+v", es)
	}
}

func TestAttachUnknownPortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	sw := NewSwitch("x", 2)
	l := netem.NewLink(netem.LinkConfig{})
	defer l.Close()
	sw.AttachPort(3, l.A())
}

func TestPortModeString(t *testing.T) {
	if ModeAccess.String() != "access" || ModeTrunk.String() != "trunk" {
		t.Error("mode strings")
	}
	if PortMode(9).String() == "" {
		t.Error("unknown mode string empty")
	}
}

func TestUptimeAndModel(t *testing.T) {
	clk := netem.NewManualClock()
	sw := NewSwitch("u", 1, WithClock(clk), WithModel("TestModel 9000"))
	clk.Advance(90 * time.Second)
	if sw.Uptime() != 90*time.Second {
		t.Errorf("Uptime = %v", sw.Uptime())
	}
	if sw.Model() != "TestModel 9000" {
		t.Errorf("Model = %q", sw.Model())
	}
	if sw.PortAttached(1) {
		t.Error("port should not be attached")
	}
}

func BenchmarkLegacySwitchKnownUnicast(b *testing.B) {
	sw := NewSwitch("bench", 4)
	links := make([]*netem.Link, 5)
	for i := 1; i <= 4; i++ {
		links[i] = netem.NewLink(netem.LinkConfig{})
		defer links[i].Close()
		sw.AttachPort(i, links[i].A())
		links[i].B().SetReceiver(func([]byte) {})
	}
	// Pre-learn.
	fa := ethFrame(b, macA, macB, "w")
	fb := ethFrame(b, macB, macA, "w")
	_ = links[1].B().Send(fa)
	_ = links[2].B().Send(fb)
	frame := ethFrame(b, macA, macB, "payload-bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = links[1].B().Send(frame)
	}
}

// TestRefusedTrunkLeavesPortUntouched: SetPortTrunk validates the
// whole list before it changes anything, so a refused list leaves the
// port's mode, PVID and allowed set, and the addresses learned on it,
// as they were.
func TestRefusedTrunkLeavesPortUntouched(t *testing.T) {
	sw := NewSwitch("edge-1", 4)
	sw.FDB().Learn(DefaultVLAN, macA, 2)
	before := *sw.Config().Ports[2]
	if err := sw.SetPortTrunk(2, 7, []uint16{101, 0, 102}); err == nil {
		t.Fatal("allowed VLAN 0 accepted")
	}
	if got := *sw.Config().Ports[2]; got.Mode != before.Mode || got.PVID != before.PVID || got.Allowed != before.Allowed {
		t.Errorf("refused trunk changed port 2: %+v, was %+v", got, before)
	}
	if port, ok := sw.FDB().Lookup(DefaultVLAN, macA); !ok || port != 2 {
		t.Errorf("refused trunk flushed port 2's addresses: port %d, found %v", port, ok)
	}
}
