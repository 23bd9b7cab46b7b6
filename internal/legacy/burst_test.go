package legacy

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// The burst path and the one-frame path are the same function (receive
// wraps forward), but a burst defers every transmission to the end of
// the call and rewrites frames in place, so the differential test below
// drives two identically configured switches with the same random
// traffic — one by SendBatch, one frame by frame — and demands the same
// bytes in the same order on every port, the same counters and the same
// forwarding database after every burst. The one-frame switch is forked
// before every burst: a new switch with the configuration, forwarding
// database, counters and clock reading of the last, so nothing else can
// carry from one burst to the next on the reference side, and a burst
// path that keeps state of its own across bursts shows.

// Port plan of the differential rig.
const (
	diffPorts     = 7
	diffTrunkLoop = 4 // trunk {10,20,30}, native 1; its far end hairpins VLAN 10 back as VLAN 30
	diffTrunkWide = 5 // trunk {10,20,40,99}, native 99
	diffShutPort  = 6 // access 10, toggled administratively
	diffLoopPort  = 7 // access 30: only the hairpin reaches it
)

// diffRig is one switch of the pair. Every far end records what it is
// handed; the far end of diffTrunkLoop also plays a one-armed device
// that sends VLAN 10 frames straight back retagged, which re-enters the
// switch on the goroutine that is still inside forward.
type diffRig struct {
	sw    *Switch
	clock *netem.ManualClock
	far   [diffPorts + 1]*netem.Port
	got   [diffPorts + 1][][]byte
}

func newDiffRig(t *testing.T, burst bool) *diffRig {
	t.Helper()
	r := &diffRig{clock: netem.NewManualClock()}
	r.sw = NewSwitch("diff", diffPorts, WithClock(r.clock))
	r.attach(t, burst)
	for port, vlan := range map[int]uint16{1: 10, 2: 10, 3: 20, diffShutPort: 10, diffLoopPort: 30} {
		if err := r.sw.SetPortAccess(port, vlan); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.sw.SetPortTrunk(diffTrunkLoop, 1, []uint16{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := r.sw.SetPortTrunk(diffTrunkWide, 99, []uint16{10, 20, 40, 99}); err != nil {
		t.Fatal(err)
	}
	return r
}

// fork returns a one-frame rig in r's state on a switch that has
// forwarded nothing.
func (r *diffRig) fork(t *testing.T) *diffRig {
	t.Helper()
	f := &diffRig{clock: netem.NewManualClock()}
	f.clock.Advance(r.clock.Now().Sub(f.clock.Now()))
	f.sw = NewSwitch("diff", diffPorts, WithClock(f.clock))
	f.sw.cfg = r.sw.Config()
	for p := 1; p <= diffPorts; p++ {
		f.sw.ports[p].pc = f.sw.cfg.Ports[p]
		from, to := r.sw.PortCounters(p), f.sw.PortCounters(p)
		to.RxPackets.Add(from.RxPackets.Load())
		to.RxBytes.Add(from.RxBytes.Load())
		to.TxPackets.Add(from.TxPackets.Load())
		to.TxBytes.Add(from.TxBytes.Load())
		to.RxDropped.Add(from.RxDropped.Load())
		to.RxErrors.Add(from.RxErrors.Load())
	}
	for k, e := range r.sw.fdb.entries {
		c := *e
		f.sw.fdb.entries[k] = &c
	}
	f.attach(t, false)
	return f
}

// attach links every port of the rig's switch to a recording far end.
func (r *diffRig) attach(t *testing.T, burst bool) {
	for p := 1; p <= diffPorts; p++ {
		p := p
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		r.sw.AttachPort(p, l.A())
		r.far[p] = l.B()
		record := func(f []byte) { r.got[p] = append(r.got[p], f) }
		if p != diffTrunkLoop {
			l.B().SetReceiver(record)
			continue
		}
		hairpin := func(f []byte) ([]byte, bool) {
			vid, _ := pkt.VLANID(f)
			if vid != 10 {
				return nil, false
			}
			back := append(make([]byte, 0, len(f)+4), f...)
			if err := pkt.SetVLANID(back, 30); err != nil {
				t.Errorf("hairpin retag: %v", err)
			}
			return back, true
		}
		l.B().SetReceiver(func(f []byte) {
			record(f)
			if back, ok := hairpin(f); ok {
				_ = l.B().Send(back)
			}
		})
		if burst {
			// The burst rig's device answers a vector with a vector, so
			// forward is re-entered with a burst as well.
			l.B().SetBatchReceiver(func(fs [][]byte) {
				var backs [][]byte
				for _, f := range fs {
					record(f)
					if back, ok := hairpin(f); ok {
						backs = append(backs, back)
					}
				}
				_ = l.B().SendBatch(backs)
			})
		}
	}
}

// diffFrame builds one random frame for ingress port in. VLAN 30 is
// never offered from outside (only diffLoopPort's own untagged traffic
// is in it) and the other trunk does not carry it, so within one burst
// a port is reached over one path only — directly or through the
// hairpin — and per-port order is comparable.
func diffFrame(rng *rand.Rand, in int, seq uint32) []byte {
	if rng.Intn(40) == 0 {
		return make([]byte, rng.Intn(pkt.EthernetHeaderLen)) // runt: RxErrors
	}
	mac := func() pkt.MAC { return pkt.MAC{0x02, 0, 0, 0, 0, byte(1 + rng.Intn(8))} }
	src, dst := mac(), mac()
	switch rng.Intn(10) {
	case 0:
		dst = pkt.BroadcastMAC
	case 1:
		dst = pkt.MAC{0x01, 0x00, 0x5e, 0, 0, 1}
	case 2:
		src = pkt.BroadcastMAC // never learned
	}
	return diffBuild(rng, dst, src, diffTag(rng, in), seq)
}

// diffRepeat builds a frame with prev's addresses: with prev's tag too,
// the next frame of a run, or one time in four with a tag drawn afresh,
// which may classify it into another VLAN.
func diffRepeat(rng *rand.Rand, in int, prev []byte, seq uint32) []byte {
	var dst, src pkt.MAC
	copy(dst[:], prev[0:6])
	copy(src[:], prev[6:12])
	tag, _ := pkt.VLANID(prev)
	if rng.Intn(4) == 0 {
		tag = diffTag(rng, in)
	}
	return diffBuild(rng, dst, src, tag, seq)
}

// diffTag draws the 802.1Q tag of a frame offered on port in (0 =
// untagged).
func diffTag(rng *rand.Rand, in int) uint16 {
	switch in {
	case diffTrunkLoop:
		return []uint16{0, 10, 10, 20, 20, 40}[rng.Intn(6)] // 40: not allowed here
	case diffTrunkWide:
		return []uint16{0, 10, 10, 20, 20, 40, 99}[rng.Intn(7)]
	}
	return []uint16{0, 0, 0, 0, 10, 20}[rng.Intn(6)] // own VLAN or the wrong one
}

// diffBuild lays out a frame with a random body that starts with seq.
func diffBuild(rng *rand.Rand, dst, src pkt.MAC, tag uint16, seq uint32) []byte {
	body := make([]byte, 4+rng.Intn(60))
	rng.Read(body)
	binary.BigEndian.PutUint32(body, seq)
	f := make([]byte, 0, pkt.EthernetHeaderLen+pkt.Dot1QHeaderLen+len(body)+8)
	f = append(append(f, dst[:]...), src[:]...)
	if tag != 0 {
		f = binary.BigEndian.AppendUint16(f, pkt.EtherTypeDot1Q)
		f = binary.BigEndian.AppendUint16(f, tag)
	}
	f = binary.BigEndian.AppendUint16(f, pkt.EtherTypeIPv4)
	f = append(f, body...)
	// Spare capacity 0..8: both the in-place and the allocating push.
	return f[: len(f) : len(f)+rng.Intn(9)]
}

// diffBurst builds n frames for ingress port in, in runs as the bridge
// sees them: half the time the frame before (the previous burst's last,
// last, for the first) is repeated 1-8 times back to back, mostly with
// its tag as well. A run that starts a burst tells a bridge that kept its
// decision beyond one burst from one that did not, when a clock advance
// or a reconfiguration came in between.
func diffBurst(rng *rand.Rand, in, n int, seq *uint32, last []byte) [][]byte {
	frames := make([][]byte, 0, n)
	add := func(f []byte) {
		frames = append(frames, f)
		*seq++
	}
	prev := last
	for len(frames) < n {
		if len(prev) < pkt.EthernetHeaderLen || rng.Intn(2) == 0 {
			add(diffFrame(rng, in, *seq))
		} else {
			for k := 1 + rng.Intn(8); k > 0 && len(frames) < n; k-- {
				add(diffRepeat(rng, in, prev, *seq))
			}
		}
		prev = frames[len(frames)-1]
	}
	return frames
}

func cloneWithCap(f []byte) []byte {
	return append(make([]byte, 0, cap(f)), f...)
}

func TestBurstMatchesPerFrame(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			burst, single := newDiffRig(t, true), newDiffRig(t, false)
			both := func(fn func(*diffRig)) { fn(burst); fn(single) }
			var seq uint32
			var last []byte
			in := 1
			for round := 0; round < 60; round++ {
				switch rng.Intn(6) {
				case 0:
					// 1/30 to 25/30 of the aging time: entries age out now and then.
					d := time.Duration(1+rng.Intn(25)) * DefaultFDBAging / 30
					both(func(r *diffRig) { r.clock.Advance(d) })
				case 1:
					down := rng.Intn(2) == 0
					both(func(r *diffRig) { _ = r.sw.SetPortShutdown(diffShutPort, down) })
				case 2:
					vlan := []uint16{10, 20}[rng.Intn(2)]
					both(func(r *diffRig) { _ = r.sw.SetPortAccess(3, vlan) })
				}
				// Three bursts in four enter where the one before did.
				if rng.Intn(4) == 0 {
					in = 1 + rng.Intn(diffPorts)
				}
				frames := diffBurst(rng, in, 1+rng.Intn(48), &seq, last)
				last = frames[len(frames)-1]
				single = single.fork(t)
				vec := make([][]byte, len(frames))
				for i, f := range frames {
					vec[i] = cloneWithCap(f)
				}
				if err := burst.far[in].SendBatch(vec); err != nil {
					t.Fatal(err)
				}
				for _, f := range frames {
					if err := single.far[in].Send(cloneWithCap(f)); err != nil {
						t.Fatal(err)
					}
				}
				compareRigs(t, round, in, burst, single)
				if t.Failed() {
					return
				}
			}
		})
	}
}

func compareRigs(t *testing.T, round, in int, a, b *diffRig) {
	t.Helper()
	for p := 1; p <= diffPorts; p++ {
		if len(a.got[p]) != len(b.got[p]) {
			t.Errorf("round %d (ingress %d): port %d got %d frames by burst, %d one at a time",
				round, in, p, len(a.got[p]), len(b.got[p]))
			continue
		}
		for i := range a.got[p] {
			if !bytes.Equal(a.got[p][i], b.got[p][i]) {
				t.Errorf("round %d (ingress %d): port %d frame %d differs:\nburst  %x\nsingle %x",
					round, in, p, i, a.got[p][i], b.got[p][i])
				break
			}
		}
		a.got[p], b.got[p] = a.got[p][:0], b.got[p][:0]
		ca, cb := a.sw.PortCounters(p), b.sw.PortCounters(p)
		type snap struct{ rxP, rxB, txP, txB, rxDrop, rxErr uint64 }
		sa := snap{ca.RxPackets.Load(), ca.RxBytes.Load(), ca.TxPackets.Load(), ca.TxBytes.Load(), ca.RxDropped.Load(), ca.RxErrors.Load()}
		sb := snap{cb.RxPackets.Load(), cb.RxBytes.Load(), cb.TxPackets.Load(), cb.TxBytes.Load(), cb.RxDropped.Load(), cb.RxErrors.Load()}
		if sa != sb {
			t.Errorf("round %d (ingress %d): port %d counters: burst %+v, single %+v", round, in, p, sa, sb)
		}
	}
	ea, eb := a.sw.FDB().Entries(), b.sw.FDB().Entries()
	if len(ea) != len(eb) {
		t.Errorf("round %d (ingress %d): FDB holds %d entries by burst, %d one at a time", round, in, len(ea), len(eb))
		return
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Errorf("round %d (ingress %d): FDB entry %d: burst %+v, single %+v", round, in, i, ea[i], eb[i])
		}
	}
}

// TestFloodOrderAndCopies pins the flood walk: ports in number order,
// every recipient its own bytes, the last one the ingress frame itself.
func TestFloodOrderAndCopies(t *testing.T) {
	sw := NewSwitch("flood", 4)
	var order []int
	got := make(map[int][]byte)
	far := make(map[int]*netem.Port)
	for p := 1; p <= 4; p++ {
		p := p
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		sw.AttachPort(p, l.A())
		l.B().SetReceiver(func(f []byte) { order = append(order, p); got[p] = f })
		far[p] = l.B()
	}
	frame := ethFrame(t, macA, pkt.BroadcastMAC, "flood")
	if err := far[1].Send(frame); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[2 3 4]" {
		t.Fatalf("flood order %v, want [2 3 4]", order)
	}
	if &got[4][0] != &frame[0] {
		t.Error("the last recipient should get the ingress frame itself")
	}
	got[2][0] ^= 0xff
	if got[3][0] == got[2][0] || got[4][0] == got[2][0] {
		t.Error("flood recipients share bytes")
	}
	if spare := cap(got[2]) - len(got[2]); spare < pkt.Dot1QHeaderLen {
		t.Errorf("a flood copy has %d spare bytes, want room for a tag", spare)
	}
}

// TestBurstsRaceReconfiguration runs bursts into two ports while the
// CLI rewrites VLAN membership and shuts a port (run with -race).
func TestBurstsRaceReconfiguration(t *testing.T) {
	const ports = 5
	sw := NewSwitch("race", ports)
	far := make([]*netem.Port, ports+1)
	for p := 1; p <= ports; p++ {
		l := netem.NewLink(netem.LinkConfig{})
		t.Cleanup(l.Close)
		sw.AttachPort(p, l.A())
		l.B().SetReceiver(func([]byte) {})
		far[p] = l.B()
	}
	if err := sw.SetPortTrunk(5, 1, []uint16{10, 20}); err != nil {
		t.Fatal(err)
	}
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	var wg sync.WaitGroup
	for _, in := range []int{1, 5} {
		in := in
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(in)))
			for i := 0; i < rounds; i++ {
				vec := make([][]byte, 32)
				for j := range vec {
					vec[j] = diffFrame(rng, in, uint32(j))
				}
				if err := far[in].SendBatch(vec); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv := NewCLIServer(sw, DialectCiscoish)
		for i := 0; i < rounds; i++ {
			vlan := 10 + 10*(i%2)
			runScript(t, srv,
				"enable", "configure terminal",
				"interface gi0/2", fmt.Sprintf("switchport access vlan %d", vlan), "exit",
				"interface gi0/5", fmt.Sprintf("switchport trunk allowed vlan %d", vlan), "exit",
				"interface gi0/3", []string{"shutdown", "no shutdown"}[i%2], "end",
			)
		}
	}()
	wg.Wait()
	var rx, tx uint64
	for p := 1; p <= ports; p++ {
		c := sw.PortCounters(p)
		rx += c.RxPackets.Load()
		tx += c.TxPackets.Load()
	}
	if rx == 0 || tx == 0 {
		t.Errorf("nothing forwarded under reconfiguration: rx=%d tx=%d", rx, tx)
	}
}

// BenchmarkForwardBurst drives 32-frame bursts from an access port to
// the trunk, every destination known behind it. one-pair sends every
// frame between the same two hosts, so a burst is one run; alternating
// interleaves two pairs, so every run is one frame long. `make bench`
// gates the pair: a run must cost less than its frames resolved one by
// one.
func BenchmarkForwardBurst(b *testing.B) {
	const burst, size = 32, 64
	macD := pkt.MustMAC("02:00:00:00:00:0d")
	for _, w := range []struct {
		name  string
		pairs [][2]pkt.MAC // source, destination
	}{
		{"one-pair", [][2]pkt.MAC{{macA, macB}}},
		{"alternating", [][2]pkt.MAC{{macA, macB}, {macC, macD}}},
	} {
		b.Run(w.name, func(b *testing.B) {
			sw := NewSwitch("bench", 2)
			var far [3]*netem.Port
			delivered := 0
			for p := 1; p <= 2; p++ {
				l := netem.NewLink(netem.LinkConfig{})
				defer l.Close()
				sw.AttachPort(p, l.A())
				far[p] = l.B()
				far[p].SetReceiver(func([]byte) {})
			}
			far[2].SetBatchReceiver(func(fs [][]byte) { delivered += len(fs) })
			if err := sw.SetPortAccess(1, 10); err != nil {
				b.Fatal(err)
			}
			if err := sw.SetPortTrunk(2, 1, []uint16{10}); err != nil {
				b.Fatal(err)
			}
			tmpl := make([][]byte, len(w.pairs))
			for i, p := range w.pairs {
				// The destination speaks first, from behind the trunk.
				_ = far[2].Send(taggedFrame(b, p[1], p[0], 10, "learn"))
				tmpl[i] = ethFrame(b, p[0], p[1], string(make([]byte, size-pkt.EthernetHeaderLen)))
			}
			// Each frame of a burst owns room for the tag the trunk pushes
			// in place; the switch rewrites it, so every burst is copied
			// afresh.
			const slot = size + pkt.Dot1QHeaderLen
			buf := make([]byte, burst*slot)
			vec := make([][]byte, burst)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n += burst {
				for i := range vec {
					f := buf[i*slot : i*slot+size : (i+1)*slot]
					copy(f, tmpl[i%len(tmpl)])
					vec[i] = f
				}
				_ = far[1].SendBatch(vec)
			}
			b.StopTimer()
			if sent := (b.N + burst - 1) / burst * burst; delivered != sent {
				b.Fatalf("trunk took %d of %d frames", delivered, sent)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
		})
	}
}
