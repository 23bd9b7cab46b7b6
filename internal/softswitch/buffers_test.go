package softswitch

import (
	"net"
	"testing"

	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func TestBufferPoolStoreTake(t *testing.T) {
	bp := newBufferPool(4)
	id := bp.store(7, []byte{1, 2, 3})
	f, inPort, ok := bp.take(id)
	if !ok || len(f) != 3 || f[2] != 3 || inPort != 7 {
		t.Fatalf("take: %v from port %d, %v", f, inPort, ok)
	}
	if _, _, ok := bp.take(id); ok {
		t.Error("double take succeeded")
	}
	if _, _, ok := bp.take(0); ok {
		t.Error("buffer id 0 taken")
	}
	if _, _, ok := bp.take(5); ok {
		t.Error("buffer id past the ring taken")
	}
	if bp.Len() != 0 {
		t.Errorf("len %d", bp.Len())
	}
}

func TestBufferPoolIsolatesStorage(t *testing.T) {
	bp := newBufferPool(4)
	src := []byte{9, 9, 9}
	id := bp.store(1, src)
	src[0] = 0 // caller mutates after store
	f, _, _ := bp.take(id)
	if f[0] != 9 {
		t.Error("buffer shares storage with caller")
	}
}

func TestBufferPoolWraps(t *testing.T) {
	bp := newBufferPool(2)
	id0 := bp.store(1, []byte{0})
	id1 := bp.store(1, []byte{1})
	id2 := bp.store(1, []byte{2}) // overwrites slot 0's id space
	if id0 != id2 {
		t.Fatalf("ring ids: %d %d %d", id0, id1, id2)
	}
	f, _, ok := bp.take(id2)
	if !ok || f[0] != 2 {
		t.Errorf("wrapped slot: %v %v", f, ok)
	}
}

// TestBufferedPacketInAndRelease covers the miss-with-buffering path:
// a table-miss entry with a small MaxLen buffers the frame; the
// controller answers with a flow-mod referencing the buffer, and the
// switch releases the buffered packet through the new flow — from the
// port it arrived on, whether or not the new flow's match names it (a
// learning app matches on eth_dst alone).
func TestBufferedPacketInAndRelease(t *testing.T) {
	t.Run("in_port", func(t *testing.T) { bufferedRelease(t, new(openflow.Match).WithInPort(1)) })
	t.Run("eth_dst", func(t *testing.T) { bufferedRelease(t, new(openflow.Match).WithEthDst(macB)) })
}

func bufferedRelease(t *testing.T, match *openflow.Match) {
	r := newRig(t, 2)
	c1, c2 := net.Pipe()
	agent := r.sw.StartAgent(c2, 0)
	defer agent.Stop()
	ctrl := openflow.NewConn(c1)
	defer ctrl.Close()
	if _, err := ctrl.Handshake(nil); err != nil {
		t.Fatal(err)
	}

	// Miss entry with MaxLen 32: frames larger than that get buffered.
	miss := &openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 0,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 32}},
		}},
	}
	if err := ctrl.Send(miss); err != nil {
		t.Fatal(err)
	}
	_ = ctrl.Send(&openflow.BarrierRequest{})
	for {
		m, err := ctrl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(*openflow.BarrierReply); ok {
			break
		}
	}

	frame := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "a long enough payload to exceed maxlen")
	r.inject(t, 1, frame)

	var pi *openflow.PacketIn
	for pi == nil {
		m, err := ctrl.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := m.(*openflow.PacketIn); ok {
			pi = p
		}
	}
	if pi.BufferID == openflow.NoBuffer {
		t.Fatal("expected a buffered packet-in")
	}
	if len(pi.Data) != 32 {
		t.Errorf("truncated data: %d bytes", len(pi.Data))
	}
	if int(pi.TotalLen) != len(frame) {
		t.Errorf("TotalLen %d != %d", pi.TotalLen, len(frame))
	}

	// Flow-mod referencing the buffer: install match -> port 2; the
	// buffered frame must be released through the new flow.
	fm := &openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 10,
		BufferID: pi.BufferID, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: *match, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2, MaxLen: 0xffff}},
		}},
	}
	if err := ctrl.Send(fm); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "buffered frame release", func() bool { return r.hosts[2].count() == 1 })
	got := r.hosts[2].last()
	p := pkt.DecodeEthernet(got)
	if string(p.ApplicationPayload()) != "a long enough payload to exceed maxlen" {
		t.Errorf("released frame corrupted: %s", p)
	}
}

// TestPacketOutWithBufferID covers the packet-out release path.
func TestPacketOutWithBufferID(t *testing.T) {
	r := newRig(t, 2)
	frame := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "buffered")
	id := r.sw.buffers.store(1, frame)
	r.sw.InjectPacketOut(&openflow.PacketOut{
		BufferID: id, InPort: openflow.PortController,
		Actions: []openflow.Action{out(2)},
	})
	if r.hosts[2].count() != 1 {
		t.Fatal("buffered packet-out not delivered")
	}
	// Unknown buffer id with no data: nothing happens.
	r.sw.InjectPacketOut(&openflow.PacketOut{
		BufferID: 12345, InPort: openflow.PortController,
		Actions: []openflow.Action{out(2)},
	})
	if r.hosts[2].count() != 1 {
		t.Error("phantom buffer delivered")
	}
}
