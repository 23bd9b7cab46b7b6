package harmless_test

// The frame-ownership rule, run end to end: the datapath owns a frame
// together with the capacity behind it, and nothing more. Each frame
// here is cut from one slab with a full slice expression, so its
// capacity ends `room` bytes behind it, and the slab bytes from there to
// the next frame hold a canary pattern. The frames go through every
// datapath entry point and every VLAN push on the way — the legacy
// switch's trunk tag, SS_1's re-tag on the way back, and the 802.1ad tag
// SS_2 pushes for a QinQ flow — and the canary must come out untouched,
// and every frame must arrive intact.

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/harmless"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
	"github.com/harmless-sdn/harmless/internal/softswitch/runtime"
)

const canaryByte = 0xa5

// canarySlab lays frames out at a fixed stride: the frame, `room` bytes
// of spare capacity, then guard bytes up to the next frame.
type canarySlab struct {
	buf          []byte
	stride, room int
	lens         []int
}

func newCanarySlab(frames, maxLen, room int) *canarySlab {
	stride := maxLen + room + 64
	return &canarySlab{buf: bytes.Repeat([]byte{canaryByte}, frames*stride), stride: stride, room: room}
}

// cut copies frame into the next slot, its capacity clipped to the
// slot's room.
func (s *canarySlab) cut(frame []byte) []byte {
	off := len(s.lens) * s.stride
	s.lens = append(s.lens, len(frame))
	f := s.buf[off : off+len(frame) : off+len(frame)+s.room]
	copy(f, frame)
	return f
}

// overwritten returns the index of the first slot whose guard bytes
// changed, or -1.
func (s *canarySlab) overwritten() int {
	for i, n := range s.lens {
		for _, b := range s.buf[i*s.stride+n+s.room : (i+1)*s.stride] {
			if b != canaryByte {
				return i
			}
		}
	}
	return -1
}

func udpFrame(t *testing.T, dstPort uint16) []byte {
	t.Helper()
	payload := make(pkt.Payload, 64-pkt.EthernetHeaderLen-pkt.IPv4MinHeaderLen-pkt.UDPHeaderLen)
	f, err := pkt.Serialize(
		&pkt.Ethernet{Src: fabric.HostMAC(1), Dst: fabric.HostMAC(2), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: fabric.HostIP(1), Dst: fabric.HostIP(2)},
		&pkt.UDP{SrcPort: 7777, DstPort: dstPort},
		&payload,
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustPush(t *testing.T, frame []byte, tpid, vid uint16) []byte {
	t.Helper()
	f, err := pkt.PushVLAN(frame, tpid, vid)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFrameCapacityCanary(t *testing.T) {
	d := harmlessPath(t)
	defer d.Close()
	ss1 := d.S4.SS1
	// SS_2 pushes an 802.1ad tag on host 2's UDP port 9999 traffic, so
	// SS_1 sends it up the trunk double-tagged.
	const qinqPort, qinqVID = 9999, 42
	m := openflow.Match{}
	m.WithEthDst(fabric.HostMAC(2)).WithEthType(pkt.EtherTypeIPv4).WithIPProto(pkt.IPProtoUDP).WithUDPDst(qinqPort)
	if _, err := d.S4.SS2.ApplyFlowMod(&openflow.FlowMod{
		TableID: 0, Command: openflow.FlowAdd, Priority: 30,
		BufferID: openflow.NoBuffer, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny,
		Match: m, Instructions: []openflow.Instruction{&openflow.InstrApplyActions{Actions: []openflow.Action{
			&openflow.ActionPushVLAN{EtherType: pkt.EtherTypeQinQ},
			&openflow.ActionSetField{OXM: openflow.OXM{Field: openflow.OXMVLANVID, Value: []byte{0x10, qinqVID}}},
			&openflow.ActionOutput{Port: 2, MaxLen: 0xffff},
		}}},
	}); err != nil {
		t.Fatal(err)
	}

	// Each flow: what host 1 sends, what SS_1 takes from the trunk (the
	// frame tagged with port 1's VLAN) and what host 2 must receive.
	plain, qinq := udpFrame(t, 8888), udpFrame(t, qinqPort)
	vlan1 := d.Manager.Plan().VLANForPort[1]
	flows := []struct{ sent, onTrunk, delivered []byte }{
		{plain, mustPush(t, plain, pkt.EtherTypeDot1Q, vlan1), plain},
		{qinq, mustPush(t, qinq, pkt.EtherTypeDot1Q, vlan1), mustPush(t, qinq, pkt.EtherTypeQinQ, qinqVID)},
	}

	var got []string
	d.Links[1].B().SetReceiver(func(f []byte) { got = append(got, string(f)) })
	in := d.Links[0].B()
	each := func(send func([]byte)) func([][]byte) {
		return func(fs [][]byte) {
			for _, f := range fs {
				send(f)
			}
		}
	}
	pool := func(batch bool) func([][]byte) {
		return func(fs [][]byte) {
			p := runtime.New(ss1, runtime.Config{Workers: 1})
			p.Start()
			if batch {
				p.DispatchBatch(harmless.SS1TrunkPort, fs)
			} else {
				each(func(f []byte) { p.Dispatch(harmless.SS1TrunkPort, f) })(fs)
			}
			p.Stop() // drains the ring
		}
	}
	for _, entry := range []struct {
		name  string
		trunk bool // the frames enter SS_1 from the trunk, tagged
		send  func([][]byte)
	}{
		{"netem.Port.Send", false, each(func(f []byte) { _ = in.Send(f) })},
		{"netem.Port.SendBatch", false, func(fs [][]byte) { _ = in.SendBatch(fs) }},
		{"fabric.Host.SendRaw", false, each(d.Hosts[1].SendRaw)},
		{"fabric.Host.SendRawBatch", false, d.Hosts[1].SendRawBatch},
		{"softswitch.Switch.Receive", true, each(func(f []byte) { ss1.Receive(harmless.SS1TrunkPort, f) })},
		{"softswitch.Switch.ReceiveBatch", true, func(fs [][]byte) { ss1.ReceiveBatch(harmless.SS1TrunkPort, fs) }},
		{"runtime.Pool.Dispatch", true, pool(false)},
		{"runtime.Pool.DispatchBatch", true, pool(true)},
	} {
		// room 0: every push reallocates; 4: the first push fits and
		// the next reallocates; ArenaTailroom: every push fits.
		for _, room := range []int{0, pkt.Dot1QHeaderLen, fabric.ArenaTailroom} {
			t.Run(fmt.Sprintf("%s/room=%d", entry.name, room), func(t *testing.T) {
				const burst = 16
				slab := newCanarySlab(burst, len(plain)+2*pkt.Dot1QHeaderLen, room)
				frames := make([][]byte, burst)
				missing := map[string]int{} // frames host 2 is still owed
				for i := range frames {
					fl := flows[i%len(flows)]
					missing[string(fl.delivered)]++
					if entry.trunk {
						frames[i] = slab.cut(fl.onTrunk)
					} else {
						frames[i] = slab.cut(fl.sent)
					}
				}
				got = got[:0]
				entry.send(frames)
				if i := slab.overwritten(); i >= 0 {
					t.Errorf("frame %d's path wrote past its capacity into the slab:\n% x", i, slab.buf[i*slab.stride:(i+1)*slab.stride])
				}
				for _, f := range got {
					missing[f]--
				}
				for f, n := range missing {
					if n != 0 {
						t.Errorf("host 2 is owed %d more of this frame (got %d frames, want %d):\n% x", n, len(got), burst, f)
					}
				}
			})
		}
	}
}
