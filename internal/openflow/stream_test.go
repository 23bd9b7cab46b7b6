package openflow

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// choppyPipe is one direction of a transport that respects nothing but
// byte order: writes pile up (so several merge into one read) and a
// read hands out a random prefix of what has piled up (so a message,
// and its header, is split anywhere).
type choppyPipe struct {
	mu     sync.Mutex
	ready  sync.Cond
	rng    *rand.Rand
	buf    []byte
	closed bool
}

func newChoppyPipe(seed int64) *choppyPipe {
	p := &choppyPipe{rng: rand.New(rand.NewSource(seed))}
	p.ready.L = &p.mu
	return p
}

func (p *choppyPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, io.ErrClosedPipe
	}
	p.buf = append(p.buf, b...)
	if p.rng.Intn(3) == 0 { // two writes in three wait for company
		p.ready.Signal()
	}
	return len(b), nil
}

func (p *choppyPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.buf) == 0 && !p.closed {
		p.ready.Wait()
	}
	if len(p.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.buf[:1+p.rng.Intn(min(len(p.buf), 200))])
	p.buf = p.buf[n:]
	return n, nil
}

func (p *choppyPipe) Close() error {
	p.mu.Lock()
	p.closed = true
	p.ready.Broadcast()
	p.mu.Unlock()
	return nil
}

func randomBytes(rng *rand.Rand, max int) []byte {
	b := make([]byte, rng.Intn(max+1))
	rng.Read(b)
	if len(b) == 0 {
		return nil
	}
	return b
}

func randomMatch(rng *rand.Rand) Match {
	var m Match
	if rng.Intn(2) == 0 {
		m.WithInPort(rng.Uint32())
	}
	if rng.Intn(2) == 0 {
		m.WithEthDstMasked(pkt.MAC{byte(rng.Intn(256)), 2, 3, 4, 5, 6}, pkt.MAC{0xff, 0xff, 0xff, 0, 0, 0})
	}
	if rng.Intn(2) == 0 {
		m.WithEthType(0x0800).WithIPv4Src(pkt.IPv4{10, 0, byte(rng.Intn(256)), 1})
	}
	if rng.Intn(3) == 0 {
		m.WithVLAN(uint16(rng.Intn(4096)))
	}
	return m
}

func randomActions(rng *rand.Rand) []Action {
	var out []Action
	for i := rng.Intn(4); i > 0; i-- {
		switch rng.Intn(5) {
		case 0:
			out = append(out, &ActionOutput{Port: rng.Uint32(), MaxLen: uint16(rng.Intn(1 << 16))})
		case 1:
			out = append(out, &ActionPushVLAN{EtherType: 0x8100})
		case 2:
			out = append(out, &ActionPopVLAN{})
		case 3:
			out = append(out, &ActionGroup{GroupID: rng.Uint32()})
		case 4:
			out = append(out, &ActionSetField{OXM: OXM{Field: OXMVLANVID, Value: []byte{0x10, byte(rng.Intn(256))}}})
		}
	}
	return out
}

func randomMessage(rng *rand.Rand) Message {
	switch rng.Intn(10) {
	case 0:
		return &Hello{}
	case 1:
		return &EchoRequest{Data: randomBytes(rng, 40)}
	case 2:
		return &BarrierRequest{}
	case 3:
		return &Error{ErrType: uint16(rng.Intn(13)), Code: uint16(rng.Intn(8)), Data: randomBytes(rng, 64)}
	case 4:
		return &PacketIn{BufferID: NoBuffer, TotalLen: uint16(rng.Intn(1500)), Reason: uint8(rng.Intn(2)),
			TableID: uint8(rng.Intn(4)), Cookie: rng.Uint64(), Match: randomMatch(rng), Data: randomBytes(rng, 1500)}
	case 5:
		return &PacketOut{BufferID: NoBuffer, InPort: rng.Uint32(), Actions: randomActions(rng), Data: randomBytes(rng, 1500)}
	case 6:
		fm := &FlowMod{Cookie: rng.Uint64(), TableID: uint8(rng.Intn(4)), Command: FlowAdd, Priority: uint16(rng.Intn(1 << 16)),
			BufferID: NoBuffer, OutPort: PortAny, OutGroup: GroupAny, Match: randomMatch(rng)}
		if rng.Intn(4) > 0 {
			fm.Instructions = append(fm.Instructions, &InstrApplyActions{Actions: randomActions(rng)})
		}
		if rng.Intn(3) == 0 {
			fm.Instructions = append(fm.Instructions, &InstrGotoTable{TableID: uint8(rng.Intn(8))})
		}
		return fm
	case 7:
		return &GroupMod{Command: GroupAdd, GroupType: GroupTypeSelect, GroupID: rng.Uint32(),
			Buckets: []Bucket{{Weight: 1, WatchPort: PortAny, WatchGroup: GroupAny, Actions: randomActions(rng)}}}
	case 8:
		return &MultipartReply{MPType: MultipartFlow, Flows: []FlowStats{
			{TableID: 1, Priority: 7, PacketCount: rng.Uint64(), Match: randomMatch(rng),
				Instructions: []Instruction{&InstrWriteActions{Actions: randomActions(rng)}}},
			{TableID: 2, Match: randomMatch(rng)},
		}}
	default:
		return &FlowRemoved{Cookie: rng.Uint64(), Priority: 3, Reason: FlowRemovedIdleTimeout, Match: randomMatch(rng)}
	}
}

// TestStreamSurvivesAnyCut is the property the buffered reader and the
// merged writes rest on: whatever sequence of messages is sent, and
// however the transport splits and merges the bytes, the peer receives
// the same messages in the same order.
func TestStreamSurvivesAnyCut(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		wire := newChoppyPipe(seed)
		tx := NewConn(struct {
			io.Reader
			io.WriteCloser
		}{bytes.NewReader(nil), wire})
		rx := NewConn(wire)
		sent := make([]Message, 50+rng.Intn(200))
		go func() {
			for i := range sent {
				sent[i] = randomMessage(rng)
				if rng.Intn(8) == 0 {
					tx.Hold()
				}
				if err := tx.Send(sent[i]); err != nil {
					t.Errorf("seed %d: send %d: %v", seed, i, err)
				}
				if rng.Intn(4) == 0 {
					tx.Release()
				}
			}
			tx.Close() // flushes, then closes the pipe: the reader drains and sees EOF
		}()
		for i := 0; ; i++ {
			got, err := rx.Recv()
			if err == io.EOF && i == len(sent) {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: message %d of %d: %v", seed, i, len(sent), err)
			}
			if !reflect.DeepEqual(got, sent[i]) {
				t.Fatalf("seed %d: message %d differs:\n  sent %+v\n  got  %+v", seed, i, sent[i], got)
			}
		}
		rx.Close()
	}
}

// writeCounter counts the transport writes of one pipe end.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.Conn.Write(p)
}

// TestConnHoldFlushesOnce: what is sent between Hold and Release
// crosses the transport in one Write and arrives in one Read's worth.
func TestConnHoldFlushesOnce(t *testing.T) {
	c1, c2 := net.Pipe()
	end := &writeCounter{Conn: c1}
	conn, peer := NewConn(end), NewConn(c2)
	defer conn.Close()
	defer peer.Close()

	conn.Hold()
	for i := 0; i < 5; i++ {
		if err := conn.Send(&EchoRequest{Data: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := end.writes.Load(); n != 0 {
		t.Fatalf("%d writes while held", n)
	}
	conn.Release()
	for i := 0; i < 5; i++ {
		m, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := m.(*EchoRequest); !ok || e.Data[0] != byte(i) {
			t.Fatalf("message %d: %+v", i, m)
		}
	}
	if n := end.writes.Load(); n != 1 {
		t.Fatalf("%d writes for one held burst, want 1", n)
	}
}

// TestConnBothPeersSendBeforeReading: over an unbuffered transport two
// peers that both send first (as OpenFlow peers do with HELLO) must not
// deadlock — Send never touches the transport, the writer goroutine
// alone does.
func TestConnBothPeersSendBeforeReading(t *testing.T) {
	c1, c2 := net.Pipe()
	a, b := NewConn(c1), NewConn(c2)
	defer a.Close()
	defer b.Close()
	for _, c := range []*Conn{a, b} {
		if err := c.Send(&Hello{}); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(&FeaturesRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*Conn{a, b} {
		for _, want := range []uint8{TypeHello, TypeFeaturesRequest} {
			m, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.MsgType() != want {
				t.Fatalf("got type %d, want %d", m.MsgType(), want)
			}
		}
	}
}
