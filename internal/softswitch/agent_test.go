package softswitch

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// TestPacketInDroppedAtTheBound is the failure policy for a full
// control channel, executable: a controller that stops reading costs
// its own channel packet-ins — dropped once the connection holds its
// bound of unsent bytes, and counted — and never stalls the datapath.
// When it reads again it gets exactly what was queued, and new
// packet-ins flow.
func TestPacketInDroppedAtTheBound(t *testing.T) {
	const frames = 10000
	r := newRig(t, 2)
	c1, c2 := net.Pipe()
	agent := r.sw.NewAgent(controlplane.Config{EchoInterval: -1}, 0)
	defer agent.Stop()
	ch := agent.Attach(c2)
	ctrl := openflow.NewConn(c1)
	defer ctrl.Close()
	if _, err := ctrl.Handshake(nil); err != nil {
		t.Fatal(err)
	}
	addFlow(t, r.sw, 0, 0, openflow.Match{}, &openflow.InstrApplyActions{Actions: []openflow.Action{out(openflow.PortController)}})

	// The controller reads nothing. Every frame misses; the forwarding
	// goroutine (this one) must get through all of them.
	tmpl := udpFrame(t, macA, macB, ipA, ipB, 1, 2, "no flow for this one")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sent := 0; sent < frames; sent += 32 {
			burst := make([][]byte, 32)
			for i := range burst {
				burst[i] = append([]byte(nil), tmpl...)
			}
			r.sw.ReceiveBatch(1, burst[:min(32, frames-sent)])
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the datapath stalled behind a controller that does not read")
	}
	dropped := ch.Dropped()
	if got := r.sw.PacketIns(); got != frames {
		t.Fatalf("%d packet-ins generated, want %d", got, frames)
	}
	if dropped == 0 || dropped >= frames || agent.ChannelSet().Dropped() != dropped {
		t.Fatalf("channel dropped %d of %d, set counts %d", dropped, frames, agent.ChannelSet().Dropped())
	}

	// The controller drains: what was not dropped was queued, all of it.
	var received atomic.Uint64
	go func() {
		for {
			m, err := ctrl.Recv()
			if err != nil {
				return
			}
			if _, ok := m.(*openflow.PacketIn); ok {
				received.Add(1)
			}
		}
	}()
	waitFor(t, "the queued packet-ins", func() bool { return received.Load() == frames-dropped })
	r.sw.Receive(1, append([]byte(nil), tmpl...))
	waitFor(t, "a packet-in after the backlog drained", func() bool { return received.Load() == frames-dropped+1 })
	if ch.Dropped() != dropped {
		t.Errorf("%d more drops after the controller caught up", ch.Dropped()-dropped)
	}
}
