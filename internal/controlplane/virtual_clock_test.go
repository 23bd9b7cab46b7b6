package controlplane

import (
	"net"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Keepalive on virtual time: with a ManualClock in the channel config,
// echo probing and dead-peer detection advance only when the clock
// does — no wall-clock waits anywhere in the liveness state machine.
func TestChannelKeepaliveOnVirtualClock(t *testing.T) {
	clock := netem.NewManualClock()
	swSide, peerSide := net.Pipe()
	set := NewChannelSet(nopDatapath{}, Config{
		EchoInterval: 5 * time.Second,
		Clock:        clock,
	})
	defer set.Close()
	ch := set.Attach(swSide)

	peer := openflow.NewConn(peerSide)
	defer peer.Close()
	msgs := make(chan openflow.Message, 16)
	readErr := make(chan error, 1)
	go func() {
		for {
			m, err := peer.Recv()
			if err != nil {
				readErr <- err
				return
			}
			msgs <- m
		}
	}()

	// Handshake on the peer side.
	select {
	case m := <-msgs:
		if _, ok := m.(*openflow.Hello); !ok {
			t.Fatalf("first message %T, want Hello", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no HELLO from the switch side")
	}
	if err := peer.Send(&openflow.Hello{}); err != nil {
		t.Fatal(err)
	}

	// No wall-clock echo: nothing arrives while virtual time stands
	// still. Then advancing one interval produces exactly the probe.
	// The ticker is armed by the serve goroutine, so step the clock
	// until the probe shows up rather than assuming it is armed.
	gotEcho := false
	for i := 0; i < 100 && !gotEcho; i++ {
		clock.Advance(5 * time.Second)
		select {
		case m := <-msgs:
			if _, ok := m.(*openflow.EchoRequest); ok {
				gotEcho = true
			}
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !gotEcho {
		t.Fatal("no ECHO_REQUEST after advancing virtual time")
	}

	// The peer goes silent; advancing past three echo intervals must
	// tear the transport down (the peer's read loop sees the close).
	deadline := time.Now().Add(10 * time.Second)
	for ch.State() == StateUp || ch.State() == StateHandshake {
		clock.Advance(5 * time.Second)
		if time.Now().After(deadline) {
			t.Fatalf("channel still %v long after the virtual timeout", ch.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case <-readErr:
	case <-time.After(5 * time.Second):
		t.Fatal("peer transport not closed by dead-peer teardown")
	}
}

// nopDatapath satisfies Datapath for channel-machinery tests.
type nopDatapath struct{}

func (nopDatapath) Features() openflow.FeaturesReply  { return openflow.FeaturesReply{} }
func (nopDatapath) Handle(*Channel, openflow.Message) {}
