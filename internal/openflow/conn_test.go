package openflow

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestConnCloseDeliversQueuedFrames: frames accepted by Send before
// Close must reach the peer — Close flushes the unsent bytes instead
// of discarding them.
func TestConnCloseDeliversQueuedFrames(t *testing.T) {
	c1, c2 := net.Pipe()
	conn := NewConn(c1)
	peer := NewConn(c2)
	defer peer.Close()

	got := make(chan Message, 4)
	go func() {
		for {
			m, err := peer.Recv()
			if err != nil {
				close(got)
				return
			}
			got <- m
		}
	}()

	// net.Pipe is unbuffered: the writer blocks on its first flush
	// until the reader picks it up, so with several sends in flight at
	// Close time some are still in the buffer.
	for i := 0; i < 3; i++ {
		if err := conn.Send(&EchoRequest{Data: []byte{byte(i)}}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := conn.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for i := 0; i < 3; i++ {
		select {
		case m, ok := <-got:
			if !ok {
				t.Fatalf("peer saw only %d of 3 queued frames", i)
			}
			er, isEcho := m.(*EchoRequest)
			if !isEcho || len(er.Data) != 1 || er.Data[0] != byte(i) {
				t.Fatalf("frame %d: got %#v", i, m)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for queued frame %d", i)
		}
	}
}

// unsentLen reads the connection's backlog as the writer sees it.
func unsentLen(c *Conn) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buf)
}

// TestConnSendBackpressure: with maxUnsent bytes waiting Send blocks
// (flow control towards a slow peer) and Offer refuses, and Close
// releases the blocked sender with an error instead of leaking it.
func TestConnSendBackpressure(t *testing.T) {
	c1, c2 := net.Pipe() // nothing ever reads c2
	defer c2.Close()
	conn := NewConn(c1)

	// First frame: wait until the writer took it and is stuck in the
	// pipe Write, so the backlog below is exact.
	if err := conn.Send(&Hello{}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for unsentLen(conn) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first frame")
		}
		time.Sleep(time.Millisecond)
	}
	// Fill the buffer to the bound; everything beyond it must block.
	chunk := &EchoRequest{Data: make([]byte, 32<<10)}
	for i := 0; unsentLen(conn) < maxUnsent; i++ {
		if err := conn.Send(chunk); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	frame, _ := (&Hello{}).Marshal()
	if err := conn.Offer(frame); err != ErrBacklog {
		t.Fatalf("Offer at the bound = %v, want ErrBacklog", err)
	}

	blocked := make(chan error, 1)
	go func() { blocked <- conn.Send(&Hello{}) }()
	select {
	case err := <-blocked:
		t.Fatalf("send past the bound returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
		// Still blocked: backpressure is on.
	}

	go conn.Close() // Close flushes towards the dead peer, then force-closes
	select {
	case err := <-blocked:
		if err == nil {
			t.Fatal("blocked Send returned nil after Close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("blocked Send never released by Close")
	}
}

// failingRW errors every write after the first n.
type failingRW struct {
	writes atomic.Int32
	okay   int32
}

func (f *failingRW) Write(p []byte) (int, error) {
	if f.writes.Add(1) > f.okay {
		return 0, errors.New("transport broke")
	}
	return len(p), nil
}
func (f *failingRW) Read(p []byte) (int, error) { return 0, io.EOF }
func (f *failingRW) Close() error               { return nil }

// TestConnStickyWriteError: after a transport write fails, every later
// Send reports the original write error rather than silently queueing
// into a dead connection.
func TestConnStickyWriteError(t *testing.T) {
	rw := &failingRW{okay: 1}
	conn := NewConn(rw)
	if err := conn.Send(&Hello{}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	// Second frame hits the failing write; wait for the writer to
	// observe it and latch the error.
	_ = conn.Send(&Hello{})
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := conn.Send(&Hello{})
		if err != nil {
			if want := "transport broke"; !strings.Contains(err.Error(), want) {
				t.Fatalf("sticky error %q does not mention %q", err, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("write error never became sticky")
		}
		time.Sleep(time.Millisecond)
	}
	// And it stays sticky.
	if err := conn.Send(&Hello{}); err == nil {
		t.Fatal("send after sticky error succeeded")
	}
}

// closeFailing is a transport whose Close fails with err after closing.
type closeFailing struct {
	net.Conn
	err error
}

func (c closeFailing) Close() error {
	_ = c.Conn.Close()
	return c.err
}

// TestConnCloseReportsTransportError: the transport's close failure is
// what Close returns, not swallowed on the writer's way out.
func TestConnCloseReportsTransportError(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	errClose := errors.New("transport close failed")
	if err := NewConn(closeFailing{c1, errClose}).Close(); !errors.Is(err, errClose) {
		t.Errorf("Close() = %v, want the transport's %v", err, errClose)
	}
}
