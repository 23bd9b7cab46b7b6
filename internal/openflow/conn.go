package openflow

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Conn frames OpenFlow messages over a byte stream and assigns
// transaction ids. Send encodes straight into the connection's buffer
// of unsent bytes; a dedicated writer goroutine — the only code that
// touches the transport's write side — swaps that buffer out and hands
// it to the transport in one Write, however many messages it holds. So
// Send never blocks on the transport itself (both OpenFlow peers send
// HELLO before reading; over an unbuffered transport like net.Pipe
// synchronous writes would deadlock), only at maxUnsent. Recv reads
// through one buffered reader: one transport Read per arriving Write,
// however many messages that holds. Reads and writes may proceed
// concurrently; Recv itself is for one goroutine.
type Conn struct {
	rw io.ReadWriteCloser
	br *bufio.Reader

	mu     sync.Mutex
	unsent sync.Cond // the writer waits here for bytes it may flush
	room   sync.Cond // senders wait here while buf is at maxUnsent
	buf    []byte    // encoded messages not yet handed to the transport
	held   bool      // between Hold and Release: the writer lets buf grow
	closed bool
	err    error // the write error that ended the writer; fails later Sends

	writerDone  chan struct{}
	closeErr    error       // transport Close result; read after writerDone
	forceClosed atomic.Bool // Close abandoned a stuck flush and closed rw itself
	nextXID     atomic.Uint32
}

// maxUnsent bounds the encoded bytes waiting for the writer. At the
// bound Send blocks (flow control towards a peer that reads slowly) and
// Offer refuses. A message is admitted whole while the backlog is under
// the bound, so the buffer can exceed it by one message.
const maxUnsent = 256 << 10

// recvBufLen sizes the read buffer: what one flush usually carries, so
// that it arrives in one transport Read.
const recvBufLen = 16 << 10

// recvTailroom is the spare capacity behind every received frame. The
// payload that ends a message inherits it, so the datapath, which owns
// a PACKET_OUT's data, can push a VLAN tag onto it in place.
const recvTailroom = 32

// closeFlushTimeout bounds how long Close waits for the writer to
// flush unsent bytes towards a peer that has stopped reading.
const closeFlushTimeout = time.Second

// ErrBacklog is returned by Offer while maxUnsent bytes are waiting
// for a peer that is not reading them.
var ErrBacklog = errors.New("openflow: send backlog full")

var errClosed = errors.New("openflow: connection closed")

// NewConn wraps a transport (TCP connection or net.Pipe end) and
// starts its writer.
func NewConn(rw io.ReadWriteCloser) *Conn {
	c := &Conn{
		rw:         rw,
		br:         bufio.NewReaderSize(rw, recvBufLen),
		writerDone: make(chan struct{}),
	}
	c.unsent.L, c.room.L = &c.mu, &c.mu
	c.nextXID.Store(1)
	go c.writer()
	return c
}

// writer flushes buf to the transport, one Write per flush, until the
// connection is closed and drained or a Write fails. It keeps two
// buffers and swaps them with the senders', so a steady connection
// allocates nothing.
func (c *Conn) writer() {
	defer close(c.writerDone)
	var out []byte
	c.mu.Lock()
	for {
		for !c.closed && (len(c.buf) == 0 || c.held && len(c.buf) < maxUnsent) {
			c.unsent.Wait()
		}
		if len(c.buf) == 0 {
			break // closed, and everything sent before Close is out
		}
		out, c.buf = c.buf, out[:0]
		c.room.Broadcast()
		c.mu.Unlock()
		_, err := c.rw.Write(out)
		c.mu.Lock()
		if err != nil {
			c.err = fmt.Errorf("openflow: write: %w", err)
			c.closed = true
			c.room.Broadcast()
			break
		}
	}
	c.mu.Unlock()
	// Close the transport from here, keeping the result for Close() —
	// unless Close() already force-closed it, in which case this second
	// Close's inevitable "already closed" error is noise.
	err := c.rw.Close()
	if !c.forceClosed.Load() {
		c.closeErr = err
	}
}

// AllocXID returns a fresh transaction id.
func (c *Conn) AllocXID() uint32 { return c.nextXID.Add(1) }

// admit waits (or, with wait false, declines to) until the backlog is
// under maxUnsent. The caller holds mu.
func (c *Conn) admit(wait bool) error {
	for {
		switch {
		case c.err != nil:
			return c.err
		case c.closed:
			return errClosed
		case len(c.buf) < maxUnsent:
			return nil
		case !wait:
			return ErrBacklog
		}
		c.room.Wait()
	}
}

// queued tells the writer that buf grew. The caller holds mu.
func (c *Conn) queued() {
	if !c.held || len(c.buf) >= maxUnsent {
		c.unsent.Signal()
	}
}

// Send encodes m into the connection's buffer for the writer to flush,
// assigning a transaction id if unset. It returns at once unless
// maxUnsent bytes are already waiting; an error is returned if the
// connection is closed or a previous write failed.
func (c *Conn) Send(m Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.admit(true); err != nil {
		return err
	}
	if m.XID() == 0 {
		m.SetXID(c.AllocXID())
	}
	buf, err := m.AppendTo(c.buf)
	if err != nil {
		return err
	}
	c.buf = buf
	c.queued()
	return nil
}

// Offer queues one or more already encoded messages like Send, except
// that it never waits: at the bound it returns ErrBacklog and queues
// nothing. It is for events fanned out to several connections from a
// goroutine that must not stall on any of them.
func (c *Conn) Offer(frames []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.admit(false); err != nil {
		return err
	}
	c.buf = append(c.buf, frames...)
	c.queued()
	return nil
}

// Hold makes the writer leave what is sent from now on in the buffer
// until Release, so that it goes out together, in one Write. A read
// loop holds for the length of one dispatch: the messages a handler
// sends in answer to one received message then cross the transport as
// one. A buffer that reaches maxUnsent is flushed regardless. Hold and
// Release are for the goroutine that calls Recv.
func (c *Conn) Hold() {
	c.mu.Lock()
	c.held = true
	c.mu.Unlock()
}

// Release ends a Hold and lets the writer flush.
func (c *Conn) Release() {
	c.mu.Lock()
	c.held = false
	if len(c.buf) > 0 {
		c.unsent.Signal()
	}
	c.mu.Unlock()
}

// Recv reads the next message (blocking). The message owns the frame
// it was decoded from.
func (c *Conn) Recv() (Message, error) {
	hdr, err := c.br.Peek(HeaderLen)
	if err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[2:4]))
	if n < HeaderLen {
		return nil, fmt.Errorf("openflow: bad length %d", n)
	}
	frame := make([]byte, n, n+recvTailroom)
	if _, err := io.ReadFull(c.br, frame); err != nil {
		return nil, err
	}
	return Parse(frame)
}

// Close flushes what Send has queued, then tears down the transport.
// Safe to call multiple times and from multiple goroutines. If the
// peer has stopped reading, the flush is abandoned after
// closeFlushTimeout and the transport is closed underneath it.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.unsent.Signal()
	c.room.Broadcast()
	c.mu.Unlock()
	select {
	case <-c.writerDone:
	case <-time.After(closeFlushTimeout):
		// The flush is stuck in a blocking Write; closing the transport
		// under it unblocks the writer (net.Conn and net.Pipe both
		// return from Write when closed concurrently). The abandon is
		// deliberate, so the writer's follow-up close error is not
		// reported as a Close failure.
		c.forceClosed.Store(true)
		// The error is dropped: the abandon is deliberate (above), and the
		// writer's own close outcome lands in closeErr.
		_ = c.rw.Close()
		<-c.writerDone
	}
	return c.closeErr
}

// Handshake performs the controller-side HELLO + FEATURES exchange and
// returns the switch's features. Any asynchronous message arriving
// during the handshake is delivered to early (may be nil).
func (c *Conn) Handshake(early func(Message)) (*FeaturesReply, error) {
	if err := c.Send(&Hello{}); err != nil {
		return nil, err
	}
	// Wait for the peer's HELLO.
	for {
		m, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if m.MsgType() == TypeHello {
			break
		}
		if e, ok := m.(*Error); ok {
			return nil, e
		}
		if early != nil {
			early(m)
		}
	}
	if err := c.Send(&FeaturesRequest{}); err != nil {
		return nil, err
	}
	for {
		m, err := c.Recv()
		if err != nil {
			return nil, err
		}
		switch t := m.(type) {
		case *FeaturesReply:
			return t, nil
		case *Error:
			return nil, t
		case *EchoRequest:
			if err := c.Send(&EchoReply{Data: t.Data, xid: xid{Xid: t.Xid}}); err != nil {
				return nil, err
			}
		default:
			if early != nil {
				early(m)
			}
		}
	}
}
