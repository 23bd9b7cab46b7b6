package controlplane

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Events carries the asynchronous-message callbacks of a Controller.
// Nil fields drop the event. Callbacks run on the client's read loop,
// which holds the connection's flush until the callback returns: keep
// them short, and hand off before waiting for a reply.
type Events struct {
	PacketIn    func(*openflow.PacketIn)
	FlowRemoved func(*openflow.FlowRemoved)
	PortStatus  func(*openflow.PortStatus)
	// SwitchError receives ERROR messages not correlated to a pending
	// request (e.g. a rejected flow-mod that was fire-and-forget).
	SwitchError func(*openflow.Error)
}

// Controller is the typed northbound client: the controller side of
// one OpenFlow channel with request/await-reply plumbing correlated by
// transaction id. It is the tree's only controller-side session; the
// app controller (package controller) and Pair are built on it.
type Controller struct {
	cfg      Config
	events   Events
	conn     *openflow.Conn
	features *openflow.FeaturesReply
	lastRx   atomic.Int64

	mu      sync.Mutex
	pending map[uint32]chan openflow.Message
	err     error

	done      chan struct{}
	closeOnce sync.Once
}

// Connect performs the controller-side HELLO/FEATURES handshake over
// an established transport and starts the event loop (with keepalive
// probing per cfg). Messages arriving during the handshake are queued
// and dispatched once the loop runs.
func Connect(rw io.ReadWriteCloser, cfg Config, events Events) (*Controller, error) {
	c := &Controller{
		cfg:     cfg.withDefaults(),
		events:  events,
		conn:    openflow.NewConn(rw),
		pending: make(map[uint32]chan openflow.Message),
		done:    make(chan struct{}),
	}
	var early []openflow.Message
	features, err := c.conn.Handshake(func(m openflow.Message) { early = append(early, m) })
	if err != nil {
		c.conn.Close()
		return nil, fmt.Errorf("controlplane: handshake: %w", err)
	}
	c.features = features
	c.lastRx.Store(c.cfg.Clock.Now().UnixNano())
	for _, m := range early {
		c.dispatch(m)
	}
	go c.readLoop()
	go keepalive(c.cfg, c.conn, &c.lastRx, nil, c.done, func(idle time.Duration) {
		c.CloseWithError(fmt.Errorf("controlplane: switch dead (%v since last rx)", idle))
	})
	return c, nil
}

// Features returns the switch identity from the handshake.
func (c *Controller) Features() *openflow.FeaturesReply { return c.features }

// DPID returns the switch's datapath id.
func (c *Controller) DPID() uint64 { return c.features.DatapathID }

// Done is closed when the channel dies (transport loss, dead peer, or
// Close); Err then reports why.
func (c *Controller) Done() <-chan struct{} { return c.done }

// Err returns the terminal channel error (nil while live or after a
// clean Close).
func (c *Controller) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the channel down and returns the transport's close
// error, if any.
func (c *Controller) Close() error {
	return c.CloseWithError(nil)
}

// CloseWithError shuts the controller down once, recording err as the
// terminal cause Err reports. It returns the transport's close error
// (nil when a prior shutdown already ran).
func (c *Controller) CloseWithError(err error) error {
	var cerr error
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.err = err
		c.mu.Unlock()
		close(c.done)
		cerr = c.conn.Close()
	})
	return cerr
}

// Send queues a message without awaiting any reply.
func (c *Controller) Send(m openflow.Message) error { return c.conn.Send(m) }

// FlowMod sends a flow-mod, defaulting the no-op wildcards the wire
// format needs (NoBuffer / PortAny / GroupAny) when left zero. Zero is
// safe as the "unset" sentinel for all three: 0 is not a valid port or
// group number, and the softswitch buffer pool never allocates buffer
// id 0.
func (c *Controller) FlowMod(fm *openflow.FlowMod) error {
	if fm.BufferID == 0 {
		fm.BufferID = openflow.NoBuffer
	}
	if fm.OutPort == 0 {
		fm.OutPort = openflow.PortAny
	}
	if fm.OutGroup == 0 {
		fm.OutGroup = openflow.GroupAny
	}
	return c.conn.Send(fm)
}

// Request sends m and awaits the reply bearing the same transaction
// id. An ERROR reply with that id is returned as the error (typed
// *openflow.Error).
func (c *Controller) Request(ctx context.Context, m openflow.Message) (openflow.Message, error) {
	if m.XID() == 0 {
		m.SetXID(c.conn.AllocXID())
	}
	ch := make(chan openflow.Message, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[m.XID()] = ch
	c.mu.Unlock()
	unregister := func() {
		c.mu.Lock()
		delete(c.pending, m.XID())
		c.mu.Unlock()
	}
	if err := c.conn.Send(m); err != nil {
		unregister()
		return nil, err
	}
	select {
	case resp := <-ch:
		if e, ok := resp.(*openflow.Error); ok {
			return nil, e
		}
		return resp, nil
	case <-ctx.Done():
		unregister()
		return nil, ctx.Err()
	case <-c.done:
		if err := c.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("controlplane: channel closed")
	}
}

// AwaitBarrier sends a BARRIER_REQUEST and blocks until its reply: the
// switch has processed everything sent before it.
func (c *Controller) AwaitBarrier(ctx context.Context) error {
	_, err := c.Request(ctx, &openflow.BarrierRequest{})
	return err
}

// Multipart issues one multipart request and returns its reply.
func (c *Controller) Multipart(ctx context.Context, req *openflow.MultipartRequest) (*openflow.MultipartReply, error) {
	resp, err := c.Request(ctx, req)
	if err != nil {
		return nil, err
	}
	mp, ok := resp.(*openflow.MultipartReply)
	if !ok {
		return nil, fmt.Errorf("controlplane: unexpected %T to multipart request", resp)
	}
	return mp, nil
}

// FlowStats fetches flow statistics (openflow.TableAll for all
// tables).
func (c *Controller) FlowStats(ctx context.Context, tableID uint8) ([]openflow.FlowStats, error) {
	mp, err := c.Multipart(ctx, &openflow.MultipartRequest{
		MPType: openflow.MultipartFlow,
		Flow:   &openflow.FlowStatsRequest{TableID: tableID, OutPort: openflow.PortAny, OutGroup: openflow.GroupAny},
	})
	if err != nil {
		return nil, err
	}
	return mp.Flows, nil
}

// PortStats fetches the per-port datapath counters.
func (c *Controller) PortStats(ctx context.Context) ([]openflow.PortStats, error) {
	mp, err := c.Multipart(ctx, &openflow.MultipartRequest{MPType: openflow.MultipartPortStats})
	if err != nil {
		return nil, err
	}
	return mp.Ports, nil
}

// RequestRole negotiates this connection's controller role and returns
// the role and generation id the switch settled on. A stale generation
// id surfaces as an *openflow.Error with ErrTypeRoleRequestFailed.
func (c *Controller) RequestRole(ctx context.Context, role uint32, generationID uint64) (uint32, uint64, error) {
	resp, err := c.Request(ctx, &openflow.RoleRequest{Role: role, GenerationID: generationID})
	if err != nil {
		return 0, 0, err
	}
	rr, ok := resp.(*openflow.RoleReply)
	if !ok {
		return 0, 0, fmt.Errorf("controlplane: unexpected %T to role request", resp)
	}
	return rr.Role, rr.GenerationID, nil
}

func (c *Controller) readLoop() {
	for {
		m, err := c.conn.Recv()
		if err != nil {
			c.CloseWithError(fmt.Errorf("controlplane: channel read: %w", err))
			return
		}
		c.lastRx.Store(c.cfg.Clock.Now().UnixNano())
		// What an event callback sends (FLOW_MOD + PACKET_OUT for one
		// PACKET_IN) leaves in one write when it returns.
		c.conn.Hold()
		c.dispatch(m)
		c.conn.Release()
	}
}

// dispatch routes one received message: solicited reply types resolve
// by transaction id; async types go to the event callbacks. Async
// events are never matched against pending xids, so a switch reusing a
// transaction id for a packet-in cannot steal a request's reply.
func (c *Controller) dispatch(m openflow.Message) {
	switch t := m.(type) {
	case *openflow.EchoRequest:
		reply := &openflow.EchoReply{Data: t.Data}
		reply.SetXID(t.XID())
		_ = c.conn.Send(reply)
	case *openflow.EchoReply, *openflow.Hello:
		// Liveness only.
	case *openflow.BarrierReply, *openflow.MultipartReply, *openflow.RoleReply, *openflow.GetAsyncReply, *openflow.FeaturesReply:
		c.resolve(m)
	case *openflow.Error:
		if !c.resolve(m) && c.events.SwitchError != nil {
			c.events.SwitchError(t)
		}
	case *openflow.PacketIn:
		if c.events.PacketIn != nil {
			c.events.PacketIn(t)
		}
	case *openflow.FlowRemoved:
		if c.events.FlowRemoved != nil {
			c.events.FlowRemoved(t)
		}
	case *openflow.PortStatus:
		if c.events.PortStatus != nil {
			c.events.PortStatus(t)
		}
	}
}

// resolve hands a solicited reply to its waiting Request.
func (c *Controller) resolve(m openflow.Message) bool {
	c.mu.Lock()
	ch, ok := c.pending[m.XID()]
	if ok {
		delete(c.pending, m.XID())
	}
	c.mu.Unlock()
	if ok {
		ch <- m
	}
	return ok
}
