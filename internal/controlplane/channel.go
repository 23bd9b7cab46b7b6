// Package controlplane implements the OpenFlow control-plane layer of
// HARMLESS as a first-class API, replacing the single hand-wired
// io.ReadWriteCloser the switch used to hold towards one controller.
//
// The switch side is a Channel — the connection state machine for one
// controller (HELLO handshake, echo-keepalive liveness with dead-peer
// teardown, active-connect mode with exponential-backoff redial,
// passive attach for accepted or in-memory transports) — and a
// ChannelSet that serves many concurrent controllers with OpenFlow 1.3
// role arbitration (ROLE_REQUEST/ROLE_REPLY with generation_id
// checking, MASTER/SLAVE/EQUAL, stale masters demoted) and per-role
// asynchronous-event filtering (SET_ASYNC/GET_ASYNC masks).
//
// The northbound side is Controller, a typed client over the same wire
// protocol: xid-correlated request/await-reply plumbing (AwaitBarrier,
// FlowStats, PortStats, role negotiation) plus async-event callbacks.
//
// Controller redundancy and master/slave handover are what make a
// production hybrid-SDN deployment survivable (Kreutz et al. §V.C);
// this package is what lets a HARMLESS-S4 keep forwarding through a
// controller crash and promote a standby without a flag day.
package controlplane

import (
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// State is the lifecycle position of a channel.
type State int32

// Channel states.
const (
	// StateConnecting: no transport yet (dialing, or between redials).
	StateConnecting State = iota
	// StateHandshake: transport up, our HELLO sent, peer HELLO pending.
	StateHandshake
	// StateUp: HELLO exchanged; the channel is live.
	StateUp
	// StateDown: transport lost; a dial-mode channel will redial.
	StateDown
	// StateClosed: terminal (Close called, or attach transport died).
	StateClosed
)

// String renders the state for logs.
func (s State) String() string {
	switch s {
	case StateConnecting:
		return "connecting"
	case StateHandshake:
		return "handshake"
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ErrChannelDown is returned by Send while the channel has no live
// transport.
var ErrChannelDown = fmt.Errorf("controlplane: channel down")

// Config tunes a channel's liveness probing. The zero value picks the
// defaults below.
type Config struct {
	// EchoInterval between keepalive ECHO_REQUESTs (default 5s;
	// negative disables keepalive probing entirely). The peer is
	// declared dead when nothing (echo reply or any other message) has
	// been received for deadIntervals × EchoInterval.
	EchoInterval time.Duration
	// Logger for channel lifecycle diagnostics (default: discard).
	Logger *log.Logger
	// Clock drives the keepalive timers, dead-peer idle measurement
	// and redial backoff sleeps (default: the wall clock). Inject a
	// netem.Scheduler to run the channel state machine's liveness
	// probing on virtual time.
	Clock netem.Clock
}

func (c Config) withDefaults() Config {
	if c.EchoInterval == 0 {
		c.EchoInterval = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.New(io.Discard, "", 0)
	}
	if c.Clock == nil {
		c.Clock = netem.RealClock{}
	}
	return c
}

// The redial delay in active-connect mode starts at backoffMin and
// doubles with each failed attempt up to backoffMax.
const (
	backoffMin = 50 * time.Millisecond
	backoffMax = 5 * time.Second
)

// backoff returns the delay before redial attempt n (0-based).
func backoff(attempt int) time.Duration {
	d := backoffMin
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// deadIntervals is how many echo intervals without a received message
// declare the peer dead.
const deadIntervals = 3

// keepalive probes the peer behind conn with ECHO_REQUEST every
// cfg.EchoInterval and calls dead once nothing has been received (per
// lastRx, in unix nanoseconds on cfg.Clock) for deadIntervals ×
// EchoInterval. It returns then, or when stop or done closes. Both ends
// of a channel run it.
func keepalive(cfg Config, conn *openflow.Conn, lastRx *atomic.Int64, stop, done <-chan struct{}, dead func(idle time.Duration)) {
	if cfg.EchoInterval < 0 {
		return
	}
	t := netem.NewTicker(cfg.Clock, cfg.EchoInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-done:
			return
		case <-t.C:
			idle := cfg.Clock.Now().Sub(time.Unix(0, lastRx.Load()))
			if idle > deadIntervals*cfg.EchoInterval {
				dead(idle)
				return
			}
			_ = conn.Send(&openflow.EchoRequest{})
		}
	}
}

// Endpoint names one controller a switch should keep a channel to:
// either an address to dial (active-connect with backoff redial) or an
// already-established transport (accepted TCP conn, net.Pipe end).
type Endpoint struct {
	Addr string
	Conn io.ReadWriteCloser
}

// Channel is the switch side of one OpenFlow control connection. A
// channel belongs to a ChannelSet, which arbitrates controller roles
// across all channels of the switch; per-channel state is the
// transport, the negotiated role, and the async-event filter masks.
type Channel struct {
	set  *ChannelSet
	cfg  Config
	addr string // non-empty: active-connect mode, redial forever

	state   atomic.Int32
	redials atomic.Uint64 // dial attempts after the first
	dropped atomic.Uint64 // async events refused at the send bound
	lastRx  atomic.Int64  // unixnano of the last received message

	mu    sync.Mutex
	conn  *openflow.Conn // nil while no transport
	role  uint32
	async openflow.AsyncConfig

	done      chan struct{} // closed when the channel is terminal
	closeOnce sync.Once
}

func newChannel(set *ChannelSet, addr string) *Channel {
	c := &Channel{
		set:   set,
		cfg:   set.cfg,
		addr:  addr,
		role:  openflow.RoleEqual,
		async: openflow.DefaultAsyncConfig(),
		done:  make(chan struct{}),
	}
	c.state.Store(int32(StateConnecting))
	return c
}

// State returns the channel's lifecycle state.
func (c *Channel) State() State { return State(c.state.Load()) }

// Role returns the controller role currently held by this connection.
func (c *Channel) Role() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Redials returns the number of reconnect attempts made after the
// initial one (active-connect mode only).
func (c *Channel) Redials() uint64 { return c.redials.Load() }

// Dropped returns the number of asynchronous events (packet-in,
// flow-removed, port-status) this channel's controller was owed and did
// not get because it had stopped reading: see ChannelSet.Broadcast.
func (c *Channel) Dropped() uint64 { return c.dropped.Load() }

// RemoteAddr returns the dial address (active mode) or "" for attached
// transports.
func (c *Channel) RemoteAddr() string { return c.addr }

// Send queues m on the channel's transport. It waits while the
// connection's bound of unsent bytes is reached: replies are flow
// controlled, not dropped.
func (c *Channel) Send(m openflow.Message) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return ErrChannelDown
	}
	return conn.Send(m)
}

// offer queues an encoded asynchronous event. It never waits: at the
// connection's bound the event is dropped for this channel and counted.
func (c *Channel) offer(event []byte) bool {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil {
		return false
	}
	err := conn.Offer(event)
	if err == openflow.ErrBacklog {
		c.dropped.Add(1)
		c.set.dropped.Add(1)
	}
	return err == nil
}

// Reply sends resp echoing req's transaction id.
func (c *Channel) Reply(req, resp openflow.Message) error {
	resp.SetXID(req.XID())
	return c.Send(resp)
}

// SendError reports a failure for req back to the controller, quoting
// the first bytes of the offending message as the spec asks.
func (c *Channel) SendError(req openflow.Message, errType, code uint16) {
	data, _ := req.Marshal()
	if len(data) > 64 {
		data = data[:64]
	}
	e := &openflow.Error{ErrType: errType, Code: code, Data: data}
	e.SetXID(req.XID())
	_ = c.Send(e)
}

// Close terminates the channel: the transport is torn down and, in
// active-connect mode, no further redials happen.
func (c *Channel) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.state.Store(int32(StateClosed))
		c.mu.Lock()
		conn := c.conn
		c.conn = nil
		c.mu.Unlock()
		if conn != nil {
			// The error is dropped: the channel is already marked closed, and
			// the transport close error has no consumer and cannot affect
			// protocol state.
			conn.Close()
		}
		c.set.remove(c)
	})
}

func (c *Channel) closed() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// setRole is called under the set's role lock.
func (c *Channel) setRole(role uint32) {
	c.mu.Lock()
	c.role = role
	c.mu.Unlock()
}

// wantsAsync applies the per-role async filter masks.
func (c *Channel) wantsAsync(msgType, reason uint8) bool {
	if c.State() != StateUp {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.async.Wants(c.role, msgType, reason)
}

// runAttach serves one already-established transport; the channel is
// terminal when it dies.
func (c *Channel) runAttach(rw io.ReadWriteCloser) {
	c.serve(rw)
	c.Close()
}

// dialTimeout bounds one TCP connect attempt.
const dialTimeout = 3 * time.Second

// runDial is the active-connect loop: dial, serve, and on transport
// loss redial with exponential backoff, forever until Close.
func (c *Channel) runDial() {
	attempt := 0
	for !c.closed() {
		c.state.Store(int32(StateConnecting))
		rw, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			c.cfg.Logger.Printf("controlplane: dial %s: %v (retry in %v)", c.addr, err, backoff(attempt))
			if !c.sleep(backoff(attempt)) {
				return
			}
			attempt++
			c.redials.Add(1)
			continue
		}
		attempt = 0
		c.serve(rw)
		if c.closed() {
			return
		}
		c.cfg.Logger.Printf("controlplane: channel to %s lost, redialing", c.addr)
		if !c.sleep(backoff(0)) {
			return
		}
		c.redials.Add(1)
	}
}

// sleep waits d on the configured clock or until the channel closes;
// false means closed.
func (c *Channel) sleep(d time.Duration) bool {
	t := netem.NewTimer(c.cfg.Clock, d)
	defer t.Stop()
	select {
	case <-c.done:
		return false
	case <-t.C:
		return true
	}
}

// serve runs one transport to completion: HELLO, then the read loop
// with keepalive, returning when the transport dies.
func (c *Channel) serve(rw io.ReadWriteCloser) {
	conn := openflow.NewConn(rw)
	c.mu.Lock()
	if c.closed() {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.conn = conn
	// A fresh transport renegotiates from scratch: EQUAL role and
	// default async masks, per the spec's connection-start state.
	c.role = openflow.RoleEqual
	c.async = openflow.DefaultAsyncConfig()
	c.mu.Unlock()
	c.lastRx.Store(c.cfg.Clock.Now().UnixNano())
	c.state.Store(int32(StateHandshake))

	if err := conn.Send(&openflow.Hello{}); err == nil {
		stopKeep := make(chan struct{})
		// A dead peer's transport is closed: the read loop below then
		// unblocks and the channel redials (active mode) or ends.
		go keepalive(c.cfg, conn, &c.lastRx, stopKeep, c.done, func(idle time.Duration) {
			c.cfg.Logger.Printf("controlplane: peer dead (%v since last rx), tearing channel down", idle)
			conn.Close()
		})
		for {
			m, err := conn.Recv()
			if err != nil {
				break
			}
			c.lastRx.Store(c.cfg.Clock.Now().UnixNano())
			// What the dispatch sends — a reply, the packet-ins a
			// packet-out provokes — leaves in one write when it returns.
			conn.Hold()
			c.dispatch(m)
			conn.Release()
		}
		close(stopKeep)
	}
	conn.Close()
	c.mu.Lock()
	c.conn = nil
	c.mu.Unlock()
	if !c.closed() {
		c.state.Store(int32(StateDown))
	}
}

// dispatch handles the messages the channel state machine owns and
// forwards the rest to the datapath.
func (c *Channel) dispatch(m openflow.Message) {
	switch t := m.(type) {
	case *openflow.Hello:
		c.state.Store(int32(StateUp))
	case *openflow.EchoRequest:
		_ = c.Reply(m, &openflow.EchoReply{Data: t.Data})
	case *openflow.EchoReply:
		// Liveness already refreshed by the read loop.
	case *openflow.FeaturesRequest:
		f := c.set.dp.Features()
		_ = c.Reply(m, &f)
	case *openflow.RoleRequest:
		c.set.handleRoleRequest(c, t)
	case *openflow.SetAsync:
		c.mu.Lock()
		c.async = t.AsyncConfig
		c.mu.Unlock()
	case *openflow.GetAsyncRequest:
		c.mu.Lock()
		cfg := c.async
		c.mu.Unlock()
		_ = c.Reply(m, &openflow.GetAsyncReply{AsyncConfig: cfg})
	default:
		c.set.dp.Handle(c, m)
	}
}
