package controlplane

import (
	"io"
	"net"
	"sync"
	"sync/atomic"

	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Datapath is the switch-side message sink a ChannelSet serves.
// HELLO, ECHO, FEATURES, ROLE and async-config messages never reach
// Handle — the channel state machine consumes them; everything else
// (flow-mods, packet-outs, barriers, multipart requests, ...) is
// delivered with the originating channel so replies and role checks
// can be made per connection. Handle may be called concurrently from
// different channels' read loops.
type Datapath interface {
	// Features returns the FEATURES_REPLY body sent during handshakes.
	Features() openflow.FeaturesReply
	// Handle processes one controller-to-switch message.
	Handle(ch *Channel, m openflow.Message)
}

// ChannelSet is the switch side of the multi-controller control plane:
// it owns one Channel per controller connection and arbitrates the
// OpenFlow 1.3 role state machine across them — at most one MASTER,
// any number of SLAVEs and EQUALs, with a monotonically checked
// generation_id so a partitioned ex-master cannot reclaim mastership
// with a stale election epoch.
type ChannelSet struct {
	cfg Config
	dp  Datapath

	xids    atomic.Uint32 // xid space for broadcast async events
	dropped atomic.Uint64 // async events refused at a channel's send bound

	mu         sync.Mutex
	channels   map[*Channel]struct{}
	event      []byte // Broadcast's scratch: the event in hand, encoded
	listeners  []net.Listener
	generation uint64
	genValid   bool
	closed     bool
}

// NewChannelSet creates an empty set serving dp. Attach, Dial and
// Listen add controller connections.
func NewChannelSet(dp Datapath, cfg Config) *ChannelSet {
	return &ChannelSet{
		cfg:      cfg.withDefaults(),
		dp:       dp,
		channels: make(map[*Channel]struct{}),
	}
}

// Attach serves a controller over an established transport (accepted
// TCP conn or net.Pipe end). The channel terminates when the transport
// dies.
func (s *ChannelSet) Attach(rw io.ReadWriteCloser) *Channel {
	c := newChannel(s, "")
	if !s.add(c) {
		c.Close()
		return c
	}
	go c.runAttach(rw)
	return c
}

// Dial keeps an active-connect channel towards addr: connect, serve,
// and on loss redial with exponential backoff until the channel (or
// the set) is closed.
func (s *ChannelSet) Dial(addr string) *Channel {
	c := newChannel(s, addr)
	if !s.add(c) {
		c.Close()
		return c
	}
	go c.runDial()
	return c
}

// Listen serves controllers connecting to l (the switch side of
// passive mode, like an OVS "ptcp:" bridge controller) until l or the
// set closes.
func (s *ChannelSet) Listen(l net.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return
	}
	s.listeners = append(s.listeners, l)
	s.mu.Unlock()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			s.Attach(conn)
		}
	}()
}

func (s *ChannelSet) add(c *Channel) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.channels[c] = struct{}{}
	return true
}

func (s *ChannelSet) remove(c *Channel) {
	s.mu.Lock()
	delete(s.channels, c)
	s.mu.Unlock()
}

// Channels snapshots the live channels.
func (s *ChannelSet) Channels() []*Channel {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Channel, 0, len(s.channels))
	for c := range s.channels {
		out = append(out, c)
	}
	return out
}

// Close terminates every channel and stops all listeners.
func (s *ChannelSet) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	listeners := s.listeners
	s.listeners = nil
	chans := make([]*Channel, 0, len(s.channels))
	for c := range s.channels {
		chans = append(chans, c)
	}
	s.mu.Unlock()
	for _, l := range listeners {
		// The error is dropped: net.Listener close errors have no consumer
		// here, and each channel closes itself below.
		l.Close()
	}
	for _, c := range chans {
		c.Close()
	}
}

// Broadcast fans an asynchronous event (packet-in, flow-removed,
// port-status) out to every channel whose role and async masks accept
// the message's reason code; it returns how many channels took it.
// The spec's default masks deliver to masters and equals only (slaves
// still see port-status). The event is encoded once and its bytes
// appended to each taker's connection buffer.
//
// Broadcast runs on the datapath's forwarding goroutines, so it never
// waits for a controller: a channel whose connection already holds its
// bound of unsent bytes — the controller has stopped reading — loses
// the event, and the loss is counted (Channel.Dropped, Dropped).
func (s *ChannelSet) Broadcast(m openflow.Message, reason uint8) int {
	if m.XID() == 0 {
		m.SetXID(s.xids.Add(1))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var event []byte
	n := 0
	for c := range s.channels {
		if !c.wantsAsync(m.MsgType(), reason) {
			continue
		}
		if event == nil {
			var err error
			if event, err = m.AppendTo(s.event[:0]); err != nil {
				return 0
			}
			s.event = event
		}
		if c.offer(event) {
			n++
		}
	}
	return n
}

// Dropped returns how many asynchronous events the set's channels,
// past and present, lost at their send bound.
func (s *ChannelSet) Dropped() uint64 { return s.dropped.Load() }

// handleRoleRequest runs the role arbitration state machine for one
// ROLE_REQUEST (OF1.3 §6.3.5): generation_id is checked against the
// highest seen using circular comparison, a new MASTER silently
// demotes the previous one to SLAVE, and the reply reports the role
// actually held.
func (s *ChannelSet) handleRoleRequest(c *Channel, req *openflow.RoleRequest) {
	s.mu.Lock()
	switch req.Role {
	case openflow.RoleNoChange:
		// Query only.
	case openflow.RoleEqual:
		c.setRole(openflow.RoleEqual)
	case openflow.RoleMaster, openflow.RoleSlave:
		if s.genValid && int64(req.GenerationID-s.generation) < 0 {
			s.mu.Unlock()
			c.SendError(req, openflow.ErrTypeRoleRequestFailed, openflow.RoleRequestFailedStale)
			return
		}
		s.generation, s.genValid = req.GenerationID, true
		if req.Role == openflow.RoleMaster {
			for other := range s.channels {
				if other != c && other.Role() == openflow.RoleMaster {
					other.setRole(openflow.RoleSlave)
				}
			}
		}
		c.setRole(req.Role)
	default:
		s.mu.Unlock()
		c.SendError(req, openflow.ErrTypeRoleRequestFailed, openflow.RoleRequestFailedBadRole)
		return
	}
	gen := s.generation
	s.mu.Unlock()
	_ = c.Reply(req, &openflow.RoleReply{Role: c.Role(), GenerationID: gen})
}
