package softswitch

import (
	"io"
	"net"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/flowtable"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// Agent is the switch side of the OpenFlow control plane: it serves
// any number of concurrent controller channels through a
// controlplane.ChannelSet (HELLO/FEATURES handshake, echo keepalive,
// MASTER/SLAVE/EQUAL role arbitration), applies controller messages to
// the datapath, and fans asynchronous events (packet-in, flow-removed,
// port-status) out to the channels whose role and async masks accept
// them.
type Agent struct {
	sw       *Switch
	set      *controlplane.ChannelSet
	done     chan struct{}
	stopOnce sync.Once
}

// NewAgent creates the switch's control-plane agent without any
// controller attached; use Attach/Dial/Listen to add channels. A
// periodic flow-expiry sweep runs while the agent is up
// (sweepInterval <= 0 disables it; tests with manual clocks call
// SweepExpired directly).
func (s *Switch) NewAgent(cfg controlplane.Config, sweepInterval time.Duration) *Agent {
	a := &Agent{sw: s, done: make(chan struct{})}
	a.set = controlplane.NewChannelSet(a, cfg)
	s.agentMu.Lock()
	s.agent = a
	s.agentMu.Unlock()
	if sweepInterval > 0 {
		go a.sweeper(sweepInterval)
	}
	return a
}

// StartAgent connects the switch to a single controller over an
// established transport and serves the channel until the transport
// fails or Stop is called (the single-controller convenience around
// NewAgent + Attach).
func (s *Switch) StartAgent(rw io.ReadWriteCloser, sweepInterval time.Duration) *Agent {
	a := s.NewAgent(controlplane.Config{}, sweepInterval)
	a.Attach(rw)
	return a
}

// Attach serves a controller over an established transport (accepted
// TCP conn or net.Pipe end).
func (a *Agent) Attach(rw io.ReadWriteCloser) *controlplane.Channel {
	return a.set.Attach(rw)
}

// Dial keeps an active-connect channel towards a controller address,
// redialing with exponential backoff across controller restarts.
func (a *Agent) Dial(addr string) *controlplane.Channel {
	return a.set.Dial(addr)
}

// Listen accepts controller connections on l (passive mode).
func (a *Agent) Listen(l net.Listener) {
	a.set.Listen(l)
}

// Channels snapshots the live controller channels.
func (a *Agent) Channels() []*controlplane.Channel { return a.set.Channels() }

// ChannelSet exposes the underlying channel set (role queries,
// broadcast).
func (a *Agent) ChannelSet() *controlplane.ChannelSet { return a.set }

// Stop tears every controller channel down. Safe to call multiple
// times and from multiple goroutines.
func (a *Agent) Stop() {
	a.stopOnce.Do(func() {
		close(a.done)
		a.set.Close()
		a.sw.agentMu.Lock()
		if a.sw.agent == a {
			a.sw.agent = nil
		}
		a.sw.agentMu.Unlock()
	})
}

// sweeper drives periodic flow expiry on the switch's clock: wall
// time normally, virtual time when the switch was built WithClock on a
// netem.Scheduler (the fleet simulator's idle aging).
func (a *Agent) sweeper(interval time.Duration) {
	t := netem.NewTicker(a.sw.clock, interval)
	defer t.Stop()
	for {
		select {
		case <-a.done:
			return
		case <-t.C:
			a.sw.SweepExpired()
		}
	}
}

// Features implements controlplane.Datapath.
func (a *Agent) Features() openflow.FeaturesReply {
	return openflow.FeaturesReply{
		DatapathID:   a.sw.dpid,
		NBuffers:     a.sw.buffers.size,
		NTables:      uint8(len(a.sw.tables)),
		Capabilities: openflow.CapFlowStats | openflow.CapTableStats | openflow.CapPortStats | openflow.CapGroupStats,
	}
}

// Handle implements controlplane.Datapath: it dispatches one
// controller message against the datapath. State-changing messages
// from a SLAVE controller are rejected with OFPBRC_IS_SLAVE, as the
// role model requires.
func (a *Agent) Handle(ch *controlplane.Channel, m openflow.Message) {
	switch m.(type) {
	case *openflow.FlowMod, *openflow.GroupMod, *openflow.MeterMod, *openflow.PacketOut:
		if ch.Role() == openflow.RoleSlave {
			ch.SendError(m, openflow.ErrTypeBadRequest, openflow.BadRequestIsSlave)
			return
		}
	}
	switch t := m.(type) {
	case *openflow.FlowMod:
		removed, err := a.sw.ApplyFlowMod(t)
		if err != nil {
			ch.SendError(m, openflow.ErrTypeFlowModFailed, flowModErrCode(err))
			return
		}
		for _, r := range removed {
			a.sendFlowRemoved(r)
		}
		// A flow-mod referencing a buffered packet releases it through
		// the new state, from the port it arrived on.
		if t.BufferID != openflow.NoBuffer && t.Command == openflow.FlowAdd {
			if frame, inPort, ok := a.sw.buffers.take(t.BufferID); ok {
				a.sw.Receive(inPort, frame)
			}
		}
	case *openflow.GroupMod:
		if err := a.sw.groups.Apply(t); err != nil {
			ch.SendError(m, openflow.ErrTypeGroupModFailed, 0)
		}
	case *openflow.MeterMod:
		if err := a.sw.meters.Apply(t); err != nil {
			ch.SendError(m, openflow.ErrTypeMeterModFailed, 0)
		}
	case *openflow.PacketOut:
		a.sw.InjectPacketOut(t)
	case *openflow.BarrierRequest:
		// The datapath applies messages synchronously, so a barrier
		// needs no draining.
		_ = ch.Reply(m, &openflow.BarrierReply{})
	case *openflow.MultipartRequest:
		a.handleMultipart(ch, t)
	}
}

func flowModErrCode(err error) uint16 {
	if err == flowtable.ErrTableFull {
		return openflow.FlowModFailedTableFull
	}
	return openflow.FlowModFailedUnknown
}

func (a *Agent) handleMultipart(ch *controlplane.Channel, req *openflow.MultipartRequest) {
	reply := &openflow.MultipartReply{MPType: req.MPType}
	switch req.MPType {
	case openflow.MultipartDesc:
		reply.Desc = &openflow.SwitchDesc{
			Manufacturer: "HARMLESS project",
			Hardware:     "emulated datapath",
			Software:     "softswitch/0.1 (ESwitch-style)",
			SerialNum:    a.sw.name,
			Datapath:     a.sw.name,
		}
	case openflow.MultipartFlow:
		tid := openflow.TableAll
		if req.Flow != nil {
			tid = req.Flow.TableID
		}
		reply.Flows = a.sw.FlowStats(tid)
	case openflow.MultipartPortStats:
		reply.Ports = a.sw.PortStats()
	case openflow.MultipartTable:
		reply.Tables = a.sw.TableStats()
	case openflow.MultipartPortDesc:
		reply.PortDescs = a.sw.PortDescs()
	default:
		ch.SendError(req, openflow.ErrTypeBadRequest, 0)
		return
	}
	_ = ch.Reply(req, reply)
}

// sendPacketIn fans a packet-in out to the channels whose role and
// masks accept its reason.
func (a *Agent) sendPacketIn(pi *openflow.PacketIn) {
	a.set.Broadcast(pi, pi.Reason)
}

func (a *Agent) sendFlowRemoved(r flowtable.Removed) {
	a.set.Broadcast(&openflow.FlowRemoved{
		Cookie:      r.Entry.Cookie,
		Priority:    r.Entry.Priority,
		Reason:      r.Reason,
		TableID:     r.TableID,
		DurationSec: uint32(r.Duration.Seconds()),
		IdleTimeout: r.Entry.IdleTimeout,
		HardTimeout: r.Entry.HardTimeout,
		PacketCount: r.Entry.Packets(),
		ByteCount:   r.Entry.Bytes(),
		Match:       r.Entry.Match.ToOXM(),
	}, r.Reason)
}

func (a *Agent) sendPortStatus(reason uint8, desc openflow.PortDesc) {
	a.set.Broadcast(&openflow.PortStatus{Reason: reason, Desc: desc}, reason)
}
