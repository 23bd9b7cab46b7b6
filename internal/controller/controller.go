// Package controller hosts the network applications the paper demos
// on SS_2 — an L2 learning switch, the source-IP load balancer, the
// DMZ access-policy app and the parental-control app (package apps).
// Every switch session is a controlplane.Controller; this package adds
// the App contract, the install helpers, a registry of connected
// switches by datapath id and a failure policy for panicking apps.
package controller

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/controlplane"
	"github.com/harmless-sdn/harmless/internal/openflow"
)

// App is a controller application. Implementations receive switch
// lifecycle and asynchronous events; embed BaseApp for no-op defaults.
// SwitchConnected runs before any event of that switch is delivered and
// the callbacks of one switch never overlap. Events are delivered on
// the session's read loop: there, a callback that waits for a reply
// (Barrier, Multipart, RequestRole) must hand off to another goroutine.
type App interface {
	// Name identifies the app in logs.
	Name() string
	// SwitchConnected fires after the handshake; proactive apps
	// install their flows here and may Barrier them.
	SwitchConnected(sw *SwitchHandle)
	// PacketIn delivers a packet sent to the controller.
	PacketIn(sw *SwitchHandle, pi *openflow.PacketIn)
	// FlowRemoved delivers an expiry/delete notification.
	FlowRemoved(sw *SwitchHandle, fr *openflow.FlowRemoved)
	// PortStatus delivers a port change notification.
	PortStatus(sw *SwitchHandle, ps *openflow.PortStatus)
}

// BaseApp provides no-op App methods for embedding.
type BaseApp struct{}

// SwitchConnected implements App.
func (BaseApp) SwitchConnected(*SwitchHandle) {}

// PacketIn implements App.
func (BaseApp) PacketIn(*SwitchHandle, *openflow.PacketIn) {}

// FlowRemoved implements App.
func (BaseApp) FlowRemoved(*SwitchHandle, *openflow.FlowRemoved) {}

// PortStatus implements App.
func (BaseApp) PortStatus(*SwitchHandle, *openflow.PortStatus) {}

// SwitchHandle is an app's view of one connected switch: the
// controlplane session itself (DPID, FlowMod, Send, RequestRole,
// Multipart, Done, Err, ...) plus the install helpers the apps share.
type SwitchHandle struct {
	*controlplane.Controller

	// The gate that keeps SwitchConnected ahead of the switch's events:
	// until live is set they queue in held, under mu.
	live atomic.Bool
	mu   sync.Mutex
	held []func()
}

// InstallFlow is the common proactive install helper.
func (h *SwitchHandle) InstallFlow(table uint8, priority uint16, match openflow.Match, instrs ...openflow.Instruction) error {
	return h.FlowMod(&openflow.FlowMod{
		TableID: table, Command: openflow.FlowAdd, Priority: priority,
		Match: match, Instructions: instrs,
	})
}

// InstallTableMiss installs the priority-0 send-to-controller entry.
func (h *SwitchHandle) InstallTableMiss(table uint8) error {
	return h.InstallFlow(table, 0, openflow.Match{},
		&openflow.InstrApplyActions{Actions: []openflow.Action{
			&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 0xffff},
		}})
}

// PacketOut injects a frame into the switch.
func (h *SwitchHandle) PacketOut(inPort uint32, data []byte, actions ...openflow.Action) error {
	return h.Send(&openflow.PacketOut{
		BufferID: openflow.NoBuffer, InPort: inPort, Actions: actions, Data: data,
	})
}

// FloodPacket floods a frame from inPort.
func (h *SwitchHandle) FloodPacket(inPort uint32, data []byte) error {
	return h.PacketOut(inPort, data, &openflow.ActionOutput{Port: openflow.PortFlood, MaxLen: 0xffff})
}

// Barrier returns once the switch has processed everything sent before
// it. The bound is wall-clock whatever timebase the session runs on: a
// switch that never replies must not wedge an app.
func (h *SwitchHandle) Barrier() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return h.AwaitBarrier(ctx)
}

// gated wraps one Events callback in the handle's gate. Once the gate
// is open an event costs one atomic load; the closure is built only for
// an event that has to wait.
func gated[M any](h *SwitchHandle, deliver func(M)) func(M) {
	return func(m M) {
		if !h.live.Load() {
			h.mu.Lock()
			if !h.live.Load() {
				h.held = append(h.held, func() { deliver(m) })
				h.mu.Unlock()
				return
			}
			h.mu.Unlock()
		}
		deliver(m)
	}
}

// release replays the held events in arrival order, then opens the
// gate. The lock is dropped around each callback so the read loop can
// keep queueing behind it, and resolving the replies a callback may be
// waiting for. A session an app panic has killed drops the rest.
func (h *SwitchHandle) release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.held) > 0 && h.Err() == nil {
		ev := h.held[0]
		h.held = h.held[1:]
		h.mu.Unlock()
		ev()
		h.mu.Lock()
	}
	h.held = nil
	h.live.Store(true)
}

// Controller hosts the apps and keeps the registry of the switches
// attached to it.
type Controller struct {
	apps     []App
	cfg      controlplane.Config
	switches sync.Map // dpid -> *SwitchHandle, while the session lives

	// AppPanics counts app callbacks that panicked; SwitchErrors counts
	// ERROR messages that answered no request (e.g. a rejected
	// flow-mod). Both are also logged to the session's Config.Logger.
	AppPanics, SwitchErrors atomic.Uint64
}

// New creates a controller running the given apps. Event dispatch
// order follows the app order (filters first, forwarding last). Its
// sessions take clock, keepalive and logger from cfg (at most one;
// none means the controlplane defaults).
func New(apps []App, cfg ...controlplane.Config) *Controller {
	c := &Controller{apps: apps}
	if len(cfg) > 0 {
		c.cfg = cfg[0]
	}
	return c
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf(format, args...)
	}
}

// AttachConn opens a session on an established transport, runs every
// app's SwitchConnected, replays the events that arrived meanwhile and
// registers the switch. It fails if the handshake does or the session
// dies before the apps have seen the switch.
func (c *Controller) AttachConn(rw io.ReadWriteCloser) (*SwitchHandle, error) {
	h := &SwitchHandle{}
	cp, err := controlplane.Connect(rw, c.cfg, controlplane.Events{
		PacketIn:    gated(h, func(m *openflow.PacketIn) { c.each(h, func(a App) { a.PacketIn(h, m) }) }),
		FlowRemoved: gated(h, func(m *openflow.FlowRemoved) { c.each(h, func(a App) { a.FlowRemoved(h, m) }) }),
		PortStatus:  gated(h, func(m *openflow.PortStatus) { c.each(h, func(a App) { a.PortStatus(h, m) }) }),
		SwitchError: gated(h, func(e *openflow.Error) {
			c.logf("controller: switch %#x error: %v", h.DPID(), e)
			c.SwitchErrors.Add(1)
		}),
	})
	if err != nil {
		return nil, fmt.Errorf("controller: %w", err)
	}
	h.Controller = cp
	c.each(h, func(a App) { a.SwitchConnected(h) })
	h.release()
	if err := h.Err(); err != nil {
		return nil, err
	}
	c.switches.Store(h.DPID(), h)
	go func() {
		<-h.Done()
		c.switches.CompareAndDelete(h.DPID(), h)
	}()
	return h, nil
}

// each makes one callback into every app, in order, and is where the
// failure policy lives: a panicking app is recovered at this dispatch
// boundary, logged and counted, and costs its switch the session — Err
// reports the panic — while other sessions and the datapath carry on.
func (c *Controller) each(h *SwitchHandle, call func(App)) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("controller: app panic on switch %#x: %v", h.DPID(), r)
			c.logf("%v\n%s", err, debug.Stack())
			c.AppPanics.Add(1)
			h.CloseWithError(err) // the panic is the error that matters, not the transport's
		}
	}()
	for _, app := range c.apps {
		call(app)
	}
}

// Switch returns the handle for a datapath id.
func (c *Controller) Switch(dpid uint64) (*SwitchHandle, bool) {
	h, ok := c.switches.Load(dpid)
	if !ok {
		return nil, false
	}
	return h.(*SwitchHandle), true
}

// Switches returns all connected switch handles.
func (c *Controller) Switches() []*SwitchHandle {
	var out []*SwitchHandle
	c.switches.Range(func(_, h any) bool {
		out = append(out, h.(*SwitchHandle))
		return true
	})
	return out
}
