package softswitch

import (
	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// PortBackend is the egress side of a datapath port: where frames go
// once the pipeline has decided to output them. The switch ships with
// three implementations — netem links (AttachNetPort), zero-copy patch
// ports into a peer switch (ConnectPatch), and an in-memory ring
// (NewRingBackend) for benchmarks that want the switch alone in the
// measured path — and accepts any other via AttachPort.
//
// Ownership follows the dataplane package rules: each frame transfers
// to the backend, the containing slice of TransmitBatch is only
// borrowed and may be reused by the caller after the call returns.
type PortBackend interface {
	// Transmit sends one frame out the port, taking ownership of it.
	Transmit(frame []byte)
	// TransmitBatch sends a frame vector out the port in one call.
	TransmitBatch(frames [][]byte)
}

// netBackend adapts a netem.Port as a PortBackend.
type netBackend struct {
	port *netem.Port
}

func (nb netBackend) Transmit(frame []byte)     { _ = nb.port.Send(frame) }
func (nb netBackend) TransmitBatch(fs [][]byte) { _ = nb.port.SendBatch(fs) }

// BatchForwarder is an optional PortBackend capability: a backend
// whose egress re-enters a peer Switch implements it so the dispatch
// loop can queue the still-grouped batch on its worklist — iterative
// delivery at constant stack depth — instead of transmitting into the
// peer synchronously. Any custom backend that forwards into another
// switch should implement it; without it the batch is delivered via
// TransmitBatch, which recurses one call frame per hop.
type BatchForwarder interface {
	// ForwardTarget returns the peer switch and the ingress port the
	// batch enters it on.
	ForwardTarget() (*Switch, uint32)
}

// patchBackend forwards into a peer switch — the zero-copy wiring
// between SS_1 and SS_2 inside the S4 node. Its BatchForwarder side is
// what the dispatch loop uses on the hot path; Transmit/TransmitBatch
// are the fallback for callers outside a dispatch.
type patchBackend struct {
	peer     *Switch
	peerPort uint32
}

func (pb *patchBackend) ForwardTarget() (*Switch, uint32) {
	return pb.peer, pb.peerPort
}

func (pb *patchBackend) Transmit(frame []byte) {
	pb.peer.Receive(pb.peerPort, frame)
}

func (pb *patchBackend) TransmitBatch(fs [][]byte) {
	pb.peer.ReceiveBatch(pb.peerPort, fs)
}

// RingBackend deposits egress frames into a lock-free dataplane.Ring.
// It is the NIC-queue stand-in for benchmarks: the measurement loop
// pushes batches into the switch and drains the ring, with no netem
// goroutines or timing model in the measured path. A full ring
// tail-drops, counted in Dropped.
type RingBackend struct {
	ring    *dataplane.Ring
	Dropped stats.Counter
}

// NewRingBackend creates a ring backend with the given capacity.
func NewRingBackend(capacity int) *RingBackend {
	return &RingBackend{ring: dataplane.NewRing(capacity)}
}

// Ring exposes the underlying ring for draining.
func (rb *RingBackend) Ring() *dataplane.Ring { return rb.ring }

// Transmit implements PortBackend.
func (rb *RingBackend) Transmit(frame []byte) {
	if !rb.ring.Push(frame) {
		rb.Dropped.Inc()
	}
}

// TransmitBatch implements PortBackend.
func (rb *RingBackend) TransmitBatch(frames [][]byte) {
	for _, f := range frames {
		rb.Transmit(f)
	}
}
