package softswitch

import (
	"github.com/harmless-sdn/harmless/internal/dataplane"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/stats"
)

// PortBackend is the egress side of a datapath port: where frames go
// once the pipeline has decided to output them. The switch ships with
// two implementations — netem links (AttachNetPort) and an in-memory
// ring (NewRingBackend) for benchmarks that want the switch alone in the
// measured path — and accepts any other via AttachPort. A patch port
// into a peer switch (ConnectPatch) has no backend: the dispatch itself
// carries frames across it.
//
// Ownership follows the dataplane package rules: each frame transfers
// to the backend, the containing slice is only borrowed and may be
// reused by the caller after the call returns.
type PortBackend interface {
	// TransmitBatch sends a frame vector out the port in one call.
	TransmitBatch(frames [][]byte)
}

// netBackend adapts a netem.Port as a PortBackend.
type netBackend struct {
	port *netem.Port
}

func (nb netBackend) TransmitBatch(fs [][]byte) { _ = nb.port.SendBatch(fs) }

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

// TransmitBatch implements PortBackend.
func (rb *RingBackend) TransmitBatch(frames [][]byte) {
	for _, f := range frames {
		if !rb.ring.Push(f) {
			rb.Dropped.Inc()
		}
	}
}
