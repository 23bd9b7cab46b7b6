// Package dataplane holds the batch-oriented I/O primitives the
// HARMLESS dataplane layers share: the frame Batch that travels
// between ports and switches, and a lock-free bounded Ring that lets
// load generators and benchmarks drive a switch at full rate without
// the netem timing machinery in the loop.
//
// # Frame ownership
//
// The rules are uniform across every batch-carrying API in this
// repository (netem.Port.SendBatch, softswitch.Switch.ReceiveBatch,
// softswitch.PortBackend.TransmitBatch):
//
//  1. Ownership of each FRAME (the []byte) transfers to the callee.
//     The caller must not retain or mutate a frame after handing it
//     over; the datapath may rewrite it in place or forward it on.
//  2. The CONTAINING slice ([][]byte) stays with the caller and is
//     only borrowed for the duration of the call. The callee must not
//     retain it; the caller may reuse it — refilling it with fresh
//     frames — as soon as the call returns.
//  3. A frame is owned together with the SPARE CAPACITY behind it
//     (cap - len): the datapath grows frames in place (VLAN push).
//     A frame cut out of a larger live buffer must therefore be
//     clipped with a full slice expression — buf[i:j:j], or
//     buf[i:j:j+room] for tailroom that really is the frame's.
//
// Rule 2 is what makes per-batch amortization free of per-batch
// allocation: one [][]byte vector can carry every batch of a run.
package dataplane

// Verdict records what the datapath decided for one frame of a batch.
// It is diagnostic metadata: the decision is applied as it is made,
// the verdict only reports it.
type Verdict uint8

const (
	// VerdictPending marks a frame not yet classified.
	VerdictPending Verdict = iota
	// VerdictCacheHit marks a frame served by the flow cache.
	VerdictCacheHit
	// VerdictSlowPath marks a frame that took the full pipeline walk.
	VerdictSlowPath
	// VerdictDropped marks a frame dropped before classification
	// (malformed, key extraction failed).
	VerdictDropped
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictPending:
		return "pending"
	case VerdictCacheHit:
		return "cache-hit"
	case VerdictSlowPath:
		return "slow-path"
	case VerdictDropped:
		return "dropped"
	}
	return "unknown"
}

// Meta is the per-frame metadata of a Batch.
type Meta struct {
	// InPort is the datapath port the frame arrived on.
	InPort uint32
	// Verdict is filled in by the datapath as the frame is classified.
	Verdict Verdict
}

// Batch is a vector of frames traversing the datapath together, with
// per-frame metadata. Frames and Meta are parallel and stay
// equal-length when the batch is built through Append; APIs that
// consume a Batch (softswitch.Switch.ReceiveMixedBatch) require a
// Meta entry for every frame — build batches with Append, not by
// poking Frames directly.
//
// Ownership follows the package rules: the frame bytes belong to
// whoever currently holds the batch, the slices themselves belong to
// the batch's owner and are reusable via Reset.
type Batch struct {
	Frames [][]byte
	Meta   []Meta
}

// Append adds one frame arriving on inPort, taking ownership of it.
func (b *Batch) Append(frame []byte, inPort uint32) {
	b.Frames = append(b.Frames, frame) //harmless:allow-retain Append IS the ownership transfer into the batch
	b.Meta = append(b.Meta, Meta{InPort: inPort, Verdict: VerdictPending})
}

// Len returns the number of frames in the batch.
func (b *Batch) Len() int { return len(b.Frames) }

// Bytes returns the total frame bytes in the batch.
func (b *Batch) Bytes() int {
	n := 0
	for _, f := range b.Frames {
		n += len(f)
	}
	return n
}

// Reset empties the batch for reuse, dropping frame references so the
// backing arrays don't pin consumed frames.
func (b *Batch) Reset() {
	clear(b.Frames)
	b.Frames = b.Frames[:0] //harmless:allow-retain Reset truncates the batch's own vector after clearing references
	b.Meta = b.Meta[:0]
}
