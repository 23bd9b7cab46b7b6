// Package dataplane holds what the HARMLESS dataplane layers share:
// the frame-ownership rules below, and a lock-free bounded Ring that
// lets load generators and benchmarks drive a switch at full rate
// without the netem timing machinery in the loop. A batch has no type
// of its own: it is a [][]byte and the port it arrived on.
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
