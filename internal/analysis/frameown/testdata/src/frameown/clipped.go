package frameown

import (
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/softswitch"
)

// The capacity rule: a frame cut from a larger live buffer must carry a
// capacity bound before a datapath entry point takes it.

func directSubslice(p *netem.Port, buf []byte, n int) {
	_ = p.Send(buf[:n])        // want "Send is handed a two-index sub-slice"
	_ = p.Send(buf[4:n])       // want "Send is handed a two-index sub-slice"
	_ = p.Send(buf[:n:n])      // clipped: nothing behind the frame is reachable
	_ = p.Send(buf[: n : n+4]) // room that is the frame's own
	_ = p.Send(buf[4:])        // the tail goes with the frame
	_ = p.Send(buf)
}

func viaLocalFrame(sw *softswitch.Switch, arena []byte, off, n int) {
	f := arena[off : off+n]
	sw.Receive(1, f) // want "Receive is handed a two-index sub-slice"
	f = arena[off : off+n : off+n]
	sw.Receive(1, f)
}

func viaVector(p *netem.Port, sw *softswitch.Switch, arena []byte, n int) {
	vec := make([][]byte, 2)
	vec[0] = arena[:n]
	vec[1] = arena[n : 2*n : 2*n]
	_ = p.SendBatch(vec) // want "SendBatch is handed a two-index sub-slice"

	var grown [][]byte
	grown = append(grown, arena[:n])
	sw.ReceiveBatch(1, grown)                                       // want "ReceiveBatch is handed a two-index sub-slice"
	sw.ReceiveBatch(1, [][]byte{arena[:n]})                         // want "ReceiveBatch is handed a two-index sub-slice"
	sw.ReceiveBatch(1, [][]byte{arena[:n:n]})                       // clipped
	sw.ReceiveBatch(1, [][]byte{append([]byte(nil), arena[:n]...)}) // a copy owns its memory
}

func notIngress(buf []byte, n int) {
	// Only the datapath entry points take the capacity with the frame.
	consume(buf[:n])
}

func consume([]byte) {}

func ownTail(p *netem.Port, buf []byte, n int) {
	// The whole buffer is this frame's: truncating it leaves its own
	// bytes behind it.
	_ = p.Send(buf[:n]) //harmless:allow-unclipped buf holds this one frame; the tail is its own
}

func unclippedBare(p *netem.Port, buf []byte, n int) {
	_ = p.Send(buf[:n]) //harmless:allow-unclipped // want "needs a reason"
}

func unclippedStale(p *netem.Port, buf []byte) {
	//harmless:allow-unclipped nothing on the next line is a sub-slice // want "unused //harmless:allow-unclipped directive"
	_ = p.Send(buf)
}
