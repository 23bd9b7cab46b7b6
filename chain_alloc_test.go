package harmless_test

// The datapath segment of the HARMLESS chain allocates nothing: a frame
// with room for a tag behind it crosses host link -> legacy switch ->
// trunk -> SS_1 -> SS_2 -> SS_1 -> trunk -> legacy switch -> sink being
// re-tagged in place four times, one frame at a time or as a burst.

import (
	"testing"

	"github.com/harmless-sdn/harmless/internal/fabric"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

func TestChainDatapathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	d := harmlessPath(t) // warmed: the legacy FDB and the learned flows are in place
	defer d.Close()
	// Links[i] serves access port i+1; its B end is the host's. A
	// counting sink replaces host 2, whose stack decodes (and allocates).
	in := d.Links[0].B()
	delivered, tagged := 0, 0
	d.Links[1].B().SetReceiver(func(f []byte) {
		delivered++
		if pkt.HasVLAN(f) {
			tagged++
		}
	})

	const burst, size = 32, 64
	frame := benchFrame(t, size)
	arena := fabric.NewArena(2*burst, size)
	vec := make([][]byte, burst)
	sendOne := func() { _ = in.Send(arena.Copy(frame)) }
	sendBurst := func() {
		for i := range vec {
			vec[i] = arena.Copy(frame)
		}
		_ = in.SendBatch(vec)
	}
	// Settle pools, scratch vectors and both cache tiers on either path.
	for i := 0; i < 8; i++ {
		sendOne()
		sendBurst()
	}
	delivered = 0

	const runs = 200
	if n := testing.AllocsPerRun(runs, sendOne); n != 0 {
		t.Errorf("one frame through the chain: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(runs, sendBurst); n != 0 {
		t.Errorf("a %d-frame burst through the chain: %v allocs, want 0", burst, n)
	}
	// AllocsPerRun calls its function once more, to warm up.
	if want := (runs + 1) * (1 + burst); delivered != want || tagged != 0 {
		t.Errorf("sink counted %d frames (%d still tagged), want %d untagged", delivered, tagged, want)
	}
}
