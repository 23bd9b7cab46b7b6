package fabric

import (
	"math/rand"

	"github.com/harmless-sdn/harmless/internal/pkt"
)

// IMIXSizes is the simple IMIX mix (7:4:1 of 64/576/1500-byte frames)
// used where a realistic aggregate matters more than a fixed size.
var IMIXSizes = []int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1500}

// FlowSpec describes one synthetic flow for the generators.
type FlowSpec struct {
	SrcMAC pkt.MAC
	DstMAC pkt.MAC
	SrcIP  pkt.IPv4
	DstIP  pkt.IPv4
	Sport  uint16
	Dport  uint16
}

// Generator produces pre-built frames for benchmark loops. Frames are
// built once so the generator adds no measurable cost to the loop.
// With no explicit order the frames cycle round-robin; generators with
// a skewed popularity (NewZipfGenerator) precompute an order instead.
type Generator struct {
	frames [][]byte
	order  []int // nil = round-robin over frames
	next   int
}

// NewUDPGenerator builds a pool of UDP frames of the given wire size,
// cycling over nFlows distinct 5-tuples (seeded deterministically).
func NewUDPGenerator(size, nFlows int, seed int64) *Generator {
	if size < pkt.EthernetHeaderLen+pkt.IPv4MinHeaderLen+pkt.UDPHeaderLen {
		size = pkt.EthernetHeaderLen + pkt.IPv4MinHeaderLen + pkt.UDPHeaderLen
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Generator{frames: make([][]byte, 0, nFlows)}
	payloadLen := size - pkt.EthernetHeaderLen - pkt.IPv4MinHeaderLen - pkt.UDPHeaderLen
	buf := pkt.NewSerializeBuffer()
	for i := 0; i < nFlows; i++ {
		payload := make(pkt.Payload, payloadLen)
		frame, err := pkt.SerializeLayers(buf,
			&pkt.Ethernet{
				Src:       pkt.MAC{0x02, 0x10, 0, 0, byte(i >> 8), byte(i)},
				Dst:       pkt.MAC{0x02, 0x20, 0, 0, byte(i >> 8), byte(i)},
				EtherType: pkt.EtherTypeIPv4,
			},
			&pkt.IPv4Header{
				TTL: 64, Protocol: pkt.IPProtoUDP,
				Src: pkt.IPv4{10, 1, byte(i >> 8), byte(i)},
				Dst: pkt.IPv4{10, 2, byte(rng.Intn(256)), byte(rng.Intn(256))},
			},
			&pkt.UDP{SrcPort: uint16(1024 + i%40000), DstPort: uint16(1024 + rng.Intn(40000))},
			&payload,
		)
		if err != nil {
			continue
		}
		cp := make([]byte, len(frame))
		copy(cp, frame)
		g.frames = append(g.frames, cp)
	}
	return g
}

// NewFlowGenerator builds one frame per explicit flow spec.
func NewFlowGenerator(size int, flows []FlowSpec) *Generator {
	payloadLen := size - pkt.EthernetHeaderLen - pkt.IPv4MinHeaderLen - pkt.UDPHeaderLen
	if payloadLen < 0 {
		payloadLen = 0
	}
	g := &Generator{frames: make([][]byte, 0, len(flows))}
	buf := pkt.NewSerializeBuffer()
	for _, f := range flows {
		payload := make(pkt.Payload, payloadLen)
		frame, err := pkt.SerializeLayers(buf,
			&pkt.Ethernet{Src: f.SrcMAC, Dst: f.DstMAC, EtherType: pkt.EtherTypeIPv4},
			&pkt.IPv4Header{TTL: 64, Protocol: pkt.IPProtoUDP, Src: f.SrcIP, Dst: f.DstIP},
			&pkt.UDP{SrcPort: f.Sport, DstPort: f.Dport},
			&payload,
		)
		if err != nil {
			continue
		}
		cp := make([]byte, len(frame))
		copy(cp, frame)
		g.frames = append(g.frames, cp)
	}
	return g
}

// NewZipfGenerator builds nFlows distinct UDP flows of the given wire
// size and emits them with Zipf-distributed popularity of skew s > 1
// (flow 0 hottest), the standard model for Internet flow popularity.
// The emission order is precomputed so Next stays allocation-free.
func NewZipfGenerator(size, nFlows int, s float64, seed int64) *Generator {
	g := NewUDPGenerator(size, nFlows, seed)
	if len(g.frames) < 2 {
		return g
	}
	rng := rand.New(rand.NewSource(seed + 1))
	z := rand.NewZipf(rng, s, 1, uint64(len(g.frames)-1))
	order := make([]int, 8*len(g.frames))
	for i := range order {
		order[i] = int(z.Uint64())
	}
	g.order = order
	return g
}

// NewThrashGenerator builds adversarial cache-thrash traffic: nFlows
// distinct flows visited round-robin, so with nFlows larger than an
// exact-match cache's capacity every packet misses and displaces a
// cached entry — the worst case for a flow-cached datapath.
func NewThrashGenerator(size, nFlows int, seed int64) *Generator {
	return NewUDPGenerator(size, nFlows, seed)
}

// Next returns the next frame in generation order (round-robin, or the
// precomputed popularity order). The returned slice is shared:
// consumers that mutate frames must copy it (CopyNext).
func (g *Generator) Next() []byte {
	if g.order != nil {
		f := g.frames[g.order[g.next]]
		g.next = (g.next + 1) % len(g.order)
		return f
	}
	f := g.frames[g.next]
	g.next = (g.next + 1) % len(g.frames)
	return f
}

// CopyNext returns a private copy of the next frame, for paths that
// mutate in place (VLAN push/pop).
func (g *Generator) CopyNext() []byte {
	f := g.Next()
	cp := make([]byte, len(f))
	copy(cp, f)
	return cp
}

// NextBatch refills into with the next n frames in generation order
// and returns it, reusing into's capacity — the vector shape
// Switch.ReceiveBatch and Port.SendBatch consume. The frames are
// shared like Next's; a path that mutates copies each one (CopyNext,
// Arena).
func (g *Generator) NextBatch(into [][]byte, n int) [][]byte {
	into = into[:0]
	for i := 0; i < n; i++ {
		into = append(into, g.Next())
	}
	return into
}

// Len returns the number of distinct frames.
func (g *Generator) Len() int { return len(g.frames) }

// ArenaTailroom is the spare capacity an Arena leaves behind every
// frame: room for eight 802.1Q tags pushed in place along the path.
const ArenaTailroom = 32

// Arena hands out private copies of frames from a ring of preallocated
// slots, as a NIC's descriptor ring does for a driver. The datapath
// owns every frame it is sent and rewrites it in place (VLAN push and
// pop, set-field), so a load loop must not send the same buffer twice;
// copying the template into the next slot costs a memcpy and no
// allocation. A slot is handed out again after `slots` further copies:
// size the ring above the number of frames that can be in flight at
// once — on synchronous links, one burst.
type Arena struct {
	buf    []byte
	stride int
	slot   int
}

// NewArena creates a ring of `slots` buffers for frames of up to
// maxFrame bytes.
func NewArena(slots, maxFrame int) *Arena {
	stride := (maxFrame + ArenaTailroom + 63) &^ 63
	return &Arena{buf: make([]byte, slots*stride), stride: stride}
}

// Copy returns a copy of frame in the next slot. The copy's capacity
// ends with the slot, so growing it in place cannot reach the next
// frame.
func (a *Arena) Copy(frame []byte) []byte {
	off := a.slot
	if a.slot += a.stride; a.slot == len(a.buf) {
		a.slot = 0
	}
	f := a.buf[off : off+len(frame) : off+a.stride]
	copy(f, frame)
	return f
}

// MixGenerator emits the long-lived/short-lived flow mix telemetry
// planes face in production: a small set of heavy-hitter "elephant"
// flows carrying most of the packets, over a churning population of
// short-lived "mouse" flows — each mouse emits for a bounded window,
// then a fresh 5-tuple replaces it. Frames are prebuilt (the mouse
// population is a sliding window over a larger precomputed pool), so
// Next stays allocation-free like the other generators.
type MixGenerator struct {
	elephants *Generator
	mice      [][]byte // full mouse pool; the active set slides over it
	window    int      // active mice at any instant
	start     int      // first active mouse
	perWindow int      // mouse frames emitted before the window slides
	emitted   int
	rng       *rand.Rand
	churned   int
}

// The mix's shape: elephants carry mixElephantShare of the packets, and
// every MixGenerator draws the same stream from mixSeed.
const (
	mixElephantShare = 0.8
	mixSeed          = 42
)

// NewMixGenerator builds a mix of 64-byte frames: `elephants`
// long-lived flows taking mixElephantShare of the packets and `mice`
// concurrently active short-lived flows, each living for roughly
// `mouseLife` of its own packets before being replaced by a brand-new
// flow. The mouse pool holds 8x the active window, so the mix replays
// ~8*mice distinct short-lived flows before reusing a tuple.
func NewMixGenerator(elephants, mice, mouseLife int) *MixGenerator {
	if elephants < 1 {
		elephants = 1
	}
	if mice < 1 {
		mice = 1
	}
	if mouseLife < 1 {
		mouseLife = 16
	}
	pool := NewUDPGenerator(64, 8*mice, mixSeed+1)
	return &MixGenerator{
		elephants: NewUDPGenerator(64, elephants, mixSeed),
		mice:      pool.frames,
		window:    mice,
		perWindow: mouseLife * mice,
		rng:       rand.New(rand.NewSource(mixSeed + 2)),
	}
}

// Next returns the next frame: an elephant with probability
// mixElephantShare, otherwise a random currently-active mouse. The
// returned slice is shared; copy before mutating (CopyNext-style).
func (g *MixGenerator) Next() []byte {
	if g.rng.Float64() < mixElephantShare {
		return g.elephants.Next()
	}
	g.emitted++
	if g.emitted >= g.perWindow {
		// Window expires: this generation of mice dies, fresh tuples
		// become active.
		g.emitted = 0
		g.start = (g.start + g.window) % len(g.mice)
		g.churned += g.window
	}
	i := (g.start + g.rng.Intn(g.window)) % len(g.mice)
	return g.mice[i]
}

// Churned returns how many short-lived flows have completed so far.
func (g *MixGenerator) Churned() int { return g.churned }

// DistinctFlows returns the total distinct 5-tuples the generator can
// emit (elephants + mouse pool).
func (g *MixGenerator) DistinctFlows() int { return g.elephants.Len() + len(g.mice) }
