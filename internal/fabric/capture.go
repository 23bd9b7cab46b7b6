package fabric

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// CapturedFrame is one frame observed by a Tap.
type CapturedFrame struct {
	When  time.Time
	Data  []byte
	Point string // capture point name
}

// Summary renders the frame one-line, pcap style.
func (c CapturedFrame) Summary() string {
	return fmt.Sprintf("[%s] %s", c.Point, pkt.DecodeEthernet(c.Data).String())
}

// Capture collects frames from any number of Taps; it plays the role
// of the per-hop packet captures used to verify the Fig. 1 walk-through.
type Capture struct {
	mu     sync.Mutex
	frames []CapturedFrame
}

// NewCapture returns an empty capture stamping frames with the wall
// clock.
func NewCapture() *Capture { return &Capture{} }

// record appends one frame (copying the bytes: taps observe frames
// whose ownership belongs to the receiver).
func (c *Capture) record(point string, frame []byte) {
	cp := make([]byte, len(frame))
	copy(cp, frame)
	c.mu.Lock()
	c.frames = append(c.frames, CapturedFrame{When: time.Now(), Data: cp, Point: point})
	c.mu.Unlock()
}

// Frames returns a snapshot of all captured frames in arrival order.
func (c *Capture) Frames() []CapturedFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]CapturedFrame{}, c.frames...)
}

// At returns the frames captured at one point.
func (c *Capture) At(point string) []CapturedFrame {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []CapturedFrame
	for _, f := range c.frames {
		if f.Point == point {
			out = append(out, f)
		}
	}
	return out
}

// String renders the whole capture.
func (c *Capture) String() string {
	var sb strings.Builder
	for _, f := range c.Frames() {
		sb.WriteString(f.Summary())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Tap interposes a capture point on a netem port's receive path:
// every frame delivered to the port is recorded at the named point and
// then handed to the device's existing receiver. Install it AFTER the
// device has attached to the port. Wrapping switches the port to
// per-frame delivery (netem.Port.WrapReceiver clears the batch
// receiver), so the tap observes batched traffic frame by frame too —
// captures trade the batch amortization for completeness.
func Tap(p *netem.Port, c *Capture, point string) {
	p.WrapReceiver(func(next netem.Receiver) netem.Receiver {
		return func(frame []byte) {
			c.record(point, frame)
			if next != nil {
				next(frame)
			}
		}
	})
}
