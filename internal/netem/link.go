package netem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/harmless-sdn/harmless/internal/stats"
)

// ErrLinkClosed is returned by Send after Close.
var ErrLinkClosed = errors.New("netem: link closed")

// Receiver consumes frames arriving at a port. The frame slice is owned
// by the receiver after the call (ownership transfer, no copies on the
// fast path).
type Receiver func(frame []byte)

// BatchReceiver consumes a vector of frames arriving at a port
// together. Ownership of each frame transfers to the receiver; the
// containing slice is only borrowed for the duration of the call and
// may be reused by the deliverer afterwards (the dataplane package
// documents these rules).
type BatchReceiver func(frames [][]byte)

// LinkConfig parameterizes a link. The zero value is a synchronous,
// lossless, zero-latency link — the configuration used by
// deterministic tests.
type LinkConfig struct {
	// Async selects queued goroutine delivery with the latency model.
	Async bool
	// Latency is the one-way propagation delay (async mode only).
	Latency time.Duration
	// LossProb is the independent per-frame drop probability [0,1).
	LossProb float64
	// QueueLen is the per-direction queue capacity in frames for
	// async mode; 0 means a default of 512. Frames arriving at a full
	// queue are tail-dropped.
	QueueLen int
	// Seed seeds the loss process; links with the same seed drop the
	// same frames.
	Seed int64
	// Scheduler switches async mode to virtual-time delivery: instead
	// of pump goroutines sleeping on the wall clock, every frame is
	// scheduled as a Scheduler callback Latency after it is sent. FIFO
	// order per direction is preserved — arrival instants are
	// monotonic per sender and equal deadlines fire in registration
	// order. QueueLen bounds the frames in flight per direction
	// (tail-drop beyond it). Ignored unless Async is set.
	Scheduler Scheduler
	// Name is used in diagnostics.
	Name string
}

// Link is a full-duplex point-to-point link with two Ports.
type Link struct {
	cfg   LinkConfig
	sched Scheduler // non-nil: virtual-time async delivery
	a, b  *Port

	lossMu sync.Mutex
	rng    *rand.Rand

	closeOnce sync.Once
	done      chan struct{}
}

// Port is one end of a Link. A device attaches by calling SetReceiver
// and transmits with Send.
type Port struct {
	link     *Link
	peer     *Port
	name     string
	counters stats.PortCounters

	recvMu        sync.RWMutex
	receiver      Receiver
	batchReceiver BatchReceiver

	// async state (nil in sync and virtual modes)
	queue chan []byte
	// inflight counts scheduled-but-undelivered frames sent by this
	// port (virtual mode's queue occupancy, tail-dropped at QueueLen)
	inflight atomic.Int64
}

// NewLink creates a link with the given configuration and returns it;
// its two ends are available via A and B.
func NewLink(cfg LinkConfig) *Link {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 512
	}
	l := &Link{cfg: cfg, done: make(chan struct{})}
	if cfg.LossProb > 0 {
		l.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	l.a = &Port{link: l, name: cfg.Name + "/A"}
	l.b = &Port{link: l, name: cfg.Name + "/B"}
	l.a.peer, l.b.peer = l.b, l.a
	switch {
	case cfg.Async && cfg.Scheduler != nil:
		l.sched = cfg.Scheduler // virtual time: no pumps, no queues
	case cfg.Async:
		l.a.queue = make(chan []byte, cfg.QueueLen)
		l.b.queue = make(chan []byte, cfg.QueueLen)
		go l.pump(l.a) // drains frames sent BY a, delivers to b
		go l.pump(l.b)
	}
	return l
}

// A returns the first port.
func (l *Link) A() *Port { return l.a }

// B returns the second port.
func (l *Link) B() *Port { return l.b }

// Close shuts the link down; subsequent Sends fail with ErrLinkClosed.
func (l *Link) Close() {
	l.closeOnce.Do(func() { close(l.done) })
}

func (l *Link) dropped() bool {
	if l.rng == nil {
		return false
	}
	l.lossMu.Lock()
	defer l.lossMu.Unlock()
	return l.rng.Float64() < l.cfg.LossProb
}

// rxBatch bounds how many queued frames one wakeup of an untimed async
// link drains into a single batch delivery.
const rxBatch = 64

// pump drains the queue of frames sent by p and delivers them to the
// peer, applying the latency in real time. On an untimed link (no
// latency) every frame is due the moment it is queued, so one wakeup
// drains the backlog into a vector — up to rxBatch frames — and
// delivers it as one batch; with a latency each frame is delivered
// individually, Latency after it leaves the queue.
func (l *Link) pump(p *Port) {
	untimed := l.cfg.Latency <= 0
	var batch [][]byte
	if untimed {
		batch = make([][]byte, 0, rxBatch)
	}
	for {
		select {
		case <-l.done:
			return
		case frame := <-p.queue:
			if untimed {
				batch = append(batch[:0], frame)
			drain:
				for len(batch) < rxBatch {
					select {
					case f := <-p.queue:
						batch = append(batch, f)
					default:
						break drain
					}
				}
				p.peer.deliverBatch(batch)
				clear(batch)
				continue
			}
			// Async mode paces real goroutines on wall time; virtual mode
			// never reaches here.
			select {
			case <-time.After(l.cfg.Latency):
			case <-l.done:
				return
			}
			p.peer.deliver(frame)
		}
	}
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Counters exposes the port's statistics.
func (p *Port) Counters() *stats.PortCounters { return &p.counters }

// SetReceiver installs the function invoked for every frame arriving
// at this port. It may be called again to replace the receiver; doing
// so also clears any batch receiver, so a device swap cannot leave
// batched deliveries flowing to the previous device (re-install one
// with SetBatchReceiver afterwards, as AttachNetPort does).
func (p *Port) SetReceiver(r Receiver) {
	p.recvMu.Lock()
	p.receiver = r
	p.batchReceiver = nil
	p.recvMu.Unlock()
}

// SetBatchReceiver installs the function invoked when a frame vector
// arrives at this port. Ports without one fall back to the per-frame
// receiver for every frame of a batch, so batch delivery is always
// safe to use; attaching a per-frame wrapper with WrapReceiver clears
// it again.
func (p *Port) SetBatchReceiver(r BatchReceiver) {
	p.recvMu.Lock()
	p.batchReceiver = r
	p.recvMu.Unlock()
}

// WrapReceiver replaces the current receiver with wrap(current) —
// used to interpose taps/captures after a device has attached. The
// batch receiver is cleared so every frame — batched or not — flows
// through the wrapped per-frame chain; a batch short-circuiting past
// the wrapper would blind the tap.
func (p *Port) WrapReceiver(wrap func(Receiver) Receiver) {
	p.recvMu.Lock()
	p.receiver = wrap(p.receiver)
	p.batchReceiver = nil
	p.recvMu.Unlock()
}

// Send transmits a frame towards the peer port. In synchronous mode
// the peer's receiver runs on the calling goroutine; in asynchronous
// mode the frame is queued (tail-drop on overflow). The caller
// relinquishes ownership of the slice.
func (p *Port) Send(frame []byte) error {
	select {
	case <-p.link.done:
		return ErrLinkClosed
	default:
	}
	p.counters.RecordTx(len(frame))
	if p.link.dropped() {
		p.counters.TxDropped.Inc()
		return nil
	}
	if l := p.link; l.sched != nil { // virtual-time async delivery
		if p.inflight.Load() >= int64(l.cfg.QueueLen) {
			p.counters.TxDropped.Inc()
			return nil
		}
		p.inflight.Add(1)
		l.sched.AfterFunc(l.cfg.Latency, func() {
			p.inflight.Add(-1)
			select {
			case <-l.done:
				return
			default:
			}
			p.peer.deliver(frame)
		})
		return nil
	}
	if p.queue == nil { // synchronous
		p.peer.deliver(frame)
		return nil
	}
	select {
	case p.queue <- frame:
	default:
		p.counters.TxDropped.Inc()
	}
	return nil
}

// SendBatch transmits a vector of frames towards the peer port in one
// call. Ownership of each frame transfers; the containing slice stays
// the caller's and may be reused after the call returns. On a
// synchronous lossless link the whole vector is delivered as one
// batch; otherwise each frame goes through the per-frame Send path so
// loss sampling and queue tail-drops stay frame-exact.
func (p *Port) SendBatch(frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	select {
	case <-p.link.done:
		return ErrLinkClosed
	default:
	}
	if p.queue == nil && p.link.sched == nil && p.link.rng == nil {
		var bytes uint64
		for _, f := range frames {
			bytes += uint64(len(f))
		}
		p.counters.TxPackets.Add(uint64(len(frames)))
		p.counters.TxBytes.Add(bytes)
		p.peer.deliverBatch(frames)
		return nil
	}
	for _, f := range frames {
		if err := p.Send(f); err != nil {
			return err
		}
	}
	return nil
}

func (p *Port) deliver(frame []byte) {
	p.counters.RecordRx(len(frame))
	p.recvMu.RLock()
	r := p.receiver
	p.recvMu.RUnlock()
	if r == nil {
		p.counters.RxDropped.Inc()
		return
	}
	r(frame)
}

// deliverBatch hands a frame vector to the attached device: to its
// batch receiver when one is installed, frame by frame otherwise.
func (p *Port) deliverBatch(frames [][]byte) {
	var bytes uint64
	for _, f := range frames {
		bytes += uint64(len(f))
	}
	p.counters.RxPackets.Add(uint64(len(frames)))
	p.counters.RxBytes.Add(bytes)
	p.recvMu.RLock()
	br := p.batchReceiver
	r := p.receiver
	p.recvMu.RUnlock()
	if br != nil {
		br(frames)
		return
	}
	if r == nil {
		p.counters.RxDropped.Add(uint64(len(frames)))
		return
	}
	for _, f := range frames {
		r(f)
	}
}

// String identifies the port.
func (p *Port) String() string { return fmt.Sprintf("port(%s)", p.name) }
