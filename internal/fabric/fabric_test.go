package fabric

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/harmless-sdn/harmless/internal/controller"
	"github.com/harmless-sdn/harmless/internal/controller/apps"
	"github.com/harmless-sdn/harmless/internal/netem"
	"github.com/harmless-sdn/harmless/internal/openflow"
	"github.com/harmless-sdn/harmless/internal/pkt"
)

// twoHosts wires two hosts back-to-back over one link.
func twoHosts(t *testing.T) (*Host, *Host) {
	t.Helper()
	l := netem.NewLink(netem.LinkConfig{})
	t.Cleanup(l.Close)
	h1 := NewHost("h1", HostMAC(1), HostIP(1), l.A())
	h2 := NewHost("h2", HostMAC(2), HostIP(2), l.B())
	return h1, h2
}

func TestHostARPResolution(t *testing.T) {
	h1, h2 := twoHosts(t)
	mac, err := h1.Resolve(h2.IP, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mac != h2.MAC {
		t.Errorf("resolved %s, want %s", mac, h2.MAC)
	}
	// h2 must have learned h1 from the request (gratuitous learning).
	mac, err = h2.Resolve(h1.IP, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if mac != h1.MAC {
		t.Errorf("reverse resolve %s", mac)
	}
}

func TestHostARPTimeout(t *testing.T) {
	h1, _ := twoHosts(t)
	if _, err := h1.Resolve(pkt.MustIPv4("10.9.9.9"), 30*time.Millisecond); err == nil {
		t.Error("expected timeout for unknown IP")
	}
}

func TestHostPing(t *testing.T) {
	h1, h2 := twoHosts(t)
	if err := h1.Ping(h2.IP, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h2.Ping(h1.IP, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := h1.Ping(pkt.MustIPv4("10.9.9.9"), 30*time.Millisecond); err == nil {
		t.Error("ping to nowhere succeeded")
	}
}

func TestHostUDPEcho(t *testing.T) {
	h1, h2 := twoHosts(t)
	h2.HandleUDP(7, func(m UDPMessage) []byte {
		return append([]byte("echo:"), m.Payload...)
	})
	if err := h1.SendUDP(h2.IP, 5555, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := h1.RecvUDP(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "echo:hi" || msg.SrcPort != 7 {
		t.Errorf("reply: %+v", msg)
	}
}

func TestHostTCPGet(t *testing.T) {
	h1, h2 := twoHosts(t)
	h2.ServeTCP(80, func(req []byte) []byte {
		if !bytes.HasPrefix(req, []byte("GET ")) {
			return []byte("HTTP/1.0 400 Bad Request\r\n\r\n")
		}
		return []byte("HTTP/1.0 200 OK\r\n\r\nhello from h2")
	})
	resp, err := h1.GetTCP(h2.IP, 80, []byte("GET / HTTP/1.0\r\n\r\n"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp, []byte("200 OK")) {
		t.Errorf("response: %q", resp)
	}
	// A second request must work (fresh ephemeral port).
	resp, err = h1.GetTCP(h2.IP, 80, []byte("GET / HTTP/1.0\r\n\r\n"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp, []byte("hello from h2")) {
		t.Errorf("response: %q", resp)
	}
}

func TestHostTCPTimeout(t *testing.T) {
	h1, _ := twoHosts(t)
	// No listener on h2.
	if _, err := h1.GetTCP(HostIP(2), 81, []byte("x"), 50*time.Millisecond); err == nil {
		t.Error("expected timeout")
	}
}

func TestHostDNS(t *testing.T) {
	h1, h2 := twoHosts(t)
	h2.ServeDNS(map[string]pkt.IPv4{"web.corp": pkt.MustIPv4("10.0.0.80")})
	resp, err := h1.QueryDNS(h2.IP, "web.corp", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].A != pkt.MustIPv4("10.0.0.80") {
		t.Errorf("answers: %+v", resp.Answers)
	}
	resp, err = h1.QueryDNS(h2.IP, "nope.corp", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rcode != pkt.DNSRcodeNXDomain {
		t.Errorf("rcode: %d", resp.Rcode)
	}
}

func TestGenerator(t *testing.T) {
	g := NewUDPGenerator(512, 16, 1)
	if g.Len() != 16 {
		t.Fatalf("len %d", g.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		f := g.Next()
		if len(f) != 512 {
			t.Fatalf("frame size %d", len(f))
		}
		p := pkt.DecodeEthernet(f)
		if p.Err() != nil || p.UDP() == nil {
			t.Fatalf("bad frame: %s", p)
		}
		seen[p.IPv4().Src.String()] = true
	}
	if len(seen) != 16 {
		t.Errorf("distinct flows: %d", len(seen))
	}
	// CopyNext returns private storage.
	a := g.CopyNext()
	b := g.frames[(g.next-1+len(g.frames))%len(g.frames)]
	a[0] ^= 0xff
	if a[0] == b[0] {
		t.Error("CopyNext returned shared storage")
	}
	// Minimum size clamp.
	gMin := NewUDPGenerator(10, 1, 1)
	if f := gMin.Next(); len(f) < pkt.EthernetHeaderLen+pkt.IPv4MinHeaderLen+pkt.UDPHeaderLen {
		t.Errorf("clamped size %d", len(f))
	}
}

func TestCapture(t *testing.T) {
	c := NewCapture()
	l := netem.NewLink(netem.LinkConfig{})
	defer l.Close()
	var got int
	l.B().SetReceiver(func([]byte) { got++ })
	Tap(l.B(), c, "b-side")
	f := make([]byte, 60)
	_ = l.A().Send(f)
	if got != 1 {
		t.Fatal("tap swallowed the frame")
	}
	if c.Count("b-side") != 1 {
		t.Fatalf("capture: %d", c.Count("b-side"))
	}
	if len(c.Frames()) != 1 || c.String() == "" {
		t.Error("capture accessors")
	}
}

// TestDeploymentPingThroughHARMLESS is the full-stack smoke test: two
// hosts on a migrated legacy switch ping each other through the
// complete chain (legacy VLAN tagging -> SS_1 translation -> SS_2
// learning switch -> back).
func TestDeploymentPingThroughHARMLESS(t *testing.T) {
	d, err := BuildDeployment(DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1, h2 := d.Hosts[1], d.Hosts[2]
	if err := h1.Ping(h2.IP, 2*time.Second); err != nil {
		t.Fatalf("ping h1->h2: %v", err)
	}
	if err := h2.Ping(h1.IP, 2*time.Second); err != nil {
		t.Fatalf("ping h2->h1: %v", err)
	}
	// The frames really crossed SS_1/SS_2 (not just the legacy
	// switch): counters prove the hairpin.
	if d.S4.SS1.PortCounters(1).RxPackets.Load() == 0 {
		t.Error("no traffic entered SS_1's trunk")
	}
	if d.S4.SS2.PortCounters(1).RxPackets.Load() == 0 {
		t.Error("no traffic entered SS_2 logical port 1")
	}
}

func TestDeploymentUDPAndTCP(t *testing.T) {
	d, err := BuildDeployment(DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1, h3 := d.Hosts[1], d.Hosts[3]
	h3.ServeTCP(80, func(req []byte) []byte { return []byte("OK:" + string(req)) })
	resp, err := h1.GetTCP(h3.IP, 80, []byte("GET /"), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(resp, []byte("OK:GET /")) {
		t.Errorf("resp %q", resp)
	}
	h3.HandleUDP(9, func(m UDPMessage) []byte { return m.Payload })
	if err := h1.SendUDP(h3.IP, 1234, 9, []byte("u")); err != nil {
		t.Fatal(err)
	}
	if _, err := h1.RecvUDP(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDeploymentValidation(t *testing.T) {
	if _, err := BuildDeployment(DeployConfig{NumPorts: 1}); err == nil {
		t.Error("1-port deployment accepted")
	}
	if _, err := BuildDeployment(DeployConfig{NumPorts: 4, HostPorts: []int{4}}); err == nil {
		t.Error("host on trunk accepted")
	}
}

func TestDeploymentHelpers(t *testing.T) {
	if HostIP(7) != (pkt.IPv4{10, 0, 0, 7}) {
		t.Error("HostIP")
	}
	if HostMAC(7)[5] != 7 {
		t.Error("HostMAC")
	}
}

// TestPayloadIntegrityThroughHARMLESS is the end-to-end data-integrity
// property: random payloads of random sizes must arrive bit-identical
// after the tag/translate/hairpin journey.
func TestPayloadIntegrityThroughHARMLESS(t *testing.T) {
	d, err := BuildDeployment(DeployConfig{
		NumPorts: 4,
		Apps:     []controller.App{&apps.Learning{Table: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WaitConnected(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	h1, h2 := d.Hosts[1], d.Hosts[2]
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		size := rng.Intn(1400) + 1
		payload := make([]byte, size)
		rng.Read(payload)
		if err := h1.SendUDP(h2.IP, 4000, 4001, payload); err != nil {
			t.Fatal(err)
		}
		msg, err := h2.RecvUDP(2 * time.Second)
		if err != nil {
			t.Fatalf("trial %d (size %d): %v", trial, size, err)
		}
		if !bytes.Equal(msg.Payload, payload) {
			t.Fatalf("trial %d: payload corrupted (%d bytes)", trial, size)
		}
	}
}

func TestMixGeneratorShape(t *testing.T) {
	g := NewMixGenerator(4, 32, 8)
	if g.DistinctFlows() != 4+8*32 {
		t.Fatalf("distinct flows = %d", g.DistinctFlows())
	}
	counts := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		f := g.Next()
		if len(f) < 64 {
			t.Fatalf("frame %d bytes", len(f))
		}
		counts[string(f[6:12])]++ // src MAC identifies the flow
	}
	// Elephant share: the 4 elephants are the hottest flows by
	// construction and must carry roughly 80% of the packets.
	var elephantPkts int
	flows := len(counts)
	hottest := make([]int, 0, len(counts))
	for _, c := range counts {
		hottest = append(hottest, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(hottest)))
	for i := 0; i < 4 && i < len(hottest); i++ {
		elephantPkts += hottest[i]
	}
	share := float64(elephantPkts) / n
	if share < 0.7 || share > 0.9 {
		t.Fatalf("elephant share = %.2f, want ~0.8", share)
	}
	// Churn: far more distinct flows must have appeared than the
	// active window (mice died and were replaced).
	if flows <= 4+32 {
		t.Fatalf("no mouse churn: %d distinct flows seen", flows)
	}
	if g.Churned() == 0 {
		t.Fatal("Churned() = 0")
	}
}

// pipeGoroutines counts goroutines parked in a net.Pipe read or write.
func pipeGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("net.(*pipe).")) {
			n++
		}
	}
	return n
}

// A deployment whose manager fails (here: an access port the switch
// does not have) must close what it had already built: the CLI session
// and the controller's half-done handshake both sit on net.Pipe ends.
func TestBuildDeploymentFailureClosesWhatItBuilt(t *testing.T) {
	before := pipeGoroutines()
	_, err := BuildDeployment(DeployConfig{
		NumPorts:    4,
		AccessPorts: []int{9},
		Apps:        []controller.App{&apps.Learning{Table: 0}},
	})
	if err == nil {
		t.Fatal("deployment with an out-of-range access port accepted")
	}
	deadline := time.Now().Add(3 * time.Second)
	for pipeGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) still blocked on the deployment's pipes", pipeGoroutines()-before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A control transport that dies mid-handshake is reported by
// WaitConnected as the handshake error, at once — not as a timeout
// with the cause gone.
func TestWaitConnectedReturnsAttachError(t *testing.T) {
	ctrl := controller.New([]controller.App{&apps.Learning{Table: 0}})
	d := &Deployment{attached: make(chan struct{})}
	swSide, ctrlSide := net.Pipe()
	go func() {
		d.handle, d.attachErr = ctrl.AttachConn(ctrlSide)
		close(d.attached)
	}()
	sw := openflow.NewConn(swSide)
	if _, err := sw.Recv(); err != nil { // the controller's HELLO
		t.Fatal(err)
	}
	sw.Close()
	start := time.Now()
	err := d.WaitConnected(5 * time.Second)
	if err == nil || errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("WaitConnected = %v, want the handshake error", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("WaitConnected took %v to report a dead transport", waited)
	}
}
