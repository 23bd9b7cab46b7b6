package harmless_test

// Binary-level integration tests: build the real cmd/ executables and
// drive them the way an operator would.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBinaries compiles all cmd/ executables once per test run.
func buildBinaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("binary integration test")
	}
	dir := t.TempDir()
	for _, name := range []string{"harmlessd", "ofctl", "costcalc", "trafficgen", "flowtop", "migrate"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

func TestBinaryHarmlessdOneshot(t *testing.T) {
	bin := buildBinaries(t)
	cmd := exec.Command(filepath.Join(bin, "harmlessd"), "-ports", "4", "-oneshot")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("harmlessd -oneshot: %v\n%s", err, out)
	}
	for _, want := range []string{"demo PASSED", "h1 -> h2: ok", "migrated"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// A mistyped -dialect is refused, not run as the wrong vendor's CLI.
func TestBinaryHarmlessdRejectsUnknownDialect(t *testing.T) {
	bin := buildBinaries(t)
	out, err := exec.Command(filepath.Join(bin, "harmlessd"), "-dialect", "bogus", "-oneshot").CombinedOutput()
	if err == nil {
		t.Fatalf("harmlessd -dialect bogus exited 0:\n%s", out)
	}
	for _, want := range []string{"bogus", "ciscoish", "aristaish"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("error output does not name %q:\n%s", want, out)
		}
	}
}

func TestBinaryCostcalc(t *testing.T) {
	bin := buildBinaries(t)
	out, err := exec.Command(filepath.Join(bin, "costcalc"), "-ports", "48").CombinedOutput()
	if err != nil {
		t.Fatalf("costcalc: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "harmless") || !strings.Contains(string(out), "break-even") {
		t.Errorf("costcalc output:\n%s", out)
	}
}

// TestBinaryMigrate drives the campaign engine end to end the way the
// CI smoke job does: price the plan, then run the example campaign
// twice and require identical digests and a passing verdict.
func TestBinaryMigrate(t *testing.T) {
	bin := buildBinaries(t)
	mig := filepath.Join(bin, "migrate")

	plan, err := exec.Command(mig, "-spec", "examples/migrate/campaign.json", "-plan").CombinedOutput()
	if err != nil {
		t.Fatalf("migrate -plan: %v\n%s", err, plan)
	}
	for _, want := range []string{"three-rack-pilot", "3 waves", "catalog: COTS", "cum-spend", "cum-rip&repl",
		"crossover vs rip-and-replace: never"} {
		if !strings.Contains(string(plan), want) {
			t.Errorf("plan output missing %q:\n%s", want, plan)
		}
	}

	runOnce := func() string {
		out, err := exec.Command(mig,
			"-spec", "examples/migrate/campaign.json", "-wall-budget", "55s").CombinedOutput()
		if err != nil {
			t.Fatalf("migrate: %v\n%s", err, out)
		}
		return string(out)
	}
	a, b := runOnce(), runOnce()
	digest := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, "\"digest\"") {
				return strings.TrimSpace(line)
			}
		}
		return ""
	}
	da, db := digest(a), digest(b)
	if da == "" || da != db {
		t.Errorf("digests diverge or missing:\n  run1 %s\n  run2 %s", da, db)
	}
	for _, want := range []string{`"pass": true`, `"rolledBackWaves": 1`, `"lostDatagrams": 0`, `"costConform": true`} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
}

// TestBinaryOfctlAgainstHarmlessd pairs the two daemons over real TCP:
// ofctl listens as a controller, harmlessd connects SS_2 to it, and
// ofctl dumps the switch description.
func TestBinaryOfctlAgainstHarmlessd(t *testing.T) {
	bin := buildBinaries(t)
	port := freeTCPPort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)

	ofctl := exec.Command(filepath.Join(bin, "ofctl"), "-listen", addr, "-timeout", "20s", "show")
	var ofctlOut bytes.Buffer
	ofctl.Stdout = &ofctlOut
	ofctl.Stderr = &ofctlOut
	if err := ofctl.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ofctl.Wait() }()

	// Give ofctl a moment to bind, then point harmlessd at it.
	waitForListen(t, addr)
	hd := exec.Command(filepath.Join(bin, "harmlessd"),
		"-ports", "4", "-controllers", addr, "-stats", "0")
	var hdOut bytes.Buffer
	hd.Stdout = &hdOut
	hd.Stderr = &hdOut
	if err := hd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = hd.Process.Kill()
		_, _ = hd.Process.Wait()
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ofctl: %v\nofctl output:\n%s\nharmlessd output:\n%s",
				err, ofctlOut.String(), hdOut.String())
		}
	case <-time.After(30 * time.Second):
		_ = ofctl.Process.Kill()
		t.Fatalf("ofctl timed out\nofctl output:\n%s\nharmlessd output:\n%s",
			ofctlOut.String(), hdOut.String())
	}
	out := ofctlOut.String()
	if !strings.Contains(out, "dpid=") || !strings.Contains(out, "port 1") {
		t.Errorf("ofctl show output:\n%s", out)
	}
}

func freeTCPPort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func waitForListen(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("nothing listening on %s", addr)
}

// TestBinaryTelemetryPipeline pairs the export and collection halves
// of the telemetry plane over real UDP: flowtop listens as the IPFIX
// collector, harmlessd runs the oneshot demo exporting flow records
// to it, and flowtop's rendered top-talkers must account the demo's
// traffic.
func TestBinaryTelemetryPipeline(t *testing.T) {
	bin := buildBinaries(t)
	l, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.LocalAddr().String()
	l.Close() // flowtop takes the port over

	ft := exec.Command(filepath.Join(bin, "flowtop"),
		"-listen", addr, "-interval", "500ms", "-count", "6", "-top", "5")
	var ftOut bytes.Buffer
	ft.Stdout = &ftOut
	ft.Stderr = &ftOut
	if err := ft.Start(); err != nil {
		t.Fatal(err)
	}
	ftDone := make(chan error, 1)
	go func() { ftDone <- ft.Wait() }()

	hd := exec.Command(filepath.Join(bin, "harmlessd"),
		"-ports", "4", "-oneshot", "-workers", "2",
		"-telemetry-export", addr, "-sample-rate", "4")
	hdOut, err := hd.CombinedOutput()
	if err != nil {
		t.Fatalf("harmlessd: %v\n%s", err, hdOut)
	}
	if !strings.Contains(string(hdOut), "exporting flow records") {
		t.Fatalf("harmlessd did not announce the exporter:\n%s", hdOut)
	}

	select {
	case err := <-ftDone:
		if err != nil {
			t.Fatalf("flowtop: %v\n%s", err, ftOut.String())
		}
	case <-time.After(30 * time.Second):
		_ = ft.Process.Kill()
		t.Fatalf("flowtop timed out\n%s", ftOut.String())
	}
	out := ftOut.String()
	// The demo's ARP bursts cross SS_1; the collector must have seen
	// real records and nonzero totals.
	if !strings.Contains(out, "0x0806") {
		t.Errorf("flowtop saw no ARP flows:\n%s", out)
	}
	if strings.Contains(out, "total 0 pkts") || !strings.Contains(out, "records=") {
		t.Errorf("flowtop totals missing:\n%s", out)
	}
}

// TestBinaryHarmlessdHTTPEndpoints checks the live /flows and /stats
// observability endpoints of a running daemon.
func TestBinaryHarmlessdHTTPEndpoints(t *testing.T) {
	bin := buildBinaries(t)
	port := freeTCPPort(t)
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	hd := exec.Command(filepath.Join(bin, "harmlessd"),
		"-ports", "4", "-stats", "0", "-http", addr)
	var hdOut bytes.Buffer
	hd.Stdout = &hdOut
	hd.Stderr = &hdOut
	if err := hd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = hd.Process.Kill()
		_, _ = hd.Process.Wait()
	}()
	waitForListen(t, addr)

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v\nharmlessd:\n%s", path, err, hdOut.String())
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d\n%s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	stats := get("/stats")
	for _, want := range []string{"telemetry", "flows_created", "aggregator", "ss1_cache"} {
		if !strings.Contains(stats, want) {
			t.Errorf("/stats missing %q:\n%s", want, stats)
		}
	}
	flows := get("/flows?n=5")
	for _, want := range []string{"\"flows\"", "\"shown\""} {
		if !strings.Contains(flows, want) {
			t.Errorf("/flows missing %q:\n%s", want, flows)
		}
	}
}

// TestBinaryTrafficgenMix runs the telemetry mix briefly, through the
// worker pool and through one caller, and checks the exactness verdict
// it self-reports.
func TestBinaryTrafficgenMix(t *testing.T) {
	bin := buildBinaries(t)
	for _, args := range [][]string{
		{"-flows", "64", "-duration", "400ms", "-workers", "2", "-sample-rate", "16"},
		{"-duration", "400ms"},
	} {
		out, err := exec.Command(filepath.Join(bin, "trafficgen"), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("trafficgen %v: %v\n%s", args, err, out)
		}
		s := string(out)
		for _, want := range []string{"top talkers", "EXACT", "churned="} {
			if !strings.Contains(s, want) {
				t.Errorf("trafficgen %v output missing %q:\n%s", args, want, s)
			}
		}
	}
}
