package mgmt

import (
	"strings"
	"sync"
	"testing"

	"github.com/harmless-sdn/harmless/internal/legacy"
)

func TestDriverAristaTrunkConfig(t *testing.T) {
	sw := legacy.NewSwitch("ar-trunk", 6)
	addr := newDeviceRig(t, sw, legacy.DialectAristaish)
	d, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.ConfigureTrunkPort(6, 1, []uint16{101, 102, 103}); err != nil {
		t.Fatal(err)
	}
	pc := sw.Config().Ports[6]
	if pc.Mode != legacy.ModeTrunk || pc.PVID != 1 {
		t.Errorf("trunk: %+v", pc)
	}
	if al := pc.AllowedList(); len(al) != 3 || al[2] != 103 {
		t.Errorf("allowed: %v", al)
	}
	// Trunk with empty allowed list: all VLANs.
	if err := d.ConfigureTrunkPort(5, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := sw.Config().Ports[5].AllowedList(); got != nil {
		t.Errorf("allowed-all: %v", got)
	}
	rc, err := d.RunningConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rc, "interface Ethernet6") {
		t.Errorf("arista names missing from config:\n%s", rc)
	}
}

// TestConcurrentManagementSessions drives several CLI sessions against
// one switch in parallel — the management plane must serialize safely.
// Under -short only a quarter of the sessions run, so the CI race
// matrix stays fast.
func TestConcurrentManagementSessions(t *testing.T) {
	sessions := 8
	if testing.Short() {
		sessions = 2
	}
	sw := legacy.NewSwitch("conc", 24)
	addr := newDeviceRig(t, sw, legacy.DialectCiscoish)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d, err := connect(addr)
			if err != nil {
				errs <- err
				return
			}
			defer d.Close()
			for p := w*3 + 1; p <= w*3+3; p++ {
				if err := d.ConfigureAccessPort(p, uint16(200+p)); err != nil {
					errs <- err
					return
				}
			}
			if _, err := d.Facts(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cfg := sw.Config()
	for p := 1; p <= sessions*3; p++ {
		if cfg.Ports[p].PVID != uint16(200+p) {
			t.Errorf("port %d PVID = %d", p, cfg.Ports[p].PVID)
		}
	}
}

func TestParseVersionFailures(t *testing.T) {
	if _, err := parseCiscoVersion("garbage"); err == nil {
		t.Error("cisco garbage accepted")
	}
	if _, err := parseAristaVersion("garbage"); err == nil {
		t.Error("arista garbage accepted")
	}
}

func TestNewDriverUnidentifiableDevice(t *testing.T) {
	// A pipe-based fake speaking just enough CLI: a prompt, then an
	// unknown banner for every command, "show version" included.
	c1, c2 := newLoopPipe(t)
	go func() {
		buf := make([]byte, 1024)
		_, _ = c2.Write([]byte("box>"))
		for {
			if _, err := c2.Read(buf); err != nil {
				return
			}
			_, _ = c2.Write([]byte("MysteryOS v1\r\nbox>"))
		}
	}()
	if _, err := NewDriver(c1); err == nil {
		t.Error("unidentifiable device accepted")
	}
}
