package legacy

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzCLI drives a session on a real switch with arbitrary line
// sequences: no line may panic the interpreter, and a line the CLI
// refuses (% Invalid, % Incomplete) must leave the running config as
// it was — a refused command is never half applied.
func FuzzCLI(f *testing.F) {
	for _, script := range []string{
		"enable\nconfigure terminal\nvlan 101\nname harmless-p1\nexit\ninterface gi0/1\nswitchport mode access\nswitchport access vlan 101\nend",
		"en\nconf t\ninterface gi0/4\nswitchport mode trunk\nswitchport trunk allowed vlan 101,102\nswitchport trunk native vlan 1\nswitchport trunk allowed vlan add 103-104",
		"enable\nconf t\ninterface gi0/2\nswitchport trunk allowed vlan 0-3\nshutdown\nno shutdown\nexit\nno vlan 101\nhostname core",
		"enable\nshow running-config\nshow vlan brief\nshow interfaces status\nshow mac address-table\nclear mac address-table\ndisable\nexit",
	} {
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script string) {
		sw := NewSwitch("sw1", 4)
		sess := &cliSession{srv: NewCLIServer(sw, DialectCiscoish), mode: modeExec}
		lines := strings.Split(script, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		for _, line := range lines {
			before, shown := sw.Config(), sess.showRunning()
			out, quit := sess.handleLine(line)
			if strings.Contains(out, "% Invalid") || strings.Contains(out, "% Incomplete") {
				if !reflect.DeepEqual(sw.Config(), before) {
					t.Fatalf("refused line %q changed the config:\n--- before ---\n%s--- after ---\n%s", line, shown, sess.showRunning())
				}
			}
			if quit {
				return
			}
		}
	})
}
