package errdrop

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// TestCallGraphReachable pins what "on a teardown path" means: direct
// calls and functions merely referenced (a callback handed to run) are
// reachable from the root that names them, and nothing else is.
func TestCallGraphReachable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fixture.go")
	src := `package fixture

type T struct{}

func (t *T) Close() { t.helperA() }
func (t *T) helperA() { helperB() }
func helperB() {}
func unrelated() {}
func callback() {}
func (t *T) Stop() { run(callback) }
func run(f func()) { f() }
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := analysis.CheckFixture(fset, "fixture", []string{path})
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	pass := analysis.NewPass(Analyzer, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, func(analysis.Diagnostic) {})

	got := make(map[string]string)
	for fn, root := range reachableFromRoots(newGraph(pass)) {
		got[fn.Name()] = root
	}
	want := map[string]string{
		"Close": "Close", "helperA": "Close", "helperB": "Close",
		"Stop": "Stop", "run": "Stop", "callback": "Stop",
	}
	for name, root := range want {
		if got[name] != root {
			t.Errorf("%s: reachable from %q, want %q (all: %v)", name, got[name], root, got)
		}
	}
	if root, ok := got["unrelated"]; ok {
		t.Errorf("unrelated is reachable from %q, want unreachable", root)
	}
}
