package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// rotFixture exercises one directive name through the shared
// suppression machinery: a bare hatch that suppresses a finding, a
// reasoned hatch that suppresses one silently, a hatch that suppresses
// nothing, and an unsuppressed finding.
const rotFixture = `package fix

func bare() {
	_ = 1 //harmless:%[1]s
}

func covered() {
	//harmless:%[1]s a documented, reasoned suppression
	_ = 2
}

func stale() {
	//harmless:%[1]s nothing below is suppressed

	x := 3
	_ = x
}

func unsuppressed() {
	_ = 4
}
`

// rotPass typechecks rotFixture written with one directive name and
// returns a pass for analyzer a over it, with the diagnostics it
// collects.
func rotPass(t *testing.T, name string, a *analysis.Analyzer) (*analysis.Pass, *[]analysis.Diagnostic) {
	t.Helper()
	file := filepath.Join(t.TempDir(), "fix.go")
	if err := os.WriteFile(file, []byte(fmt.Sprintf(rotFixture, name)), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.CheckPackage(token.NewFileSet(), nil, "fix", []string{file})
	if err != nil {
		t.Fatal(err)
	}
	got := new([]analysis.Diagnostic)
	return analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info,
		func(d analysis.Diagnostic) { *got = append(*got, d) }), got
}

// TestDirectiveRot proves the rot rules hold for every escape hatch
// the suite owns, not just the ones whose analyzer fixtures happen to
// cover them: a bare hatch still suppresses but is itself a
// diagnostic, a hatch that suppresses nothing is a diagnostic, and a
// reasoned, used hatch is silent. The per-analyzer fixtures cover the
// same rules end-to-end through each real analyzer; this table pins
// the framework behavior per directive name. A hatch whose analyzer is
// gone rots a third way: every one left behind is an unknown directive.
func TestDirectiveRot(t *testing.T) {
	directives := []struct {
		name     string
		analyzer string
	}{
		{"allow-unclipped", "frameown"},
		{"allow-droperr", "errdrop"},
	}
	for _, tc := range directives {
		t.Run(tc.name, func(t *testing.T) {
			// The stub analyzer stands in for the directive's owner:
			// it "finds" every `_ = <literal>` assignment unless the
			// hatch suppresses it.
			a := &analysis.Analyzer{Name: tc.analyzer, Doc: "rot-test stub"}
			a.Run = func(pass *analysis.Pass) error {
				for _, f := range pass.Files {
					ast.Inspect(f, func(n ast.Node) bool {
						as, ok := n.(*ast.AssignStmt)
						if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
							return true
						}
						if id, ok := as.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
							return true
						}
						if _, ok := as.Rhs[0].(*ast.BasicLit); !ok {
							return true
						}
						if pass.Suppressed(as.Pos(), tc.name) {
							return true
						}
						pass.Reportf(as.Pos(), "synthetic %s finding", tc.analyzer)
						return true
					})
				}
				pass.ReportUnused(tc.name)
				return nil
			}

			pass, diags := rotPass(t, tc.name, a)
			if err := a.Run(pass); err != nil {
				t.Fatal(err)
			}
			pass.ReportUnknown() // a name the suite owns is never unknown
			got := *diags
			analysis.SortDiagnostics(got)

			want := []string{
				"//harmless:" + tc.name + " needs a reason",
				"synthetic " + tc.analyzer + " finding",
				"unused //harmless:" + tc.name + " directive",
			}
			if len(got) != len(want) {
				t.Fatalf("got %d diagnostics, want %d:\n%s", len(got), len(want), render(got))
			}
			for _, w := range want {
				if !containsMessage(got, w) {
					t.Errorf("missing diagnostic %q in:\n%s", w, render(got))
				}
			}
			// The reasoned, used hatch (covered) and the suppressed
			// bare-hatch line must not surface as findings.
			for _, d := range got {
				if d.Message == "synthetic "+tc.analyzer+" finding" && d.Pos.Line != 20 {
					t.Errorf("synthetic finding leaked at line %d (only the unsuppressed one at 20 should fire):\n%s", d.Pos.Line, render(got))
				}
			}
		})
	}

	// A hatch whose analyzer is gone (detorder; hotpathalloc,
	// clockinject and atomicmix, whose invariants tests now hold) must
	// not linger as a comment that looks like it still excuses something.
	for _, name := range []string{"allow-maporder", "allow-wallclock", "allow-alloc", "allow-plain", "hotpath"} {
		t.Run(name, func(t *testing.T) {
			pass, diags := rotPass(t, name, &analysis.Analyzer{Name: "directive"})
			pass.ReportUnknown()
			got := *diags
			analysis.SortDiagnostics(got)
			if len(got) != 3 { // bare, reasoned, stale: each one in the fixture
				t.Fatalf("got %d diagnostics, want 3:\n%s", len(got), render(got))
			}
			for _, d := range got {
				if !strings.HasPrefix(d.Message, "unknown directive //harmless:"+name) {
					t.Errorf("unexpected diagnostic:\n%s", render(got))
				}
			}
		})
	}
}

func containsMessage(ds []analysis.Diagnostic, msg string) bool {
	for _, d := range ds {
		if d.Message == msg {
			return true
		}
	}
	return false
}

func render(ds []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
