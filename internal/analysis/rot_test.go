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

// TestDirectiveRot proves the rot rules hold for every escape hatch
// the suite owns, not just the ones whose analyzer fixtures happen to
// cover them: a bare hatch still suppresses but is itself a
// diagnostic, a hatch that suppresses nothing is a diagnostic, and a
// reasoned, used hatch is silent. The per-analyzer fixtures cover the
// same rules end-to-end through each real analyzer; this table pins
// the framework behavior per directive name.
func TestDirectiveRot(t *testing.T) {
	directives := []struct {
		name     string
		analyzer string
	}{
		{"allow-wallclock", "clockinject"},
		{"allow-alloc", "hotpathalloc"},
		{"allow-unclipped", "frameown"},
		{"allow-maporder", "detorder"},
		{"allow-plain", "atomicmix"},
		{"allow-droperr", "errdrop"},
	}
	for _, tc := range directives {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			file := filepath.Join(dir, "fix.go")
			src := fmt.Sprintf(rotFixture, tc.name)
			if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			pkg, err := analysis.CheckPackage(fset, nil, "fix", []string{file})
			if err != nil {
				t.Fatal(err)
			}

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

			var got []analysis.Diagnostic
			pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info,
				func(d analysis.Diagnostic) { got = append(got, d) })
			if err := a.Run(pass); err != nil {
				t.Fatal(err)
			}
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
