// Package analysistest runs an analyzer over a testdata fixture
// package and checks its diagnostics against // want comments, in the
// style of golang.org/x/tools/go/analysis/analysistest (rebuilt here
// on the standard library: the module deliberately has no external
// dependencies).
//
// A fixture line declares its expected diagnostics as one or more
// quoted regular expressions:
//
//	m := map[int]int{} // want "map literal allocates"
//
// Every want must be matched by a diagnostic on its line and every
// diagnostic must match a want; either mismatch fails the test. A
// want clause may ride at the end of a //harmless: directive comment
// (the directive parser strips it from the reason).
package analysistest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// want is one expectation: a regexp that must match a diagnostic
// reported on its line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// Run loads the fixture package in dir (every non-test .go file) under
// the package path pkgPath, runs a, and enforces the // want
// expectations. pkgPath is the import path the fixture typechecks
// under.
func Run(t *testing.T, dir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	var filenames []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	fset := token.NewFileSet()
	pkg, err := analysis.CheckFixture(fset, pkgPath, filenames)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", dir, err)
	}

	wants := collectWants(t, fset, pkg)

	var diags []analysis.Diagnostic
	pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info,
		func(d analysis.Diagnostic) { diags = append(diags, d) })
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s: %v", a.Name, err)
	}
	analysis.SortDiagnostics(diags)

	for i := range diags {
		d := &diags[i]
		if !matchWant(wants, d) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// collectWants scans every comment of the fixture for want clauses.
func collectWants(t *testing.T, fset *token.FileSet, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := fset.Position(c.Slash)
				clause := c.Text[idx+len("// want "):]
				matches := quoted.FindAllString(clause, -1)
				if len(matches) == 0 {
					t.Fatalf("%s: want clause with no quoted pattern: %s", pos, c.Text)
				}
				for _, q := range matches {
					raw, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, raw, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants
}

// matchWant consumes the first unmatched want on the diagnostic's line
// whose pattern matches.
func matchWant(wants []*want, d *analysis.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
