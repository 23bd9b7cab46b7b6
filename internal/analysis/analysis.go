// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis surface this repo needs: typed AST
// passes over the module's packages, position-attached diagnostics,
// and //harmless: source directives with mandatory justifications.
//
// Two invariants the compiler cannot see and no test run reliably
// reaches are checked here: borrowed dataplane frames handed on
// unclipped (frameown) and errors that vanish on a rollback (errdrop),
// one package each next to this one. The rest are held by running
// code: zero-alloc datapaths by AllocsPerRun tests, injected clocks by
// ManualClock tests and twice-run digests, atomic discipline by typed
// atomics (TestAtomicsAreTyped); lock and shard copies are go vet's
// copylocks. cmd/harmlesslint is the multichecker that runs the
// analyzers, and `make lint` / CI fail on any diagnostic: a finding is
// fixed, or hatched with a reason.
//
// # Directives
//
// Source annotations all share the //harmless: namespace:
//
//	//harmless:allow-unclipped <reason>
//	//harmless:allow-droperr <reason>
//	    escape hatches suppressing one diagnostic of the owning
//	    analyzer on the same line or the line directly below the
//	    comment. The reason is mandatory: a bare escape hatch is
//	    itself a diagnostic, and so is a hatch that suppresses
//	    nothing (both rot otherwise).
//
// Any other name under //harmless: is a diagnostic too (a typo, or a
// hatch whose analyzer is gone, would otherwise be ignored in silence).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a fully typechecked
// package through the Pass and reports diagnostics; it returns an
// error only for internal failures (a broken analyzer), never for
// findings.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding, attached to a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// SortDiagnostics orders diagnostics by (file, line, column, message)
// so output is stable across runs.
func SortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// Pass carries one typechecked package into one analyzer run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives each diagnostic as the analyzer finds it.
	Report func(Diagnostic)

	directives map[lineKey][]*Directive
}

// lineKey addresses one source line.
type lineKey struct {
	file string
	line int
}

// Directive is one parsed //harmless:<name> <reason> comment.
type Directive struct {
	Name   string // e.g. "allow-droperr"
	Reason string
	Pos    token.Pos
	used   bool
}

// DirectivePrefix is the comment namespace all directives live in.
const DirectivePrefix = "//harmless:"

// knownDirectives is every name some analyzer of the suite reads.
var knownDirectives = map[string]bool{
	"allow-unclipped": true,
	"allow-droperr":   true,
}

// NewPass assembles a pass and indexes the package's directives.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	p := &Pass{
		Analyzer: a, Fset: fset, Files: files, Pkg: pkg,
		TypesInfo: info, Report: report,
		directives: make(map[lineKey][]*Directive),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d := ParseDirective(c)
				if d == nil {
					continue
				}
				pos := fset.Position(c.Slash)
				k := lineKey{file: pos.Filename, line: pos.Line}
				p.directives[k] = append(p.directives[k], d)
			}
		}
	}
	return p
}

// ParseDirective parses one comment into a directive, or nil. A
// trailing "// want ..." clause (the analysistest expectation syntax)
// is not part of the reason.
func ParseDirective(c *ast.Comment) *Directive {
	text, ok := strings.CutPrefix(c.Text, DirectivePrefix)
	if !ok {
		return nil
	}
	if i := strings.Index(text, "// want"); i >= 0 {
		text = text[:i]
	}
	name, reason, _ := strings.Cut(text, " ")
	return &Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Slash}
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a //harmless:<name> escape hatch covers
// pos — on the same line, or on the line directly above (a directive
// on its own line covers the next line). A matching hatch is marked
// used; a matching hatch without a reason still suppresses but is
// reported as its own diagnostic, so no suppression goes unexplained.
func (p *Pass) Suppressed(pos token.Pos, name string) bool {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range p.directives[lineKey{file: position.Filename, line: line}] {
			if d.Name != name {
				continue
			}
			if !d.used && d.Reason == "" {
				p.Reportf(d.Pos, "//harmless:%s needs a reason", name)
			}
			d.used = true
			return true
		}
	}
	return false
}

// ReportUnused flags every //harmless:<name> directive in the package
// that suppressed nothing. Analyzers call it at the end of Run for the
// directive names they own — but only when the package was actually
// checked, so hatches in out-of-scope packages are not misreported.
func (p *Pass) ReportUnused(names ...string) {
	owned := make(map[string]bool, len(names))
	for _, n := range names {
		owned[n] = true
	}
	var unused []*Directive
	for _, ds := range p.directives {
		for _, d := range ds {
			if owned[d.Name] && !d.used {
				unused = append(unused, d)
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].Pos < unused[j].Pos })
	for _, d := range unused {
		p.Reportf(d.Pos, "unused //harmless:%s directive", d.Name)
	}
}

// ReportUnknown flags every //harmless: comment in the package whose
// name no analyzer reads. Analyze runs it once per package and sorts
// what it reports.
func (p *Pass) ReportUnknown() {
	for _, ds := range p.directives {
		for _, d := range ds {
			if !knownDirectives[d.Name] {
				p.Reportf(d.Pos, "unknown directive //harmless:%s: no analyzer reads it; fix the name or delete it", d.Name)
			}
		}
	}
}
