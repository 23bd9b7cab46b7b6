package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// Package is one loaded, typechecked target package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Error      *struct{ Err string }
}

var cgoOff sync.Once

// sourceImporter returns a types importer that typechecks imports from
// source, resolving module paths through the go command. Cgo is
// disabled process-wide so cgo-optional std packages (net, os/user)
// come up in their pure-Go configuration and stay typecheckable.
func sourceImporter(fset *token.FileSet) types.ImporterFrom {
	cgoOff.Do(func() { build.Default.CgoEnabled = false })
	return importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
}

// CheckPackage parses and typechecks one package from its files.
// Imports — the module's own packages and the standard library alike —
// are typechecked from source through imp.
func CheckPackage(fset *token.FileSet, imp types.ImporterFrom, path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, _ := conf.Check(path, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("typecheck %s: %w (and %d more)", path, typeErrs[0], len(typeErrs)-1)
	}
	return &Package{Path: path, Dir: dirOf(filenames), Fset: fset, Files: files, Types: pkg, Info: info}, nil
}

func dirOf(filenames []string) string {
	if len(filenames) == 0 {
		return ""
	}
	return filepath.Dir(filenames[0])
}

// CheckFixture typechecks one testdata fixture package under an
// arbitrary import path — the analysistest entry point. Fixture
// imports (standard library or this module's packages) resolve from
// source like any other load.
func CheckFixture(fset *token.FileSet, path string, filenames []string) (*Package, error) {
	return CheckPackage(fset, sourceImporter(fset), path, filenames)
}

// ModuleDir resolves the root directory of the main module governing
// dir, so diagnostic positions can be reported module-relative — the
// same path on every machine and in every checkout, which is what lets
// CI annotations land on the right file.
func ModuleDir(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, errb.String())
	}
	return strings.TrimSpace(out.String()), nil
}

// Load enumerates the packages matching patterns (relative to dir, the
// module root) with the go command and typechecks each. Test files are
// not loaded: the invariants gate production code, and _test.go files
// are where wall clocks and allocations are legitimate.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Error", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		listed = append(listed, lp)
	}

	fset := token.NewFileSet()
	imp := sourceImporter(fset)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			filenames[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := CheckPackage(fset, imp, lp.ImportPath, filenames)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// directiveCheck names the diagnostics Analyze itself reports.
var directiveCheck = &Analyzer{Name: "directive", Doc: "flags //harmless: comments no analyzer reads"}

// Analyze loads the packages matching patterns and runs every analyzer
// over each package, returning the combined, position-sorted diagnostics
// with filenames normalized to module-relative slash paths. A
// //harmless: comment no analyzer reads is a diagnostic of its own.
func Analyze(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		NewPass(directiveCheck, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, report).ReportUnknown()
	}
	for _, a := range analyzers {
		for _, pkg := range pkgs {
			pass := NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, report)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	if modDir, err := ModuleDir(dir); err == nil && modDir != "" {
		for i := range diags {
			diags[i].Pos.Filename = RelativePath(modDir, diags[i].Pos.Filename)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}

// RelativePath rewrites an absolute position filename to a
// module-relative slash path. Files outside root (should not happen
// for module loads) keep their absolute name.
func RelativePath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return filepath.ToSlash(rel)
}
