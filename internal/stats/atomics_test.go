package stats

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestAtomicsAreTyped holds the module's atomic discipline by type: a
// variable shared through sync/atomic is one of its typed values
// (atomic.Uint64, atomic.Pointer[T], ...), whose plain read or write
// does not compile. A call of a package-level function (AddUint64,
// LoadInt64, ...) is what would let one access be atomic and another
// plain, a race only a run that reaches both sides can show, so the
// test fails on any such call in non-test code. The counters in this
// package are those typed values.
func TestAtomicsAreTyped(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		if atomicName(f) == "." {
			t.Errorf("%s: dot-imports sync/atomic, which hides its calls from this test", fset.Position(f.Package))
		}
		for _, call := range atomicCalls(f) {
			t.Errorf("%s: sync/atomic.%s: use a typed atomic (atomic.Int64, atomic.Pointer[T], ...) instead",
				fset.Position(call.Pos()), call.Fun.(*ast.SelectorExpr).Sel.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go files found under %s", root)
	}
}

// moduleRoot walks up from the package directory to the go.mod that
// holds it.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the package directory")
		}
		dir = parent
	}
}

// atomicName returns the name f imports sync/atomic under, or "".
func atomicName(f *ast.File) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "sync/atomic" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "atomic"
		}
	}
	return ""
}

// atomicCalls returns every call through f's sync/atomic import name.
func atomicCalls(f *ast.File) []*ast.CallExpr {
	local := atomicName(f)
	if local == "" || local == "_" || local == "." {
		return nil
	}
	var calls []*ast.CallExpr
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				calls = append(calls, call)
			}
		}
		return true
	})
	return calls
}
