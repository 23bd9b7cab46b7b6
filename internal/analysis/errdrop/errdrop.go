// Package errdrop flags discarded errors on teardown paths.
//
// Rollback is the product's safety story: the migration engine's whole
// pitch is that a failed step unwinds cleanly. A dropped error in a
// function reachable from Rollback, Stop or Close is exactly the
// failure that gets discovered during an outage — the unwind "worked",
// except the flow-mod never made it to the switch and nobody looked at
// the return value. So on every function reachable from one of those
// roots in the package call graph (callgraph.go: direct calls plus
// function references passed as callbacks), a call whose error result
// is discarded — as a bare statement, a defer, or a blank assignment —
// is a diagnostic. The fix is to handle it, aggregate with
// errors.Join, or carry //harmless:allow-droperr <reason> when the
// error is truly unactionable (closing an already-failed transport).
//
// fmt printing, the log package and strings.Builder/bytes.Buffer
// writes (documented to never return a meaningful error) are exempt.
package errdrop

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// Analyzer is the errdrop pass.
var Analyzer = &analysis.Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error results in functions reachable from Rollback/Stop/Close",
	Run:  run,
}

const hatch = "allow-droperr"

// roots are the teardown entry points, matched case-insensitively so
// unexported variants (close, rollbackLegacy's caller rollback, ...)
// anchor the same paths.
func isRoot(name string) bool {
	switch strings.ToLower(name) {
	case "rollback", "stop", "close", "shutdown":
		return true
	}
	return false
}

func run(pass *analysis.Pass) error {
	g := newGraph(pass)
	rootOf := reachableFromRoots(g)
	if len(rootOf) > 0 {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				root, reachable := rootOf[fn]
				if !reachable {
					continue
				}
				checkBody(pass, fd.Body, root)
			}
		}
	}
	pass.ReportUnused(hatch)
	return nil
}

// reachableFromRoots maps every function reachable from a teardown
// root to the name of the (first, in source order) root that reaches
// it — deterministic provenance for the message.
func reachableFromRoots(g *graph) map[*types.Func]string {
	var roots []*types.Func
	for fn := range g.decls {
		if isRoot(fn.Name()) {
			roots = append(roots, fn)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	rootOf := make(map[*types.Func]string)
	var visit func(fn *types.Func, root string)
	visit = func(fn *types.Func, root string) {
		if _, seen := rootOf[fn]; seen {
			return
		}
		rootOf[fn] = root
		for _, callee := range g.callees[fn] {
			visit(callee, root)
		}
	}
	for _, r := range roots {
		visit(r, r.Name())
	}
	return rootOf
}

// checkBody reports every discarded error result in one reachable
// function body. Function literals inside count: they run (or defer)
// on the same teardown path.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, root string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ExprStmt:
			if call, ok := x.X.(*ast.CallExpr); ok {
				checkDiscard(pass, call, root)
			}
		case *ast.DeferStmt:
			checkDiscard(pass, x.Call, root)
		case *ast.GoStmt:
			// The goroutine outlives the statement; its result was
			// never observable here.
			return true
		case *ast.AssignStmt:
			checkBlankAssign(pass, x, root)
		}
		return true
	})
}

// checkDiscard flags a call statement whose results include an error.
func checkDiscard(pass *analysis.Pass, call *ast.CallExpr, root string) {
	if !returnsError(pass, call) || exempt(pass, call) {
		return
	}
	report(pass, call, root)
}

// checkBlankAssign flags `_ = f()` and `v, _ := f()` when the blank
// slot holds the error.
func checkBlankAssign(pass *analysis.Pass, x *ast.AssignStmt, root string) {
	if len(x.Rhs) == 1 && len(x.Lhs) > 1 {
		// One call, several targets: the result tuple positions map
		// one-to-one onto the left-hand side.
		call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			return
		}
		tuple, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(x.Lhs) {
			return
		}
		for i, lhs := range x.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				report(pass, call, root)
				return
			}
		}
		return
	}
	for i, lhs := range x.Lhs {
		if !isBlank(lhs) || i >= len(x.Rhs) {
			continue
		}
		call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
		if !ok || exempt(pass, call) {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[call]; ok && isErrorType(tv.Type) {
			report(pass, call, root)
		}
	}
}

func report(pass *analysis.Pass, call *ast.CallExpr, root string) {
	if pass.Suppressed(call.Pos(), hatch) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s discarded on a teardown path (reachable from %s); handle it, aggregate with errors.Join, or add //harmless:allow-droperr <reason>",
		calleeName(pass, call), root)
}

// returnsError reports whether call's (single or last tuple) result is
// an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		return tuple.Len() > 0 && isErrorType(tuple.At(tuple.Len()-1).Type())
	}
	return isErrorType(tv.Type)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// exempt lists the callees whose error results are conventionally
// ignored: fmt and log output, and the in-memory writers whose Write
// methods are documented to always succeed.
func exempt(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt", "log":
		return true
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	if fn := calleeFunc(pass, call); fn != nil {
		return fn.Name()
	}
	return "call"
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}
