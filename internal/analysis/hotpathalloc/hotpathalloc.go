// Package hotpathalloc enforces the datapath's zero-alloc contract.
//
// The repo's headline performance claims are bench-gated at 0
// allocs/op on the cache hit path (TestTelemetryZeroAllocCacheHit,
// TestChainDatapathZeroAlloc). Benchmarks only catch regressions on the
// workloads they run; this analyzer catches them at review time on
// every path through a function annotated //harmless:hotpath by
// flagging the constructs that allocate (or may): map and slice
// literals, &composite literals, make/new, append growth, closures,
// go statements, string<->[]byte conversions, and values boxed into
// interfaces.
//
// Two directions keep the contract honest:
//
//   - any function annotated //harmless:hotpath is checked;
//   - the known zero-alloc entry points (Required below: the flow
//     cache probe/lookup, the ReceiveBatch dispatch, its run replay and
//     its per-burst credit, the worker pool's Dispatch and drain on either side of
//     it, the legacy bridge's burst forward and FDB step, the owned
//     VLAN mutators and the key packing, ObserveBatch, the
//     Ring/TypedRing push/pop) MUST carry the annotation, so nobody
//     quietly drops a hot path out of enforcement.
//
// A cold branch inside a hot function — the cache install path on a
// miss, say — is excused line by line with
// //harmless:allow-alloc <reason>.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags allocating constructs inside //harmless:hotpath functions",
	Run:  run,
}

// Required maps a package import path to the functions (receiver.name
// or plain name) that must be annotated //harmless:hotpath. These are
// the entry points the bench gates measure at 0 allocs/op; the
// "hotpathalloc/required" key is the analyzer's own test fixture.
var Required = map[string][]string{
	"github.com/harmless-sdn/harmless/internal/softswitch": {
		"flowCache.lookup",
		"flowCache.probeBatch",
		"flowStore.lookup",
		"flowStore.probeBatch",
		"Switch.ReceiveBatch",
		"Switch.processBatch",
		"Switch.classifyAndRun",
		"Switch.replay",
		"Switch.applyRun",
		"txContext.credit",
		"txContext.flushCredits",
	},
	"github.com/harmless-sdn/harmless/internal/softswitch/runtime": {
		"Pool.Dispatch",
		"Pool.drain",
	},
	"github.com/harmless-sdn/harmless/internal/legacy": {
		"Switch.forward",
		"FDB.stepLocked",
	},
	"github.com/harmless-sdn/harmless/internal/pkt": {
		"PushVLANOwned",
		"PopVLANOwned",
		"ExtractFlat",
	},
	"github.com/harmless-sdn/harmless/internal/telemetry": {
		"Table.Observe",
		"Table.ObserveBatch",
		"Table.observeLocked",
	},
	"github.com/harmless-sdn/harmless/internal/dataplane": {
		"TypedRing.Push",
		"TypedRing.Pop",
		"Ring.PushFrame",
		"Ring.PopFrame",
	},
	"github.com/harmless-sdn/harmless/internal/migrate": {
		"Executor.checkConservation",
	},
	"hotpathalloc/required": {
		"mustBeHot",
	},
}

const (
	annotation = "hotpath"
	hatch      = "allow-alloc"
)

func run(pass *analysis.Pass) error {
	required := make(map[string]bool)
	for _, name := range Required[pass.Pkg.Path()] {
		required[name] = true
	}
	seen := make(map[string]bool)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := funcName(fn)
			annotated := pass.FuncDirective(fn, annotation) != nil
			if annotated {
				seen[name] = true
				if fn.Body != nil {
					checkBody(pass, fn)
				}
			}
			if required[name] && !annotated {
				pass.Reportf(fn.Name.Pos(),
					"%s is a declared zero-alloc hot path and must be annotated //harmless:hotpath", name)
				seen[name] = true // reported; not also "missing"
			}
		}
	}
	for name := range required {
		if !seen[name] {
			// The function the contract names no longer exists — that is
			// a rename or removal the Required table must follow.
			pass.Reportf(pass.Files[0].Package,
				"required hot path %s not found in %s (update hotpathalloc.Required)", name, pass.Pkg.Path())
		}
	}
	pass.ReportUnused(hatch)
	return nil
}

// funcName renders a FuncDecl as "Recv.Name" or "Name", dropping
// pointerness and type parameters so "(*TypedRing[T]).Push" is
// "TypedRing.Push".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name + "." + fn.Name.Name
	case *ast.IndexExpr: // generic receiver: TypedRing[T]
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	case *ast.IndexListExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// checkBody walks one annotated function and reports every allocating
// construct that is not excused.
func checkBody(pass *analysis.Pass, fn *ast.FuncDecl) {
	report := func(pos ast.Node, format string, args ...any) {
		if pass.Suppressed(pos.Pos(), hatch) {
			return
		}
		pass.Reportf(pos.Pos(), "hot path: "+format, args...)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x, "function literal allocates (closure)")
			return false // its body is the closure's problem
		case *ast.GoStmt:
			report(x, "go statement allocates a goroutine")
		case *ast.CompositeLit:
			switch pass.TypesInfo.Types[x].Type.Underlying().(type) {
			case *types.Map:
				report(x, "map literal allocates")
			case *types.Slice:
				report(x, "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x, "&composite literal allocates")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, report, x)
		case *ast.AssignStmt:
			checkAssignBoxing(pass, report, x)
		case *ast.ReturnStmt:
			checkReturnBoxing(pass, report, fn, x)
		}
		return true
	})
}

// checkCall classifies one call inside a hot body: allocating builtins,
// allocating conversions, and arguments boxed into interface
// parameters.
func checkCall(pass *analysis.Pass, report func(ast.Node, string, ...any), call *ast.CallExpr) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call, "make allocates")
			case "new":
				report(call, "new allocates")
			case "append":
				report(call, "append may allocate on growth")
			}
			return
		}
	}
	// Conversions: T(x) where Fun is a type.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to, from := tv.Type.Underlying(), typeOf(pass, call.Args[0])
		if from != nil && conversionAllocates(to, from.Underlying()) {
			report(call, "conversion between string and byte/rune slice allocates")
		}
		return
	}
	// Interface boxing at the call boundary.
	ft := typeOf(pass, call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				param = sig.Params().At(sig.Params().Len() - 1).Type() // []T passed whole
			} else {
				param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if boxes(pass, param, arg) {
			report(arg, "argument boxed into interface %s allocates", param)
		}
	}
}

// checkAssignBoxing flags `ifaceVar = concrete` stores.
func checkAssignBoxing(pass *analysis.Pass, report func(ast.Node, string, ...any), as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN {
		return // := infers the concrete type; no boxing
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // n:=f() multi-assign; conversion happens in the callee
		}
		if boxes(pass, typeOf(pass, lhs), as.Rhs[i]) {
			report(as.Rhs[i], "value boxed into interface %s allocates", typeOf(pass, lhs))
		}
	}
}

// checkReturnBoxing flags concrete values returned as interface
// results.
func checkReturnBoxing(pass *analysis.Pass, report func(ast.Node, string, ...any), fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	sig, ok := pass.TypesInfo.Defs[fn.Name].Type().(*types.Signature)
	if !ok || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		if boxes(pass, sig.Results().At(i).Type(), res) {
			report(res, "value boxed into interface %s allocates", sig.Results().At(i).Type())
		}
	}
}

// boxes reports whether storing expr into a target of type to performs
// an allocating interface conversion: to is an interface, expr's type
// is concrete, and the value is not pointer-shaped (pointers, chans,
// maps and funcs ride in the iface data word without allocating).
func boxes(pass *analysis.Pass, to types.Type, expr ast.Expr) bool {
	if to == nil || !types.IsInterface(to) {
		return false
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

// conversionAllocates reports whether a conversion between the two
// underlying types copies memory: string <-> []byte/[]rune either way.
func conversionAllocates(to, from types.Type) bool {
	return (isString(to) && isByteOrRuneSlice(from)) ||
		(isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return e.Kind() == types.Byte || e.Kind() == types.Uint8 || e.Kind() == types.Rune || e.Kind() == types.Int32
}

// typeOf returns the static type of expr, or nil.
func typeOf(pass *analysis.Pass, expr ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		return tv.Type
	}
	return nil
}
