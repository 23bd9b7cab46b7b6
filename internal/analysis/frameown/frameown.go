// Package frameown enforces the dataplane frame-ownership rule.
//
// A dataplane.Batch is a borrowed view: its Frames slices belong to
// the producer (a ring slot, a netem delivery buffer, a pooled
// vector) and are valid only until the receiver returns its verdict —
// after that the producer recycles the backing arrays. Anything that
// needs frame bytes beyond the call (captures, telemetry samples,
// queued work) must copy them; retaining the slice itself aliases
// memory that is about to be rewritten, which corrupts silently and
// only under load.
//
// The analyzer tracks, within each function, every value derived from
// a Batch's Frames — b.Frames itself, b.Frames[i], subslices, range
// variables, and locals assigned from any of those — and reports when
// one escapes the call: stored into a struct field, a package-level
// variable, or an element of either, or sent on a channel. Explicit
// copies (append(nil, f...), and anything routed through a copying
// call — the tracking deliberately does not flow through calls) are
// fine; a deliberate hand-off is excused with
// //harmless:allow-retain <reason>.
//
// The second rule is about capacity. The datapath owns a frame it is
// handed together with the spare capacity behind it, and grows it in
// place (pkt.PushVLANOwned). A frame cut out of a larger live buffer
// with a two-index slice (buf[i:j]) still reaches the bytes behind j —
// the next frame of an arena, the rest of a read buffer — so handing
// one to a datapath entry point (netem.Port.Send/SendBatch,
// softswitch.Switch.Receive/ReceiveBatch, fabric.Host.SendRaw/
// SendRawBatch, runtime.Pool.Dispatch/DispatchBatch) is reported
// unless it is clipped with a full slice expression (buf[i:j:j], or
// :j+tailroom for room that really is the frame's). The check follows
// the expression itself, a local it was assigned to, and a local vector
// it was stored in; //harmless:allow-unclipped <reason> excuses a
// sub-slice whose tail is the frame's own.
package frameown

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// Analyzer is the frameown pass.
var Analyzer = &analysis.Analyzer{
	Name: "frameown",
	Doc:  "flags dataplane.Batch frame slices retained past the dispatch call",
	Run:  run,
}

const (
	hatch     = "allow-retain"
	clipHatch = "allow-unclipped"
)

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn)
				checkClipped(pass, fn)
			}
		}
	}
	pass.ReportUnused(hatch)
	pass.ReportUnused(clipHatch)
	return nil
}

// ingress lists the datapath entry points that take ownership of a
// frame (or a vector of frames): package path suffix, receiver type,
// method.
var ingress = []struct{ pkg, recv, method string }{
	{"internal/netem", "Port", "Send"},
	{"internal/netem", "Port", "SendBatch"},
	{"internal/softswitch", "Switch", "Receive"},
	{"internal/softswitch", "Switch", "ReceiveBatch"},
	{"internal/fabric", "Host", "SendRaw"},
	{"internal/fabric", "Host", "SendRawBatch"},
	{"internal/softswitch/runtime", "Pool", "Dispatch"},
	{"internal/softswitch/runtime", "Pool", "DispatchBatch"},
}

// checkClipped walks one function in source order and reports frames
// cut from a larger buffer without a capacity bound reaching a datapath
// entry point.
func checkClipped(pass *analysis.Pass, fn *ast.FuncDecl) {
	// open holds the locals that currently alias an unclipped sub-slice:
	// a []byte assigned from one, or a [][]byte one was stored in.
	open := make(map[types.Object]bool)

	var unclipped func(e ast.Expr) bool
	unclipped = func(e ast.Expr) bool {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			return !x.Slice3 && x.High != nil && isByteSlice(typeOf(pass, x))
		case *ast.Ident:
			return open[pass.TypesInfo.Uses[x]]
		case *ast.CompositeLit:
			for _, elt := range x.Elts {
				if unclipped(elt) {
					return true
				}
			}
		case *ast.CallExpr: // append(vec, f)
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && !x.Ellipsis.IsValid() {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					for _, arg := range x.Args {
						if unclipped(arg) {
							return true
						}
					}
				}
			}
		}
		return false
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				lhs := ast.Unparen(x.Lhs[i])
				if ix, ok := lhs.(*ast.IndexExpr); ok { // vec[i] = f
					lhs = ast.Unparen(ix.X)
					if !unclipped(rhs) {
						continue // other slots may still hold one
					}
				}
				if obj := definedObj(pass, lhs); obj != nil && isLocal(pass, fn, obj) {
					open[obj] = unclipped(rhs)
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || !isIngress(pass, sel) {
				return true
			}
			for _, arg := range x.Args {
				if unclipped(arg) && !pass.Suppressed(arg.Pos(), clipHatch) {
					pass.Reportf(arg.Pos(),
						"frame ownership: %s is handed a two-index sub-slice of a larger buffer; the datapath grows frames in place and would write behind it (clip it: buf[i:j:j], or add //harmless:allow-unclipped <reason>)",
						sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// isIngress reports whether sel names one of the ingress methods.
func isIngress(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	path := named.Obj().Pkg().Path()
	for _, in := range ingress {
		if strings.HasSuffix(path, in.pkg) && named.Obj().Name() == in.recv && sel.Sel.Name == in.method {
			return true
		}
	}
	return false
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkFunc walks one function in source order, growing the set of
// locals known to alias batch frames and reporting escapes.
func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	tracked := make(map[types.Object]bool)

	isFrameDerived := func(e ast.Expr) bool { return frameDerived(pass, tracked, e) }

	report := func(n ast.Node, what string) {
		if pass.Suppressed(n.Pos(), hatch) {
			return
		}
		pass.Reportf(n.Pos(),
			"frame ownership: %s retains a dataplane.Batch frame without copying; the producer recycles it after the verdict (copy the bytes or add //harmless:allow-retain <reason>)",
			what)
	}

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			if x.Value != nil && framesSource(pass, x.X) {
				if obj := definedObj(pass, x.Value); obj != nil {
					tracked[obj] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if i >= len(x.Lhs) {
					break
				}
				derived := isFrameDerived(rhs) || appendRetains(pass, tracked, rhs)
				if !derived {
					continue
				}
				lhs := ast.Unparen(x.Lhs[i])
				if id, ok := lhs.(*ast.Ident); ok {
					if id.Name == "_" {
						continue
					}
					if obj := definedObj(pass, id); obj != nil && isLocal(pass, fn, obj) {
						tracked[obj] = true // local alias: fine until it escapes
						continue
					}
					report(rhs, "assignment to package-level variable")
					continue
				}
				if target := escapeTarget(pass, lhs); target != "" {
					report(rhs, "assignment to "+target)
				}
			}
		case *ast.SendStmt:
			if isFrameDerived(x.Value) || appendRetains(pass, tracked, x.Value) {
				report(x.Value, "channel send")
			}
		}
		return true
	})
}

// framesSource reports whether e reads the Frames field of a
// dataplane.Batch (directly or through a pointer).
func framesSource(pass *analysis.Pass, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Frames" {
		return false
	}
	t := typeOf(pass, sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Batch" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/dataplane")
}

// frameDerived reports whether e aliases batch frame memory: the
// Frames field, an index or subslice of a derived value, a tracked
// local, or a composite literal carrying one of those.
func frameDerived(pass *analysis.Pass, tracked map[types.Object]bool, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return tracked[pass.TypesInfo.Uses[x]]
	case *ast.SelectorExpr:
		return framesSource(pass, x)
	case *ast.IndexExpr:
		return frameDerived(pass, tracked, x.X)
	case *ast.SliceExpr:
		return frameDerived(pass, tracked, x.X)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if frameDerived(pass, tracked, elt) {
				return true
			}
		}
	case *ast.UnaryExpr:
		return frameDerived(pass, tracked, x.X)
	}
	return false
}

// appendRetains reports whether e is an append call that places a
// frame slice (not its bytes) into the result: append(dst, frame) is a
// retain, append(dst, frame...) copies the bytes and is fine.
func appendRetains(pass *analysis.Pass, tracked map[types.Object]bool, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if call.Ellipsis.IsValid() {
		return false // append(dst, frame...) copies the bytes out
	}
	for _, arg := range call.Args[1:] {
		if frameDerived(pass, tracked, arg) {
			return true
		}
	}
	// append(frames, x): growing a tracked vector still aliases it.
	return frameDerived(pass, tracked, call.Args[0])
}

// escapeTarget classifies an assignment destination that outlives the
// call: a struct field, a package-level variable, or an element
// reached through either. Locals (including pointer derefs of local
// pointers) return "".
func escapeTarget(pass *analysis.Pass, lhs ast.Expr) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[x]; ok && s.Kind() == types.FieldVal {
			return "struct field " + s.Obj().Name()
		}
		// Qualified package ident: pkg.Var.
		if _, ok := pass.TypesInfo.Uses[x.Sel].(*types.Var); ok {
			return "package-level variable " + x.Sel.Name
		}
	case *ast.IndexExpr:
		if inner := escapeTarget(pass, x.X); inner != "" {
			return "element of " + inner
		}
		// Indexing a package-level slice/map through a plain ident.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && isPackageLevel(v) {
				return "element of package-level variable " + id.Name
			}
		}
	}
	return ""
}

// definedObj resolves an identifier to its object, whether this
// statement defines or uses it.
func definedObj(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// isLocal reports whether obj is declared inside fn (as opposed to a
// package-level variable).
func isLocal(pass *analysis.Pass, fn *ast.FuncDecl, obj types.Object) bool {
	return obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End()
}

// isPackageLevel reports whether v is a package-scoped variable.
func isPackageLevel(v *types.Var) bool {
	return v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// typeOf returns the static type of expr, or nil.
func typeOf(pass *analysis.Pass, expr ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		return tv.Type
	}
	return nil
}
