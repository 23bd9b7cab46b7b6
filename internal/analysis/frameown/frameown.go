// Package frameown enforces the dataplane frame-ownership rule a
// caller can break without the compiler noticing: a frame is handed to
// the datapath together with the capacity behind it.
//
// The datapath owns a frame it is handed together with the spare
// capacity behind it, and grows it in place (pkt.PushVLANOwned). A
// frame cut out of a larger live buffer with a two-index slice
// (buf[i:j]) still reaches the bytes behind j — the next frame of an
// arena, the rest of a read buffer — so handing one to a datapath
// entry point (netem.Port.Send/SendBatch,
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
	Doc:  "flags frames cut from a larger buffer handed to the datapath without a capacity bound",
	Run:  run,
}

const clipHatch = "allow-unclipped"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkClipped(pass, fn)
			}
		}
	}
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

// typeOf returns the static type of expr, or nil.
func typeOf(pass *analysis.Pass, expr ast.Expr) types.Type {
	if tv, ok := pass.TypesInfo.Types[expr]; ok {
		return tv.Type
	}
	return nil
}
