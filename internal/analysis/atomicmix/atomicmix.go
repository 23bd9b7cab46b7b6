// Package atomicmix enforces all-or-nothing atomicity per struct
// field, module-wide.
//
// A field touched through sync/atomic anywhere in the module —
// atomic.AddUint64(&s.hits, 1) in the softswitch datapath, say — must
// be touched through sync/atomic everywhere. A plain write races every
// atomic reader; a plain read may see a value the race detector only
// catches on schedules that interleave, and both are bugs that sit
// silent until a production core count shakes them out. Reads count
// as much as writes, and access from a *different* package than the
// atomic ops (the classic leak, because nothing on the screen hints at
// the discipline) is caught by keying fields on their declaration
// position, which is identical no matter which package's typecheck
// resolved the selector.
//
// Typed atomics (atomic.Uint64 and friends) are the structurally safe
// alternative — plain access to them does not compile — so this pass
// only tracks fields reached through the function-style API. Copies of
// typed atomics are go vet's department (copylocks).
//
// Construction-time initialization before a struct is published is the
// legitimate exception; it carries //harmless:allow-plain <reason>.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// Analyzer is the atomicmix module pass.
var Analyzer = &analysis.Analyzer{
	Name:      "atomicmix",
	Doc:       "flags plain reads/writes of struct fields accessed via sync/atomic anywhere in the module",
	RunModule: runModule,
}

const hatch = "allow-plain"

// fieldInfo describes one field known to be accessed atomically.
type fieldInfo struct {
	name string // field name, for messages
	at   string // file (base name) of the first atomic op seen, for messages
}

func runModule(mp *analysis.ModulePass) error {
	// Pass 1: collect every field passed by address to a sync/atomic
	// operation, keyed by declaration position — the one identity that
	// survives a package being typechecked both as a target and as an
	// import of another target.
	fields := make(map[string]*fieldInfo)
	for _, pass := range mp.Passes {
		collectAtomicFields(pass, fields)
	}
	// Pass 2: report plain access to those fields everywhere.
	for _, pass := range mp.Passes {
		if len(fields) > 0 {
			checkPlainAccess(pass, fields)
		}
		pass.ReportUnused(hatch)
	}
	return nil
}

// fieldKey is a field's declaration position, rendered through the
// pass's fset: file:line:col is the same string in every package that
// sees the field.
func fieldKey(pass *analysis.Pass, fv *types.Var) string {
	return pass.Fset.Position(fv.Pos()).String()
}

func collectAtomicFields(pass *analysis.Pass, fields map[string]*fieldInfo) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isAtomicCall(pass, call) || len(call.Args) == 0 {
				return true
			}
			fv := addressedField(pass, call.Args[0])
			if fv == nil {
				return true
			}
			key := fieldKey(pass, fv)
			if fields[key] == nil {
				fields[key] = &fieldInfo{
					name: fv.Name(),
					at:   filepath.Base(pass.Fset.Position(call.Pos()).Filename),
				}
			}
			return true
		})
	}
}

func checkPlainAccess(pass *analysis.Pass, fields map[string]*fieldInfo) {
	for _, f := range pass.Files {
		// First sweep: the selectors sanctioned as atomic operands, and
		// the selectors that are assignment targets.
		sanctioned := make(map[ast.Node]bool)
		writes := make(map[ast.Node]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isAtomicCall(pass, x) && len(x.Args) > 0 {
					if sel := addressedSelector(x.Args[0]); sel != nil {
						sanctioned[sel] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
			return true
		})
		// Second sweep: every remaining selector of a tracked field is
		// a plain access. Taking the address outside an atomic op
		// counts as a read — the pointer enables unsynchronized access.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fv := fieldOf(pass, sel)
			if fv == nil {
				return true
			}
			info := fields[fieldKey(pass, fv)]
			if info == nil || pass.Suppressed(sel.Pos(), hatch) {
				return true
			}
			if writes[sel] {
				pass.Reportf(sel.Pos(),
					"plain write to field %s, which is accessed via sync/atomic (%s): the write races atomic readers; use the atomic op (or add //harmless:allow-plain <reason>)",
					info.name, info.at)
			} else {
				pass.Reportf(sel.Pos(),
					"plain read of field %s, which is accessed via sync/atomic (%s): the read races atomic writers; use the atomic load (or add //harmless:allow-plain <reason>)",
					info.name, info.at)
			}
			return true
		})
	}
}

// isAtomicCall matches sync/atomic's function-style operations
// (AddUint64, LoadInt32, StoreUint64, SwapPointer, CompareAndSwap...).
func isAtomicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !atomicOp(sel.Sel.Name) {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "sync/atomic"
}

func atomicOp(name string) bool {
	for _, p := range []string{"Add", "And", "Or", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// addressedSelector unwraps &x.f to the selector node.
func addressedSelector(arg ast.Expr) *ast.SelectorExpr {
	u, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil
	}
	sel, _ := ast.Unparen(u.X).(*ast.SelectorExpr)
	return sel
}

// addressedField resolves &x.f to the field object, or nil.
func addressedField(pass *analysis.Pass, arg ast.Expr) *types.Var {
	if sel := addressedSelector(arg); sel != nil {
		return fieldOf(pass, sel)
	}
	return nil
}

// fieldOf resolves a selector to the struct field it names, or nil.
func fieldOf(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	fv, _ := s.Obj().(*types.Var)
	return fv
}
