package errdrop

import (
	"go/ast"
	"go/types"

	"github.com/harmless-sdn/harmless/internal/analysis"
)

// graph is the package-local call graph: an edge per direct call or
// bare function reference (method values and function identifiers
// passed as callbacks count — the callee may run, which is what
// reachability means here). Only functions declared in the analyzed
// package appear; calls into other packages are leaves by
// construction, so the graph stays module-local without loading the
// world.
type graph struct {
	// decls maps each function object to its declaration.
	decls map[*types.Func]*ast.FuncDecl
	// callees lists, per declared function, the declared functions it
	// calls or references.
	callees map[*types.Func][]*types.Func
}

// newGraph builds the call graph of one pass's package.
func newGraph(pass *analysis.Pass) *graph {
	g := &graph{
		decls:   make(map[*types.Func]*ast.FuncDecl),
		callees: make(map[*types.Func][]*types.Func),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.decls[fn] = fd
			}
		}
	}
	for fn, fd := range g.decls {
		seen := make(map[*types.Func]bool)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || seen[callee] {
				return true
			}
			if _, declared := g.decls[callee]; !declared {
				return true
			}
			seen[callee] = true
			g.callees[fn] = append(g.callees[fn], callee)
			return true
		})
	}
	return g
}
