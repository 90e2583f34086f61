package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CallGraph is the intra-package static call graph of one lint unit:
// every declared function or method, the AST body it was declared with,
// and the same-package functions it calls through statically resolvable
// call expressions. Dynamic calls (function-typed variables, interface
// method sets dispatched at runtime) are invisible by design — the
// analyzers built on top of this are advisory linters with a //lint:allow
// escape hatch, not verifiers, and a conservative graph keeps them quiet
// enough to stay enabled.
type CallGraph struct {
	// Decls maps each declared function object to its declaration.
	Decls map[*types.Func]*ast.FuncDecl

	// Callees maps a function to the distinct same-package declared
	// functions it calls synchronously, in source order of the first
	// call site. Functions launched by a `go` statement and calls made
	// inside nested function literals are excluded: a goroutine runs on
	// its own stack and a closure on its invoker's, so neither belongs
	// in the caller's synchronous summary. Analyzers that care about
	// those bodies walk them explicitly.
	Callees map[*types.Func][]*types.Func
}

// BuildCallGraph collects the unit's function declarations and resolves
// every call expression inside them to same-package callees.
func BuildCallGraph(pass *Pass) *CallGraph {
	g := &CallGraph{
		Decls:   map[*types.Func]*ast.FuncDecl{},
		Callees: map[*types.Func][]*types.Func{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.Decls[fn] = fd
		}
	}
	for fn, fd := range g.Decls {
		seen := map[*types.Func]bool{}
		var walk func(n ast.Node)
		walk = func(root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case *ast.GoStmt:
					// The launched call runs asynchronously, but its
					// arguments are evaluated on this stack right now.
					for _, arg := range n.Call.Args {
						walk(arg)
					}
					return false
				case *ast.CallExpr:
					callee := CalleeFunc(pass.TypesInfo, n)
					if callee == nil || seen[callee] {
						return true
					}
					if _, declared := g.Decls[callee]; !declared {
						return true
					}
					seen[callee] = true
					g.Callees[fn] = append(g.Callees[fn], callee)
				}
				return true
			})
		}
		walk(fd.Body)
	}
	return g
}

// PropagateSets closes the per-function sets in local over the call
// graph: the result for f is local(f) unioned with the result of every
// function f transitively calls. The input map is not modified.
func PropagateSets[E comparable](g *CallGraph, local map[*types.Func]map[E]bool) map[*types.Func]map[E]bool {
	out := map[*types.Func]map[E]bool{}
	for fn := range g.Decls {
		set := map[E]bool{}
		for e := range local[fn] {
			set[e] = true
		}
		out[fn] = set
	}
	// Fixed point: the graph is tiny (one package), so a simple
	// iterate-until-stable loop beats building SCCs.
	for changed := true; changed; {
		changed = false
		for fn := range g.Decls {
			set := out[fn]
			for _, callee := range g.Callees[fn] {
				for e := range out[callee] {
					if !set[e] {
						set[e] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

// SortedFuncs returns the graph's functions ordered by declaration
// position, so analyzer passes that iterate the graph report
// deterministically.
func (g *CallGraph) SortedFuncs() []*types.Func {
	fns := make([]*types.Func, 0, len(g.Decls))
	for fn := range g.Decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return g.Decls[fns[i]].Pos() < g.Decls[fns[j]].Pos() })
	return fns
}

// HasDirective reports whether the comment group carries the given
// machine directive (e.g. tag "kvd:hotpath" matches a `//kvd:hotpath`
// line). Directives follow the Go convention: no space after //, the
// tag alone or followed by whitespace.
func HasDirective(doc *ast.CommentGroup, tag string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text, ok := strings.CutPrefix(c.Text, "//"+tag)
		if ok && (text == "" || text[0] == ' ' || text[0] == '\t') {
			return true
		}
	}
	return false
}

// FuncName renders a function for diagnostics: "Recv.Method" for
// methods, the bare name otherwise.
func FuncName(fn *types.Func) string {
	if named := ReceiverNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
