// Package unaccountedaccess keeps every touch of simulated memory
// inside the counted accessor layer.
//
// The whole point of the reproduction's memory model is that "memory
// accesses per KV operation" — the quantity behind the paper's Figure 6
// and the bottleneck arithmetic of §3 — is computed by counting calls
// through memory.Memory's Read/Write (DMA) and nicdram.Cache's line
// accessors. Code that indexes, slices, ranges over or hands off the
// backing byte arrays directly (copy(dst, m.data), m.data = nil)
// performs a memory access the model never sees, quietly deflating the
// reported DMA counts — or, the arrays being mapped outside the Go
// heap, touches bytes its owner may already have unmapped. Only len and
// cap of the field are free to all. The backing fields are unexported,
// so the compiler already protects other packages; this analyzer closes
// the remaining hole — code (including test helpers) inside the owning
// packages themselves.
package unaccountedaccess

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"kvdirect/internal/analysis"
)

// accessors lists, per package path and backing field, the functions
// allowed to touch the raw array: the counted (or deliberately
// uncounted, host-CPU-side) accessor set.
var accessors = map[string]map[string]allowed{
	"kvdirect/internal/memory": {
		"data": {typeName: "Memory", funcs: map[string]bool{
			// Read/Write count DMA; Peek/Poke are the documented
			// host-CPU-side uncounted accessors; Release unmaps.
			"Read": true, "Write": true, "Peek": true, "Poke": true, "Release": true,
		}},
	},
	"kvdirect/internal/nicdram": {
		"data": {typeName: "Cache", funcs: map[string]bool{
			// lineData is the single line-granularity window through
			// which all cache reads/writes flow (and are counted);
			// Release unmaps.
			"lineData": true, "Release": true,
		}},
	},
}

type allowed struct {
	typeName string
	funcs    map[string]bool
}

// Analyzer is the unaccountedaccess pass.
var Analyzer = &analysis.Analyzer{
	Name: "unaccountedaccess",
	Doc:  "forbid raw indexing of simulated-memory backing arrays outside the counted accessor layer",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	table := accessors[pass.Pkg.Path()]
	if table == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, table, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, table map[string]allowed, fd *ast.FuncDecl) {
	sized := map[ast.Expr]bool{} // operands of len and cap, which read no bytes
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 1 && isSizeBuiltin(pass.TypesInfo, call.Fun) {
			sized[ast.Unparen(call.Args[0])] = true
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sized[sel] {
			return true
		}
		field := fieldOf(pass.TypesInfo, sel)
		if field == nil {
			return true
		}
		al, tracked := table[field.Name()]
		if !tracked || !isFieldOf(field, pass.Pkg, al.typeName) {
			return true
		}
		if al.funcs[fd.Name.Name] && methodOn(pass.TypesInfo, fd, al.typeName) {
			return true // inside an allowlisted accessor
		}
		pass.Reportf(n.Pos(),
			"raw access to %s.%s bypasses the counted accessor layer (%s); "+
				"use the accessor methods so the DMA/line accounting stays authentic",
			al.typeName, field.Name(), accessorList(al))
		return true
	})
}

// isSizeBuiltin reports whether fun is the builtin len or cap.
func isSizeBuiltin(info *types.Info, fun ast.Expr) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// fieldOf resolves sel to a struct field object, or nil.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// isFieldOf reports whether field belongs to the named struct type in pkg.
func isFieldOf(field *types.Var, pkg *types.Package, typeName string) bool {
	obj := pkg.Scope().Lookup(typeName)
	if obj == nil {
		return false
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == field {
			return true
		}
	}
	return false
}

// methodOn reports whether fd is declared as a method on the named type
// (value or pointer receiver).
func methodOn(info *types.Info, fd *ast.FuncDecl, typeName string) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	named := analysis.ReceiverNamed(fn)
	return named != nil && named.Obj().Name() == typeName
}

func accessorList(al allowed) string {
	keys := make([]string, 0, len(al.funcs))
	for k := range al.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "/")
}
