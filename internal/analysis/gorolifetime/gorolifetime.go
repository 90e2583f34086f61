// Package gorolifetime flags `go` statements that launch goroutines
// with no visible tie-down.
//
// Every goroutine in a long-lived server needs an owner that can end
// it: a context, a stop channel, a WaitGroup the owner waits on, or a
// connection whose close unblocks it. A goroutine with none of these is
// unkillable — it leaks across reconfigurations, keeps failed replicas
// half-alive, and turns clean shutdown into a timeout. In the
// replication layer, where failovers depose primaries and migrations
// retire whole groups at runtime, this is a correctness property, not
// hygiene: an orphaned heartbeat loop from a demoted primary is exactly
// the split-brain ingredient epoch fencing exists to contain.
//
// The analyzer inspects the function a `go` statement launches — a
// function literal's body directly, a same-package function through the
// transitive call-graph summary — for any tie-down signal: channel
// sends/receives/ranges, select statements, references to a
// context.Context, sync.WaitGroup Done/Wait (or Cond.Wait), and method
// calls into net or bufio (a goroutine blocked on a connection dies
// with it). Goroutines whose target resolves outside the package are
// trusted — the callee's discipline is its own package's business.
// Deliberately unbounded goroutines are documented in place with
// //lint:allow gorolifetime and a reason.
package gorolifetime

import (
	"go/ast"
	"go/token"
	"go/types"

	"kvdirect/internal/analysis"
)

// Analyzer is the gorolifetime pass.
var Analyzer = &analysis.Analyzer{
	Name: "gorolifetime",
	Doc:  "flag go statements whose goroutine has no tie-down (context, stop channel, WaitGroup, or connection)",
	Run:  run,
}

const tied = "tied"

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass)

	// Transitive tie-down summaries for declared functions.
	local := map[*types.Func]map[string]bool{}
	for fn, decl := range g.Decls {
		set := map[string]bool{}
		if tiedLocal(pass.TypesInfo, decl.Body) {
			set[tied] = true
		}
		local[fn] = set
	}
	summary := analysis.PropagateSets(g, local)

	pass.Inspect(func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if goTied(pass.TypesInfo, g, summary, gs.Call) {
			return true
		}
		pass.Reportf(gs.Pos(),
			"goroutine has no tie-down: nothing in it waits on a context, channel, WaitGroup, or connection, "+
				"so it can outlive its owner (bound its lifetime, or //lint:allow gorolifetime with a reason)")
		return true
	})
	return nil
}

// goTied decides whether the launched call has a visible tie-down.
func goTied(info *types.Info, g *analysis.CallGraph, summary map[*types.Func]map[string]bool, call *ast.CallExpr) bool {
	// Passing a context, channel, WaitGroup, or connection INTO the
	// goroutine counts: the owner handed it a leash.
	for _, arg := range call.Args {
		if t := info.TypeOf(arg); t != nil && tiedType(t) {
			return true
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return tiedLit(info, g, summary, fun)
	default:
		fn := analysis.CalleeFunc(info, call)
		if fn == nil {
			return true // dynamic target: trust it
		}
		if _, declared := g.Decls[fn]; !declared {
			return true // other package's function: its discipline, its audit
		}
		return summary[fn][tied]
	}
}

// tiedLit scans a launched function literal: its own body (nested
// literals included — an inner closure's channel op still runs on this
// goroutine unless launched again) plus the summaries of same-package
// functions it calls.
func tiedLit(info *types.Info, g *analysis.CallGraph, summary map[*types.Func]map[string]bool, lit *ast.FuncLit) bool {
	if tiedLocal(info, lit.Body) {
		return true
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.CalleeFunc(info, call); fn != nil {
			if _, declared := g.Decls[fn]; declared && summary[fn][tied] {
				found = true
			}
		}
		return true
	})
	return found
}

// tiedLocal reports whether the body itself contains a tie-down signal.
func tiedLocal(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.Ident:
			// Referencing a context, channel, WaitGroup, or connection in
			// the body is the tie-down in the common case — e.g. an
			// http.Serve(ln, ...) goroutine dies when ln closes.
			if t := info.TypeOf(n); t != nil && tiedType(t) {
				found = true
			}
		case *ast.CallExpr:
			if tiedCall(info, n) {
				found = true
			}
		}
		return true
	})
	return found
}

// tiedCall classifies calls that bound a goroutine's lifetime.
func tiedCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	// A method named Wait is a bounded wait by Go convention —
	// sync.WaitGroup.Wait, sync.Cond.Wait, exec.Cmd.Wait, a migration
	// handle's Wait: the goroutine ends when the awaited work does.
	if fn.Name() == "Wait" {
		return true
	}
	recv := recvName(sig)
	switch fn.Pkg().Path() {
	case "sync":
		if recv == "WaitGroup" && fn.Name() == "Done" {
			return true
		}
	case "net", "bufio":
		// Blocked on (or feeding) a connection: closing it unblocks the
		// goroutine. Any method call into these packages counts.
		return true
	}
	return false
}

func recvName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// tiedType reports whether handing a value of type t to a goroutine
// constitutes a leash: contexts, channels, WaitGroups, connections.
func tiedType(t types.Type) bool {
	if isContext(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			switch obj.Pkg().Path() + "." + obj.Name() {
			case "sync.WaitGroup", "net.Conn", "net.Listener", "context.Context":
				return true
			}
		}
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// isContext matches context.Context (and named interfaces embedding it
// resolve through their own packages, which is out of scope on purpose).
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
