// Package faultpoint validates "fault."-prefixed counter names against
// the internal/fault registry.
//
// Fault-injection coverage is observed exclusively through named
// counters ("fault.<point>") in telemetry.Counters tables. A typo in
// such a name — in an assertion, a health check, or a dashboard query —
// does not fail to compile; it reads a permanently-zero counter and
// silently reports "no faults", which is precisely the failure mode a
// chaos harness exists to prevent. This analyzer resolves every
// constant "fault."-prefixed name passed to a telemetry.Counters method
// against the registry's declared point set, importing the registry
// itself so the set can never drift from the code.
package faultpoint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"sort"
	"strings"

	"kvdirect/internal/analysis"
	"kvdirect/internal/fault"
)

// Prefix is the counter-name namespace the fault registry owns.
const Prefix = "fault."

// KnownNames returns the full counter names the registry declares,
// sorted, derived live from internal/fault.
func KnownNames() []string {
	var names []string
	for _, p := range fault.Points() {
		names = append(names, Prefix+p.String())
	}
	sort.Strings(names)
	return names
}

// countersMethods are the telemetry.Counters methods taking a counter
// name. Counters is an alias of a telemetry.Table instantiation, so the
// receiver check below matches Table.
var countersMethods = map[string]bool{"Handle": true, "Add": true, "Get": true}

// Analyzer is the faultpoint pass.
var Analyzer = &analysis.Analyzer{
	Name: "faultpoint",
	Doc:  "verify fault.* counter names against the internal/fault registry (no silent chaos-coverage loss)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	known := map[string]bool{}
	for _, n := range KnownNames() {
		known[n] = true
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || !countersMethods[fn.Name()] {
			return true
		}
		recv := analysis.ReceiverNamed(fn)
		if recv == nil || recv.Obj().Pkg() == nil ||
			recv.Obj().Pkg().Path() != "kvdirect/internal/telemetry" ||
			recv.Obj().Name() != "Table" {
			return true
		}
		arg := call.Args[0]
		tv, ok := pass.TypesInfo.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			return true // dynamic name, e.g. "fault." + p.String()
		}
		name := constant.StringVal(tv.Value)
		if !strings.HasPrefix(name, Prefix) || known[name] {
			return true
		}
		d := analysis.Diagnostic{
			Pos: arg.Pos(),
			End: arg.End(),
			Message: fmt.Sprintf(
				"%q is not a registered fault point; the counter will read zero forever", name),
		}
		if best, ok := closest(name, known); ok {
			d.Message += fmt.Sprintf(" (did you mean %q?)", best)
			// Only offer a mechanical rewrite when the argument is a
			// plain string literal we can replace in place.
			if lit, isLit := ast.Unparen(arg).(*ast.BasicLit); isLit {
				d.SuggestedFixes = []analysis.SuggestedFix{{
					Message: fmt.Sprintf("replace with %q", best),
					TextEdits: []analysis.TextEdit{{
						Pos: lit.Pos(), End: lit.End(),
						NewText: []byte(fmt.Sprintf("%q", best)),
					}},
				}}
			}
		}
		pass.Report(d)
		return true
	})
	return nil
}

// closest returns the known name with the smallest Levenshtein distance
// to name, if that distance is small enough to look like a typo.
func closest(name string, known map[string]bool) (string, bool) {
	best, bestDist := "", 4
	for k := range known {
		d := levenshtein(name, k)
		if d < bestDist || (d == bestDist && best != "" && k < best) {
			best, bestDist = k, d
		}
	}
	return best, best != ""
}

func levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
