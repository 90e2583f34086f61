// Command kvdlint is the KV-Direct reproduction's domain-specific
// static-analysis suite. It mechanically enforces the invariants the
// compiler cannot see and the simulation's credibility depends on:
// counted memory access, wall-clock-free model code, registry-valid
// fault-point names, consistent atomic counter access, no dropped
// status/error results, layer.noun[_unit] metric names, acyclic
// lock-acquisition orders with no blocking under a lock, allocation-free
// //kvd:hotpath functions, and goroutines with visible tie-downs.
//
// Usage:
//
//	kvdlint [-fix] [-only names] [-analyzers] [packages]  # packages default to ./...
//
// Exit status is 0 when the tree is clean, 2 when findings were
// reported, 1 on operational errors. Individual findings can be
// suppressed with a trailing `//lint:allow <analyzer> -- reason`
// comment on the offending line or the line above it; a directive that
// suppresses nothing is itself reported (staleallow) and deleted by
// -fix. The -only flag restricts a run to a comma-separated
// subset of the suite, for ad hoc runs while triaging one analyzer.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kvdirect/internal/analysis"
	"kvdirect/internal/analysis/atomiccounter"
	"kvdirect/internal/analysis/faultpoint"
	"kvdirect/internal/analysis/gorolifetime"
	"kvdirect/internal/analysis/hotalloc"
	"kvdirect/internal/analysis/lockorder"
	"kvdirect/internal/analysis/metricname"
	"kvdirect/internal/analysis/statuserr"
	"kvdirect/internal/analysis/unaccountedaccess"
	"kvdirect/internal/analysis/walltime"
)

// Analyzers is the full kvdlint suite, in stable order.
var Analyzers = []*analysis.Analyzer{
	atomiccounter.Analyzer,
	faultpoint.Analyzer,
	gorolifetime.Analyzer,
	hotalloc.Analyzer,
	lockorder.Analyzer,
	metricname.Analyzer,
	statuserr.Analyzer,
	unaccountedaccess.Analyzer,
	walltime.Analyzer,
}

// selectAnalyzers filters the suite down to a comma-separated name list
// (the -only flag); an unknown name is an operational error.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return Analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range Analyzers {
		byName[a.Name] = a
	}
	var picked []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (kvdlint -analyzers lists the suite)", name)
		}
		picked = append(picked, a)
	}
	if len(picked) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return picked, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		fix      = flag.Bool("fix", false, "apply suggested fixes to the source files")
		listOnly = flag.Bool("analyzers", false, "list the analyzers in the suite and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: the full suite)")
	)
	flag.Parse()

	if *listOnly {
		for _, a := range Analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
		return 1
	}

	units, err := analysis.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
		return 1
	}
	findings, err := analysis.Run(suite, units)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s\n", f)
	}
	if *fix {
		applied, err := analysis.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvdlint: applying fixes: %v\n", err)
			return 1
		}
		if applied > 0 {
			fmt.Fprintf(os.Stderr, "kvdlint: applied %d fix(es); re-run to verify\n", applied)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
