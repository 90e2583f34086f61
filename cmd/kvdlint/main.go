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
//	kvdlint [-fix] [-only names] [packages]  # standalone; packages default to ./...
//	go vet -vettool=$(which kvdlint) ./...   # as a vet tool
//
// Exit status is 0 when the tree is clean, 2 when findings were
// reported, 1 on operational errors. Individual findings can be
// suppressed with a trailing `//lint:allow <analyzer> -- reason`
// comment on the offending line or the line above it; a directive that
// suppresses nothing is itself reported (staleallow) and deleted by
// -fix. The -only flag restricts a standalone run to a comma-separated
// subset of the suite, for ad hoc runs while triaging one analyzer.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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
		asJSON   = flag.Bool("json", false, "emit diagnostics as JSON (vet protocol)")
		version  = flag.String("V", "", "print version and exit (vet handshake)")
		listOnly = flag.Bool("analyzers", false, "list the analyzers in the suite and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: the full suite)")
		_        = flag.Int("c", -1, "accepted for vet compatibility; ignored")
	)
	// cmd/go probes a vettool's flag set with a bare `-flags` argument
	// before any normal run, expecting a JSON description.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		return printFlags()
	}
	flag.Parse()

	if *version != "" {
		// cmd/go fingerprints vet tools via `-V=full` and expects the
		// objabi version format, with a content hash standing in for a
		// build ID so caching notices tool changes.
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
			return 1
		}
		f, err := os.Open(exe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
			return 1
		}
		defer f.Close()
		h := sha256.New()
		if _, err := io.Copy(h, f); err != nil {
			fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
			return 1
		}
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n", exe, h.Sum(nil))
		return 0
	}
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

	args := flag.Args()
	// Vet-tool mode: cmd/go invokes the tool with a single *.cfg path.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return analysis.RunUnitchecker(suite, args[0], *asJSON)
	}

	// Standalone mode: load, check, optionally fix.
	units, err := analysis.Load(".", args...)
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

// printFlags emits the tool's flag set in the JSON shape cmd/go expects
// from `vettool -flags` (name, boolness, usage per flag). Flags that
// only make sense standalone are hidden from vet.
func printFlags() int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		if f.Name == "fix" || f.Name == "analyzers" {
			return // no effect under go vet's unit-at-a-time protocol
		}
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvdlint: %v\n", err)
		return 1
	}
	if _, err := os.Stdout.Write(data); err != nil {
		return 1
	}
	return 0
}
