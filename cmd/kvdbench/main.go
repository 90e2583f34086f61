// Command kvdbench regenerates the tables and figures of the KV-Direct
// paper's evaluation (SOSP'17 §5) from this repository's implementations
// and hardware models.
//
// Usage:
//
//	kvdbench [-quick] [-seed N] all
//	kvdbench [-quick] fig11 fig13 table3 ...
//	kvdbench list
//
// Each experiment prints the same rows/series the paper plots; see
// EXPERIMENTS.md for the paper-vs-measured record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"kvdirect/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "CI-sized scale (smaller memories and op counts)")
	seed := flag.Int64("seed", 1, "experiment seed")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	sc := experiments.Full()
	if *quick {
		sc = experiments.Quick()
	}
	sc.Seed = *seed

	if args[0] == "list" {
		for _, e := range experiments.All() {
			fmt.Printf("  %-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	var todo []experiments.Experiment
	if args[0] == "all" {
		todo = experiments.All()
	} else {
		for _, name := range args {
			e, ok := experiments.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "kvdbench: unknown experiment %q (try 'kvdbench list')\n", name)
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	for _, e := range todo {
		start := time.Now()
		tables := e.Run(sc)
		if *asJSON {
			if err := enc.Encode(tables); err != nil {
				fmt.Fprintf(os.Stderr, "kvdbench: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		for _, t := range tables {
			fmt.Println(t.String())
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.Name, time.Since(start).Seconds())
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `kvdbench — regenerate the KV-Direct paper's evaluation

usage: kvdbench [-quick] [-seed N] [-json] <experiment>... | all | list

experiments:
`)
	for _, e := range experiments.All() {
		fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.Name, e.Desc)
	}
}
