// Command kvdbench regenerates the tables and figures of the KV-Direct
// paper's evaluation (SOSP'17 §5) from this repository's implementations
// and hardware models.
//
// Usage:
//
//	kvdbench [-quick] [-seed N] all
//	kvdbench [-quick] fig11 fig13 table3 ...
//	kvdbench [-cpuprofile cpu.pprof] [-memprofile heap.pprof] ...
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
	"runtime"
	"runtime/pprof"
	"time"

	"kvdirect/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "CI-sized scale (smaller memories and op counts)")
	seed := flag.Int64("seed", 1, "experiment seed")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (make profile)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Usage = usage
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvdbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kvdbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close() // profile already flushed by StopCPUProfile
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kvdbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is current
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "kvdbench: memprofile: %v\n", err)
			}
		}()
	}

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
