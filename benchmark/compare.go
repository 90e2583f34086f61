package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareMain implements `benchmark compare a.json b.json`: one row per
// workload and end-to-end metric, judged by the metric's bound in
// BENCHMARK.json. It returns the exit code: 1 when any row is worse or
// failed_frac rose, 2 when the files cannot be compared.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
		return 2
	}
	man, err := loadManifest(manifestFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var reps [2]report
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", path, err)
			return 2
		}
	}
	worse := false
	fmt.Printf("%-16s %-12s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, a := range reps[0].Workloads {
		b := reps[1].find(a.Name)
		if b == nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s has no workload %s\n", args[1], a.Name)
			return 2
		}
		for _, d := range man.EndToEnd {
			verdict, change := judge(d, a, *b)
			worse = worse || verdict == "worse"
			fmt.Printf("%-16s %-12s %14.6g %14.6g %+7.1f%%  %s\n",
				a.Name, d.Name, a.EndToEnd[d.Name], b.EndToEnd[d.Name], 100*change, verdict)
		}
		fa, fb := a.failedFrac(), b.failedFrac()
		verdict := "same"
		if fb > fa { // any increase is a regression
			verdict, worse = "worse", true
		} else if fb < fa {
			verdict = "better"
		}
		fmt.Printf("%-16s %-12s %14.6g %14.6g %8s  %s\n", a.Name, "failed_frac", fa, fb, "", verdict)
	}
	if worse {
		return 1
	}
	return 0
}

func (r *report) find(name string) *result {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (r result) failedFrac() float64 { return float64(r.Failed) / float64(r.Attempted) }

// windowed are the metrics taken from the five timed windows.
var windowed = map[string]bool{"ops_per_s": true, "lat_p50_us": true, "lat_p99_us": true}

// judge compares b with a on one metric. The change is b's share above
// or below a. On a windowed metric, a run whose own windows differ by
// more than the bound (client.window_spread_frac, recomputed so that
// untraced results can be judged too) cannot resolve a difference of
// that size, whichever way it points.
func judge(d metricDef, a, b result) (verdict string, change float64) {
	va, vb := a.EndToEnd[d.Name], b.EndToEnd[d.Name]
	change = (vb - va) / va
	gain := change
	if d.Better == "lower" {
		gain = -change
	}
	switch {
	case windowed[d.Name] && (spreadFrac(a.WindowOps) > d.Bound || spreadFrac(b.WindowOps) > d.Bound):
		return "unresolved", change
	case gain < -d.Bound:
		return "worse", change
	case gain > d.Bound:
		return "better", change
	}
	return "same", change
}
