// Command benchmark is the repository's wall-clock benchmark: four
// closed-loop workloads over loopback TCP, five end-to-end metrics per
// workload measured with tracing off, and a separate traced pass that
// splits one round trip into the layers named after this repository's
// packages. BENCHMARK.json at the repository root declares every
// workload and metric; README.md in this directory explains them.
//
//	go run ./benchmark -seed 1 -out benchmark/out        # all workloads
//	go run ./benchmark --workload ycsb-b-single --seed 1 --seconds 20 --trace 0
//	go run ./benchmark compare a.json b.json
//
// Run it from the repository root: it reads BENCHMARK.json from the
// working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const manifestFile = "BENCHMARK.json"

// manifest is BENCHMARK.json: the one place that names the workloads,
// the metrics, their units and the bound each end-to-end metric may
// worsen by. The program emits exactly these names and compare applies
// exactly these bounds.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// config is the shape of one run, the same for every workload.
type config struct {
	seed int64
	// window is the length of the discarded warm-up and of each of the
	// five measured windows that follow it.
	window time.Duration
	trace  bool // run the traced pass and report the per-layer metrics
	// smoke shrinks key counts, the traced pass and the number of timed
	// set-ups so that `go test` can run every workload in seconds.
	smoke bool
}

const windows = 5

// report is results.json.
type report struct {
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Nproc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Go         string   `json:"go"`
	GitSHA     string   `json:"git_sha"`
	Workloads  []result `json:"workloads"`
}

// result is one workload's row. Failed/Attempted is failed_frac; it is
// kept as two counts because the ratio is 0 on every correct run.
type result struct {
	Name      string `json:"name"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Samples   int    `json:"samples"` // calls timed over the five windows
	// Per window: lat_p99_us is the lowest WindowP99, and that window
	// needs at least 1000 samples.
	WindowSamples []int     `json:"window_samples"`
	WindowOps     []float64 `json:"window_ops_per_s"`
	WindowP50     []float64 `json:"window_lat_p50_us"`
	WindowP99     []float64 `json:"window_lat_p99_us"`
	Notes         []string  `json:"notes,omitempty"` // why Correct is false
	// Raw are the timed metrics as the clock gave them, before scaling
	// to the reference speed, and the yardstick's own readings.
	Raw      map[string]float64 `json:"raw"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "run this one workload and end with the result as one JSON line (default: all, as text)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 0, "measured seconds per workload, split into five windows (default: run_seconds of "+manifestFile+")")
	trace := flag.Int("trace", 1, "1: also run the traced pass and report the per-layer metrics")
	out := flag.String("out", "", "directory for results.json and <workload>.trace.json (default: write nothing)")
	smoke := flag.Bool("smoke", false, "tiny run: 0.2 s windows, a tenth of the keys, 200 traced batches")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *smoke, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run that printed its metrics but failed its
// own correctness gate.
var errIncorrect = errors.New("a workload failed its correctness gate")

func run(only string, seed int64, seconds float64, trace, smoke bool, out string) error {
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("need at least 2 CPUs for two closed-loop connections, have %d", runtime.NumCPU())
	}
	man, err := loadManifest(manifestFile)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(man.RunSeconds)
	}
	cfg := config{seed: seed, trace: trace, smoke: smoke,
		window: time.Duration(seconds / windows * float64(time.Second))}
	if smoke {
		cfg.window = 200 * time.Millisecond
	}
	rep := report{Seed: seed, Seconds: cfg.window.Seconds() * windows,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GitSHA: gitSHA()}
	fmt.Printf("# seed=%d seconds=%g nproc=%d gomaxprocs=%d go=%s git=%s\n",
		rep.Seed, rep.Seconds, rep.Nproc, rep.GOMAXPROCS, rep.Go, rep.GitSHA)

	var specs []*spec
	for _, s := range allSpecs() {
		if only == "" || only == s.name {
			specs = append(specs, s)
		}
	}
	if len(specs) == 0 {
		return fmt.Errorf("unknown workload %q", only)
	}
	correct := true
	for i, s := range specs {
		if i > 0 {
			resetPeakRSS() // or peak_rss_mb would be the largest of the workloads so far
		}
		res, spans, err := runWorkload(s, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if err := man.validate(&res, trace); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		man.print(&res)
		correct = correct && res.Correct
		rep.Workloads = append(rep.Workloads, res)
		if out != "" && trace {
			if err := writeJSON(filepath.Join(out, s.name+".trace.json"), spans, false); err != nil {
				return err
			}
		}
	}
	if out != "" {
		if err := writeJSON(filepath.Join(out, "results.json"), rep, true); err != nil {
			return err
		}
	}
	if only != "" {
		fmt.Println(man.resultLine(&rep.Workloads[0], trace))
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// validate checks that res carries exactly the metrics the manifest
// declares, each a finite number.
func (man *manifest) validate(res *result, trace bool) error {
	check := func(kind string, defs []metricDef, got map[string]float64) error {
		for _, d := range defs {
			v, ok := got[d.Name]
			if !ok {
				return fmt.Errorf("%s metric %s was not measured", kind, d.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s metric %s = %v", kind, d.Name, v)
			}
		}
		if len(got) != len(defs) {
			return fmt.Errorf("%d %s metrics measured, %s declares %d", len(got), kind, manifestFile, len(defs))
		}
		return nil
	}
	if err := check("end-to-end", man.EndToEnd, res.EndToEnd); err != nil {
		return err
	}
	if !trace {
		return nil
	}
	return check("per-layer", man.PerLayer, res.PerLayer)
}

// print lists every metric of one workload by name, with its unit.
func (man *manifest) print(res *result) {
	row := func(name string, v float64, unit string) {
		fmt.Printf("%-16s %-36s %16.6g %s\n", res.Name, name, v, unit)
	}
	for _, d := range man.EndToEnd {
		row(d.Name, res.EndToEnd[d.Name], d.Unit)
	}
	if res.PerLayer == nil { // or they are among the per-layer rows below
		for _, d := range man.PerLayer {
			if v, ok := res.Raw[d.Name]; ok {
				row(d.Name, v, d.Unit)
			}
		}
	}
	row("failed_frac", float64(res.Failed)/float64(res.Attempted), "ratio")
	row("lat_samples", float64(res.Samples), "count")
	for w := range res.WindowOps {
		fmt.Printf("%-16s window %d: %12.6g 1/s  p50 %10.6g us  p99 %10.6g us  %8d samples\n",
			res.Name, w+1, res.WindowOps[w], res.WindowP50[w], res.WindowP99[w], res.WindowSamples[w])
	}
	if res.PerLayer != nil {
		for _, d := range man.PerLayer {
			row(d.Name, res.PerLayer[d.Name], d.Unit)
		}
	}
	for _, n := range res.Notes {
		fmt.Printf("%-16s INCORRECT: %s\n", res.Name, n)
	}
}

// resultLine is the last line of a one-workload run: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (man *manifest) resultLine(res *result, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := man.EndToEnd, res.EndToEnd
	if trace {
		defs, got = man.PerLayer, res.PerLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{got[d.Name], d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	return string(line)
}

// writeJSON writes v to path, indented when people will read it (the
// results) and compact when it is large (the spans).
func writeJSON(path string, v any, indent bool) error {
	data, err := json.Marshal(v)
	if indent {
		data, err = json.MarshalIndent(v, "", "  ")
	}
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitSHA names the commit measured; a checkout without git history
// (the driver's) reports "unknown" and starts no process.
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
