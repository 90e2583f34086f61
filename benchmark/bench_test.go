package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"kvdirect"
)

// repeatable are the per-layer metrics that are counts, not times: the
// same seed must give the same value on every run.
var repeatable = []string{
	"core.dma_reads_per_op", "core.dma_writes_per_op", "core.nic_cache_hit_ratio", "core.dispatch_cached_frac",
	"core.apply_allocs_per_op", "wire.req_bytes_per_op", "wire.resp_bytes_per_op", "wire.allocs_per_batch",
	"kvnet.allocs_per_batch", "kvgw.allocs_per_setq_batch", "kvgw.allocs_per_getq_batch", "kvgw.ops_per_backend_batch",
}

// TestSmoke runs every workload twice in its smoke shape and holds the
// output to what BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	man, err := loadManifest(filepath.Join("..", manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, man.EndToEnd...), man.PerLayer...) {
		if !valid.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	specs := allSpecs()
	if len(specs) != len(man.Workloads) {
		t.Fatalf("%d workloads implemented, %s declares %d", len(specs), manifestFile, len(man.Workloads))
	}
	cfg := config{seed: 7, window: 200 * time.Millisecond, trace: true, smoke: true}
	for i, s := range specs {
		if s.name != man.Workloads[i].Name {
			t.Errorf("workload %d is %q, %s declares %q", i, s.name, manifestFile, man.Workloads[i].Name)
		}
		t.Run(s.name, func(t *testing.T) {
			var runs [2]result
			for r := range runs {
				res, spans, err := runWorkload(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				// Every declared name once, each finite, and no other.
				if err := man.validate(&res, true); err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("incorrect: %v", res.Notes)
				}
				checkSpans(t, spans)
				runs[r] = res
			}
			for _, name := range repeatable {
				if a, b := runs[0].PerLayer[name], runs[1].PerLayer[name]; a != b {
					t.Errorf("%s is %v, then %v with the same seed", name, a, b)
				}
			}
		})
	}
}

// checkSpans writes the spans as the benchmark does, parses them back,
// and checks that every child lies inside its parent.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeJSON(path, spans, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []span
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) == 0 {
		t.Fatal("no spans")
	}
	byID := map[int]span{}
	for _, s := range parsed {
		byID[s.ID] = s
	}
	for _, s := range parsed {
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End || s.RequestID != p.RequestID || !s.Estimated {
			t.Fatalf("span %+v does not lie inside its parent %+v", s, p)
		}
	}
}

// TestProbesReportFailure: a probe whose call fails must fail the traced
// pass, not time the failure.
func TestProbesReportFailure(t *testing.T) {
	tp := &tracedPass{recs: make([]rec, 3)}
	boom := errors.New("boom")
	fail := func(*rec) error { return boom }
	if _, err := tp.probe(2, fail); !errors.Is(err, boom) {
		t.Errorf("probe: %v", err)
	}
	if _, err := tp.allocsPerCall(fail); !errors.Is(err, boom) {
		t.Errorf("allocsPerCall: %v", err)
	}
	if err := allOK([]kvdirect.Result{{Status: kvdirect.StatusOK}, {Status: kvdirect.StatusNotFound}}, nil); err == nil {
		t.Error("allOK passed a NotFound")
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	run := func(ops float64, windows []float64) result {
		return result{WindowOps: windows, EndToEnd: map[string]float64{"ops_per_s": ops, "lat_p50_us": 1e6 / ops}}
	}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "lat_p50_us", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b result
		want string
	}{
		{higher, run(100, steady), run(105, steady), "same"},
		{higher, run(100, steady), run(120, steady), "better"},
		{higher, run(100, steady), run(85, steady), "worse"},
		{lower, run(100, steady), run(85, steady), "worse"},
		{lower, run(100, steady), run(120, steady), "better"},
		{higher, run(100, steady), run(85, []float64{70, 85, 90, 85, 80}), "unresolved"},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.EndToEnd[c.d.Name], c.b.EndToEnd[c.d.Name], got, c.want)
		}
	}
}
