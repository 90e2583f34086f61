package telemetry

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("server.ops", 10)
	r.Gauges().Set("core.keys", 3)
	r.IntGauges().Set("repl.lag", -2)
	r.Histogram("server.op_latency_ns").Observe(1000)
	r.Tracer().SetSampleEvery(1)
	r.Tracer().Publish(r.Tracer().Sample())

	s := r.Snapshot()
	if s.Counters["server.ops"] != 10 {
		t.Errorf("counter: %+v", s.Counters)
	}
	if s.Gauges["core.keys"] != 3 {
		t.Errorf("gauge: %+v", s.Gauges)
	}
	if s.IntGauges["repl.lag"] != -2 {
		t.Errorf("int gauge survives negative: %+v", s.IntGauges)
	}
	if h := s.Histogram("server.op_latency_ns"); h.Count != 1 {
		t.Errorf("histogram: %+v", h)
	}
	if len(s.Spans) != 1 {
		t.Errorf("spans: %d", len(s.Spans))
	}
	if s.Histogram("no.such_metric").Count != 0 {
		t.Error("missing histogram not zero")
	}
}

func TestRegistryHistogramHandleStable(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("test.latency_ns")
	b := r.Histogram("test.latency_ns")
	if a != b {
		t.Fatal("histogram handle not stable")
	}
}

// tableOps drives one Table instantiation through the by-name API in
// V-agnostic terms, so the cases below run once per metric kind.
type tableOps struct {
	kind   string
	signed bool
	set    func(name string, v int64)
	setMax func(name string, v int64)
	add    func(name string, d int64)
	get    func(name string) int64
	handle func(name string) any
	names  func() []string
	text   func() string
}

func opsOf[V uint64 | int64, A any, H interface {
	*A
	atomicInt[V]
}](kind string, t *Table[V, A, H]) tableOps {
	return tableOps{
		kind:   kind,
		signed: V(0)-1 < 0,
		set:    func(n string, v int64) { t.Set(n, V(v)) },
		setMax: func(n string, v int64) { StoreMax(t.Handle(n), V(v)) },
		add:    func(n string, d int64) { t.Add(n, V(d)) },
		get:    func(n string) int64 { return int64(t.Get(n)) },
		handle: func(n string) any { return t.Handle(n) },
		names: func() (out []string) {
			for _, e := range t.Snapshot() {
				out = append(out, e.Name)
			}
			return out
		},
		text: t.String,
	}
}

// eachTable runs fn against a fresh table of each kind the Registry
// hands out: the three are one implementation, so they share one suite.
func eachTable(t *testing.T, fn func(t *testing.T, o tableOps)) {
	r := NewRegistry()
	for _, o := range []tableOps{
		opsOf("counters", r.Counters()),
		opsOf("gauges", r.Gauges()),
		opsOf("int_gauges", r.IntGauges()),
	} {
		t.Run(o.kind, func(t *testing.T) { fn(t, o) })
	}
}

func TestTableSetGetAdd(t *testing.T) {
	eachTable(t, func(t *testing.T, o tableOps) {
		if got := o.get("test.level"); got != 0 {
			t.Fatalf("unregistered metric = %d", got)
		}
		if names := o.names(); len(names) != 0 {
			t.Fatalf("Get registered a metric: %v", names)
		}
		o.set("test.level", 7)
		o.set("test.level", 3) // levels go down
		o.add("test.level", 2)
		if got := o.get("test.level"); got != 5 {
			t.Fatalf("level = %d, want 5", got)
		}
	})
}

func TestTableSetMaxMonotone(t *testing.T) {
	eachTable(t, func(t *testing.T, o tableOps) {
		o.setMax("test.high_water", 5)
		o.setMax("test.high_water", 2)
		o.setMax("test.high_water", 9)
		if got := o.get("test.high_water"); got != 9 {
			t.Fatalf("high water = %d, want 9", got)
		}
	})
}

// TestTableNegativeLevels: replication lag computed as primary-seq
// minus acked-seq can transiently go negative when an ack races local
// bookkeeping. The signed table reports it as itself; the unsigned ones
// wrap, the blind spot IntGauges exists to close.
func TestTableNegativeLevels(t *testing.T) {
	eachTable(t, func(t *testing.T, o tableOps) {
		o.set("repl.lag", 100-103)
		o.setMax("repl.lag_max", -5) // a fresh high-water mark is 0; -5 must not lower it
		if !o.signed {
			if got := uint64(o.get("repl.lag")); got < 1<<63 {
				t.Fatalf("expected unsigned wrap, got %d", got)
			}
			return
		}
		if got := o.get("repl.lag"); got != -3 {
			t.Fatalf("negative lag = %d, want -3", got)
		}
		o.add("repl.lag", -2)
		if got := o.get("repl.lag"); got != -5 {
			t.Fatalf("lag after add = %d, want -5", got)
		}
		if got := o.get("repl.lag_max"); got != 0 {
			t.Fatalf("lag_max = %d, want 0", got)
		}
		if s := o.text(); !strings.Contains(s, "repl.lag=-5\n") {
			t.Fatalf("String() = %q", s)
		}
	})
}

func TestTableRegistrationOrder(t *testing.T) {
	eachTable(t, func(t *testing.T, o tableOps) {
		o.set("test.b", 2)
		o.set("test.a", 1)
		o.set("test.b", 3) // a second use must not re-register
		if names := o.names(); len(names) != 2 || names[0] != "test.b" || names[1] != "test.a" {
			t.Fatalf("snapshot %v not in registration order", names)
		}
		if s := o.text(); s != "test.b=3\ntest.a=1\n" {
			t.Fatalf("String() = %q", s)
		}
	})
}

// TestTableConcurrentRegistration: goroutines racing to register the
// same names all get one handle per name, and concurrent StoreMax/Add
// lose no update.
func TestTableConcurrentRegistration(t *testing.T) {
	eachTable(t, func(t *testing.T, o tableOps) {
		const workers, rounds = 8, 1000
		handles := make([]any, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				handles[w] = o.handle("test.shared")
				for i := 0; i < rounds; i++ {
					o.set("test.x", int64(i))
					o.setMax("test.x_max", int64(w*rounds+i))
					o.add("test.events", 1)
					_ = o.get("test.x")
				}
			}(w)
		}
		wg.Wait()
		for w, h := range handles {
			if h != handles[0] {
				t.Fatalf("worker %d resolved a different handle for the same name", w)
			}
		}
		if got := o.get("test.x_max"); got != workers*rounds-1 {
			t.Fatalf("x_max = %d, want %d", got, workers*rounds-1)
		}
		if got := o.get("test.events"); got != workers*rounds {
			t.Fatalf("events = %d, want %d", got, workers*rounds)
		}
		if names := o.names(); len(names) != 4 {
			t.Fatalf("registered %v, want 4 names", names)
		}
	})
}

func TestSnapshotMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counters().Add("server.ops", 5)
	b.Counters().Add("server.ops", 7)
	b.Counters().Add("server.panics", 1)
	a.IntGauges().Set("repl.lag", 4)
	b.IntGauges().Set("repl.lag_max", 9)
	a.Histogram("server.op_latency_ns").Observe(100)
	b.Histogram("server.op_latency_ns").Observe(200)
	b.Histogram("client.rtt_ns").Observe(5)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["server.ops"] != 12 || s.Counters["server.panics"] != 1 {
		t.Errorf("merged counters: %+v", s.Counters)
	}
	if s.IntGauges["repl.lag"] != 4 || s.IntGauges["repl.lag_max"] != 9 {
		t.Errorf("merged int gauges: %+v", s.IntGauges)
	}
	if h := s.Histogram("server.op_latency_ns"); h.Count != 2 || h.Sum != 300 {
		t.Errorf("merged histogram: %+v", h)
	}
	if h := s.Histogram("client.rtt_ns"); h.Count != 1 {
		t.Errorf("adopted histogram: %+v", h)
	}
	// Merge into a zero-valued snapshot works too.
	var zero Snapshot
	zero.Merge(s)
	if zero.Counters["server.ops"] != 12 {
		t.Error("merge into zero snapshot failed")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("server.ops", 1)
	r.IntGauges().Set("repl.lag", -1)
	r.Histogram("server.op_latency_ns").Observe(77)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["server.ops"] != 1 || back.IntGauges["repl.lag"] != -1 {
		t.Fatalf("round trip lost scalars: %s", data)
	}
	if h := back.Histogram("server.op_latency_ns"); h.Count != 1 || len(h.Buckets) != 1 {
		t.Fatalf("round trip lost histogram: %s", data)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counters().Add("server.ops", 42)
	r.Gauges().Set("core.keys", 7)
	r.IntGauges().Set("repl.lag", -3)
	h := r.Histogram("server.op_latency_ns")
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v * 100)
	}

	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE kvd_server_ops counter",
		"kvd_server_ops 42",
		"kvd_core_keys 7",
		"kvd_repl_lag -3",
		"# TYPE kvd_server_op_latency_ns histogram",
		"kvd_server_op_latency_ns_count 100",
		`kvd_server_op_latency_ns_bucket{le="+Inf"} 100`,
		`kvd_server_op_latency_ns_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets are non-decreasing.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "kvd_server_op_latency_ns_bucket{le=\"") &&
			!strings.Contains(line, "+Inf") {
			var n int
			if _, err := fmtSscanfSuffix(line, &n); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if n < last {
				t.Fatalf("cumulative bucket decreased at %q", line)
			}
			last = n
		}
	}
}

// fmtSscanfSuffix parses the trailing integer of a prometheus sample line.
func fmtSscanfSuffix(line string, n *int) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, errNoValue
	}
	v := 0
	for _, c := range line[i+1:] {
		if c < '0' || c > '9' {
			return 0, errNoValue
		}
		v = v*10 + int(c-'0')
	}
	*n = v
	return 1, nil
}

var errNoValue = errors.New("no trailing integer")
