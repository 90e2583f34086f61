package kvnet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// TestTracedGetMatchesModelCharges is the acceptance check for the span
// tracer: a traced GET over a real TCP connection must report per-stage
// durations and exactly the PCIe/DRAM access counts the performance
// model charged the server's store for that operation.
func TestTracedGetMatchesModelCharges(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("traced-key"), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}

	// Counter snapshot before the traced op: the span's counts must
	// equal the model's own delta across it. Nothing else touches the
	// store between the two Stats() reads except the traced GET.
	before := store.Stats()
	res, span, err := c.DoTrace([]kvdirect.Op{{Code: kvdirect.OpGet, Key: []byte("traced-key")}}, wire.TraceContext{Sampled: true})
	after := store.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK() || len(res[0].Value) != 100 {
		t.Fatalf("traced GET result: %+v", res)
	}
	if span == nil || span.Server == nil {
		t.Fatalf("no server span attached: %+v", span)
	}

	want := kvdirect.Stats{
		Mem:      after.Mem.Sub(before.Mem),
		Cache:    after.Cache.Sub(before.Cache),
		Dispatch: after.Dispatch.Sub(before.Dispatch),
	}.AccessCounts()
	if span.Counts != want {
		t.Errorf("span counts %+v != model delta %+v", span.Counts, want)
	}
	if span.Counts.PCIeReads+span.Counts.DRAMLineReads == 0 {
		t.Error("GET charged no reads at all")
	}

	// Per-stage durations: client measured encode + rtt, server
	// measured decode + apply, and the server span is finished.
	stages := func(s *telemetry.Span) map[string]uint64 {
		m := map[string]uint64{}
		for _, st := range s.Stages {
			m[st.Name] = st.Ns
		}
		return m
	}
	cl := stages(span)
	if _, ok := cl["client.rtt"]; !ok || len(cl) < 2 {
		t.Errorf("client stages missing: %+v", span.Stages)
	}
	sv := stages(span.Server)
	if sv["server.apply"] == 0 {
		t.Errorf("server.apply stage missing or zero: %+v", span.Server.Stages)
	}
	if span.Server.TotalNs == 0 || span.TotalNs == 0 {
		t.Error("span totals not stamped")
	}
	if span.TotalNs < span.Server.TotalNs {
		t.Errorf("client total %d < server total %d", span.TotalNs, span.Server.TotalNs)
	}
	if span.Op != "GET" || span.Server.Op != "GET" {
		t.Errorf("span labels: %q / %q", span.Op, span.Server.Op)
	}
}

// TestMetricsEndpoint is the acceptance check for the HTTP export: a
// loaded server's /metrics must show non-zero p99 latency, and
// /debug/telemetry must be parseable JSON with the same data.
func TestMetricsEndpoint(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 200; i++ {
		key := []byte{byte(i), byte(i >> 8), 'k'}
		if err := c.Put(key, key); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}

	ts := httptest.NewServer(NewTelemetrySourcesHandler(srv))
	defer ts.Close()

	resp := httpGet(t, ts.URL+"/metrics")
	if !strings.Contains(resp, `kvd_server_op_latency_ns_quantile{quantile="0.99"}`) {
		t.Fatalf("/metrics missing p99 line:\n%s", resp)
	}
	for _, line := range strings.Split(resp, "\n") {
		if strings.HasPrefix(line, `kvd_server_op_latency_ns_quantile{quantile="0.99"} `) {
			val := strings.TrimPrefix(line, `kvd_server_op_latency_ns_quantile{quantile="0.99"} `)
			if val == "0" {
				t.Fatalf("p99 latency is zero on a loaded server:\n%s", resp)
			}
		}
	}
	if !strings.Contains(resp, "kvd_server_ops 400") {
		t.Errorf("/metrics op counter wrong:\n%s", resp)
	}
	if !strings.Contains(resp, "kvd_core_keys 200") {
		t.Errorf("/metrics missing core gauges:\n%s", resp)
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(httpGet(t, ts.URL+"/debug/telemetry")), &snap); err != nil {
		t.Fatalf("/debug/telemetry not JSON: %v", err)
	}
	if snap.Counters["server.ops"] != 400 {
		t.Errorf("JSON snapshot server.ops = %d", snap.Counters["server.ops"])
	}
	if snap.Histogram("server.op_latency_ns").P99() == 0 {
		t.Error("JSON snapshot p99 is zero")
	}
}

// TestWireTelemetryScrape covers the in-protocol scrape path: the same
// snapshot is reachable through OpTelemetry without HTTP.
func TestWireTelemetryScrape(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("w"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	snap, err := c.ScrapeTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.ops"] == 0 {
		t.Errorf("scrape counters: %+v", snap.Counters)
	}
	if snap.Gauges["core.keys"] != 1 {
		t.Errorf("scrape core gauges: %+v", snap.Gauges)
	}
	if snap.Histogram("server.op_latency_ns").Count == 0 {
		t.Error("scrape histogram empty")
	}
	// Client-side registry recorded RTTs independently.
	if c.Telemetry().Histogram("client.rtt_ns").Count() == 0 {
		t.Error("client rtt histogram empty")
	}
}

// TestServerSampledSpans covers server-initiated sampling: with
// TraceSampleEvery set, untraced client traffic populates the trace
// ring, visible in snapshots.
func TestServerSampledSpans(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := ServeOptions(store, "127.0.0.1:0", ServerOptions{TraceSampleEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 10; i++ {
		if err := c.Put([]byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := srv.TelemetrySnapshot()
	if len(snap.Spans) == 0 {
		t.Fatal("no sampled spans retained")
	}
	sp := snap.Spans[0]
	if sp.Op != "PUT" || sp.TotalNs == 0 {
		t.Errorf("sampled span: %+v", sp)
	}
	if sp.Counts.PCIeWrites+sp.Counts.DRAMLineWrites == 0 {
		t.Errorf("sampled PUT charged no writes: %+v", sp.Counts)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return string(body)
}
