package core

import (
	"encoding/json"
	"testing"

	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// TestApplyRunChargesModelCounts: a run's span carries exactly the
// delta the performance model's own counters record across it —
// measured, not re-derived — a panicking op's accesses included.
func TestApplyRunChargesModelCounts(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Put([]byte("span-key"), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	s.RegisterUpdateFunc(100, func(e, p uint64) uint64 { return e / (p - p) })
	reqs := []wire.Request{
		{Code: wire.OpGet, Key: []byte("span-key")},
		{Code: wire.OpUpdateScalar, Key: []byte("boom"), FuncID: 100, ElemWidth: 8, Param: make([]byte, 8)},
		{Code: wire.OpPut, Key: []byte("b"), Value: []byte("2")},
	}
	out := make([]wire.Response, len(reqs))
	before := s.Stats()
	span := &telemetry.Span{}
	panics := s.ApplyRun(reqs, out, span)
	after := s.Stats()
	if panics != 1 || out[1].Status != wire.StatusError {
		t.Fatalf("ApplyRun counted %d panics, answered the λ op %+v; want 1 and its panic as an error", panics, out[1])
	}
	if out[0].Status != wire.StatusOK || out[2].Status != wire.StatusOK {
		t.Fatalf("the panicking op's neighbours: %+v", out)
	}
	want := Stats{
		Mem:      after.Mem.Sub(before.Mem),
		Cache:    after.Cache.Sub(before.Cache),
		Dispatch: after.Dispatch.Sub(before.Dispatch),
	}.AccessCounts()
	if span.Counts != want {
		t.Fatalf("span counts %+v != model delta %+v", span.Counts, want)
	}
	if span.Counts.PCIeReads+span.Counts.DRAMLineReads == 0 {
		t.Fatal("a GET charged zero reads anywhere")
	}
	if span.Counts.DispatchDirect+span.Counts.DispatchCached == 0 {
		t.Fatal("a GET was never dispatched")
	}

	// A nil span is an untraced run.
	if s.ApplyRun(reqs[:1], out, nil); out[0].Status != wire.StatusOK {
		t.Fatalf("nil-span GET status %d", out[0].Status)
	}
}

// TestApplyRunAccumulates: runs charged to one span add up, as a
// replica's segments of one batch do.
func TestApplyRunAccumulates(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	span := &telemetry.Span{}
	reqs := []wire.Request{
		{Code: wire.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Code: wire.OpPut, Key: []byte("b"), Value: []byte("2")},
		{Code: wire.OpGet, Key: []byte("a")},
	}
	out := make([]wire.Response, len(reqs))
	s.ApplyRun(reqs[:2], out, span)
	first := span.Counts
	if first.PCIeWrites+first.DRAMLineWrites == 0 {
		t.Fatal("two PUTs charged zero writes")
	}
	s.ApplyRun(reqs[2:], out[2:], span)
	if out[2].Status != wire.StatusOK || string(out[2].Value) != "1" {
		t.Fatalf("GET after the PUT run: %+v", out[2])
	}
	if span.Counts.PCIeWrites+span.Counts.DRAMLineWrites < first.PCIeWrites+first.DRAMLineWrites ||
		span.Counts.DispatchDirect+span.Counts.DispatchCached <= first.DispatchDirect+first.DispatchCached {
		t.Fatalf("the GET run's charge %+v did not add to the PUT run's %+v", span.Counts, first)
	}
}

func TestOpTelemetrySnapshot(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Without a registry the scrape fails explicitly.
	resp := s.Apply(wire.Request{Code: wire.OpTelemetry})
	if resp.Status != wire.StatusError {
		t.Fatalf("scrape without registry: status %d", resp.Status)
	}

	reg := telemetry.NewRegistry()
	s.SetTelemetry(reg)
	if s.Telemetry() != reg {
		t.Fatal("Telemetry() accessor")
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	resp = s.Apply(wire.Request{Code: wire.OpTelemetry})
	if resp.Status != wire.StatusOK {
		t.Fatalf("scrape status %d: %s", resp.Status, resp.Value)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(resp.Value, &snap); err != nil {
		t.Fatalf("scrape is not JSON: %v", err)
	}
	if snap.Gauges["core.keys"] != 1 {
		t.Fatalf("core.keys gauge = %d, want 1", snap.Gauges["core.keys"])
	}
	if snap.Gauges["pcie.reads"]+snap.Gauges["dram.line_reads"] == 0 {
		t.Fatal("no memory activity published")
	}
}
