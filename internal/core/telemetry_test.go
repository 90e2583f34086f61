package core

import (
	"encoding/json"
	"testing"

	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

func TestApplyTracedChargesModelCounts(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("span-key"), make([]byte, 64)); err != nil {
		t.Fatal(err)
	}

	// The span's counts must equal the delta the performance model's own
	// counters record across the op — measured, not re-derived.
	before := s.Stats()
	span := &telemetry.Span{}
	resp := s.ApplyTraced(wire.Request{Code: wire.OpGet, Key: []byte("span-key")}, span)
	after := s.Stats()
	if resp.Status != wire.StatusOK {
		t.Fatalf("traced GET status %d", resp.Status)
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

	// Nil span degrades to plain Apply.
	resp = s.ApplyTraced(wire.Request{Code: wire.OpGet, Key: []byte("span-key")}, nil)
	if resp.Status != wire.StatusOK {
		t.Fatalf("nil-span GET status %d", resp.Status)
	}
}

func TestApplyTracedAccumulates(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	span := &telemetry.Span{}
	reqs := []wire.Request{
		{Code: wire.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Code: wire.OpPut, Key: []byte("b"), Value: []byte("2")},
		{Code: wire.OpGet, Key: []byte("a")},
	}
	resps := make([]wire.Response, len(reqs))
	for i, r := range reqs {
		resps[i] = s.ApplyTraced(r, span)
	}
	if len(resps) != 3 || resps[2].Status != wire.StatusOK {
		t.Fatalf("batch responses: %+v", resps)
	}
	if span.Counts.PCIeWrites == 0 && span.Counts.DRAMLineWrites == 0 {
		t.Fatal("two PUTs charged zero writes")
	}
}

func TestOpTelemetrySnapshot(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
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
