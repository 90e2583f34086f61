package telemetry

import (
	"testing"
)

// BenchmarkTelemetryOff exercises the full disabled-sampling hot path —
// the exact sequence of telemetry calls the kvnet server makes per
// request when no span is sampled — and is the CI overhead guard: it
// must report 0 allocs/op. A regression here means instrumentation
// started allocating on every request.
func BenchmarkTelemetryOff(b *testing.B) {
	r := NewRegistry()
	tr := r.Tracer() // sampling off by default
	h := r.Histogram("server.op_latency_ns")
	ops := r.Counters().Handle("server.ops")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := tr.Sample() // nil: sampling off
		span.SetOp("get", 1)
		st := span.StartStage("server.apply")
		h.Observe(uint64(i)%100_000 + 1)
		ops.Add(1)
		st.End()
		span.AddCounts(AccessCounts{PCIeReads: 2})
		tr.Publish(span)
	}
}

// BenchmarkTelemetryOn measures the cost when every op is traced — the
// worst case, documented in DESIGN.md's overhead budget. Not a CI
// guard; spans intentionally allocate.
func BenchmarkTelemetryOn(b *testing.B) {
	r := NewRegistry()
	tr := r.Tracer()
	tr.SetSampleEvery(1)
	h := r.Histogram("server.op_latency_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := tr.Sample()
		span.SetOp("get", 1)
		st := span.StartStage("server.apply")
		h.Observe(uint64(i)%100_000 + 1)
		st.End()
		span.AddCounts(AccessCounts{PCIeReads: 2})
		tr.Publish(span)
	}
}

// BenchmarkHistogramObserve isolates the histogram's own cost: a few
// atomic adds, no allocation.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram("bench.latency_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i) % 1_000_000)
	}
}

// BenchmarkTraceOff exercises the distributed-tracing hooks with
// sampling off — the nil-span trace accessors, the trace-aware
// histogram observe with a zero trace ID, and a nil flight recorder —
// and is a CI guard: 0 allocs/op, same bar as BenchmarkTelemetryOff.
func BenchmarkTraceOff(b *testing.B) {
	r := NewRegistry()
	tr := r.Tracer() // sampling off
	h := r.Histogram("server.op_latency_ns")
	var nilFlight *FlightRecorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := tr.Sample() // nil
		traceID, spanID := span.Trace()
		span.BeginTrace(traceID, spanID)
		h.ObserveTraced(uint64(i)%100_000+1, traceID)
		nilFlight.Record(EventNotPrimary, 0, 0, 0)
		tr.Publish(span)
	}
}

// BenchmarkFlightRecorderOn measures the recorder's steady-state
// recording cost with the ring wrapping continuously — a CI guard: the
// recorder itself must be 0 allocs/op even while armed and recording.
func BenchmarkFlightRecorderOn(b *testing.B) {
	f := NewFlightRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Record(EventNotPrimary, int64(i%8), uint64(i), 0)
	}
}

// TestTraceOffZeroAllocs enforces BenchmarkTraceOff's guarantee in
// plain `go test`.
func TestTraceOffZeroAllocs(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	h := r.Histogram("server.op_latency_ns")
	var nilFlight *FlightRecorder
	avg := testing.AllocsPerRun(1000, func() {
		span := tr.Sample()
		traceID, spanID := span.Trace()
		span.BeginTrace(traceID, spanID)
		h.ObserveTraced(4321, traceID)
		nilFlight.Record(EventNotPrimary, 0, 0, 0)
		tr.Publish(span)
	})
	if avg != 0 {
		t.Fatalf("trace-off hot path allocates %.1f allocs/op, want 0", avg)
	}
}

// TestFlightRecorderZeroAllocs enforces BenchmarkFlightRecorderOn's
// guarantee in plain `go test`: recording events allocates nothing even
// with the ring wrapping.
func TestFlightRecorderZeroAllocs(t *testing.T) {
	f := NewFlightRecorder()
	var i int64
	avg := testing.AllocsPerRun(1000, func() {
		i++
		f.Record(EventFailover, i%8, uint64(i), 2)
	})
	if avg != 0 {
		t.Fatalf("flight recorder allocates %.1f allocs/op, want 0", avg)
	}
}

// TestTelemetryOffZeroAllocs is the same guard as BenchmarkTelemetryOff
// but enforced in plain `go test`, so a regression fails the suite even
// when benchmarks are not run.
func TestTelemetryOffZeroAllocs(t *testing.T) {
	r := NewRegistry()
	tr := r.Tracer()
	h := r.Histogram("server.op_latency_ns")
	ops := r.Counters().Handle("server.ops")
	avg := testing.AllocsPerRun(1000, func() {
		span := tr.Sample()
		span.SetOp("get", 1)
		st := span.StartStage("server.apply")
		h.Observe(1234)
		ops.Add(1)
		st.End()
		span.AddCounts(AccessCounts{PCIeReads: 2})
		tr.Publish(span)
	})
	if avg != 0 {
		t.Fatalf("disabled-sampling hot path allocates %.1f allocs/op, want 0", avg)
	}
}
