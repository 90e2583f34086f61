// Package telemetry is the unified observability layer of the KV-Direct
// reproduction: lock-free log-bucketed latency histograms with
// percentile queries and mergeable snapshots, a sampled span tracer
// that carries one operation's per-stage durations and measured
// PCIe/DRAM access counts across layers, and the process's one metric
// store — named counters, gauges and signed gauges in one table type —
// which a Registry puts behind one Snapshot with Prometheus and JSON
// export.
//
// The paper's evaluation (Figures 9–17) is a story about where cycles
// and DMA round-trips go; flat counters cannot reproduce its latency
// analysis (Figure 12) or its per-op cost breakdowns (Figures 9–11).
// Histograms capture the distributions, spans capture one op's exact
// cost, and both are cheap enough to stay armed in production: every
// hot-path hook is a handful of atomic operations and allocates nothing
// while span sampling is off (see BenchmarkTelemetryOff).
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram bucketing: HDR-style log-linear. Values below 2^histSubBits
// get one bucket each (exact); above that, every power-of-two octave is
// split into 2^histSubBits linear sub-buckets, bounding the relative
// error of any recorded value to 1/2^histSubBits ≈ 6%. The scheme is
// branch-light, covers the full uint64 range (nanoseconds to ~584
// years) in 976 buckets, and two histograms with the same layout merge
// by adding counts — which is how multi-shard snapshots combine.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits

	// NumBuckets is the fixed bucket count of every Histogram.
	NumBuckets = (64 - histSubBits + 1) << histSubBits

	// numOctaves is the number of power-of-two octaves; exemplars are
	// retained one per octave rather than one per bucket, which keeps a
	// p99/p999 sample reachable without 976 pointer slots per histogram.
	numOctaves = NumBuckets >> histSubBits
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits
	sub := (v >> uint(exp-histSubBits)) & (histSubBuckets - 1)
	return ((exp - histSubBits + 1) << histSubBits) + int(sub)
}

// BucketLow returns the inclusive lower bound of bucket i.
func BucketLow(i int) uint64 {
	if i < histSubBuckets {
		return uint64(i)
	}
	exp := uint(i>>histSubBits) + histSubBits - 1
	sub := uint64(i & (histSubBuckets - 1))
	return 1<<exp + sub<<(exp-histSubBits)
}

// bucketWidth returns the width of bucket i (the distance to the next
// bucket's lower bound).
func bucketWidth(i int) uint64 {
	if i < histSubBuckets {
		return 1
	}
	exp := uint(i>>histSubBits) + histSubBits - 1
	return 1 << (exp - histSubBits)
}

// Histogram is a lock-free fixed-bucket log-scaled histogram, safe for
// concurrent use. Observe is wait-free (three atomic adds plus one
// conditional CAS loop for the max) and never allocates; queries and
// snapshots are approximate only in the bucket-resolution sense.
//
// Values are dimensionless uint64s; by convention the unit is part of
// the metric name (e.g. server.op_latency_ns records nanoseconds).
type Histogram struct {
	name    string
	buckets [NumBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64

	// exemplars holds the most recent traced observation per octave:
	// the trace ID of a request that actually landed in that latency
	// range, so a p99 bucket in a scrape links to a concrete trace.
	// Written only on the sampled path (ObserveTraced with a nonzero
	// trace ID); Observe never touches it.
	exemplars [numOctaves]atomic.Pointer[Exemplar]
}

// Exemplar links one recorded value to the trace that produced it,
// Prometheus-exemplar style. Low is the lower bound of the bucket the
// value fell in, matching the snapshot's bucket keys.
type Exemplar struct {
	Low     uint64 `json:"low"`
	Value   uint64 `json:"value"`
	TraceID uint64 `json:"trace_id"`
	UnixNs  int64  `json:"unix_ns"`
}

// NewHistogram creates a free-standing histogram. Most callers obtain
// histograms from a Registry instead, which names and exports them.
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value. It is safe to call from any goroutine and
// never allocates.
//
//kvd:hotpath
func (h *Histogram) Observe(v uint64) {
	h.ObserveN(v, 1, 0) //lint:allow hotalloc -- trace ID 0: the exemplar branch, ObserveN's one allocation, is not taken
}

// ObserveTraced records one value like Observe and, when traceID is
// nonzero, retains it as the exemplar for its latency octave. The
// traceID == 0 path is exactly Observe — zero allocations — so untraced
// hot-path callers pass span.Trace()'s zero through unconditionally.
//
//kvd:hotpath
func (h *Histogram) ObserveTraced(v uint64, traceID uint64) {
	h.ObserveN(v, 1, traceID) //lint:allow hotalloc -- only a nonzero trace ID allocates its exemplar: see ObserveN
}

// ObserveN records n observations of the same value v at the cost of one
// (count and sum grow by n and n·v), retaining v as its octave's exemplar
// when traceID is nonzero, like ObserveTraced. It is how a run of n
// operations timed by one pair of clock readings records their mean.
// n == 0 records nothing.
//
//kvd:hotpath
func (h *Histogram) ObserveN(v, n, traceID uint64) {
	if n == 0 {
		return
	}
	h.buckets[bucketIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	if traceID == 0 {
		return
	}
	h.exemplars[bucketIndex(v)>>histSubBits].Store(&Exemplar{ //lint:allow hotalloc -- sampled-only path: traceID != 0 means this request already allocated a span
		Low:     BucketLow(bucketIndex(v)),
		Value:   v,
		TraceID: traceID,
		UnixNs:  time.Now().UnixNano(),
	})
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observation, 0 when empty.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the arithmetic mean, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) by
// linear interpolation within the containing bucket. Concurrent
// observers may skew a live read slightly; use Snapshot for a
// consistent view.
func (h *Histogram) Quantile(q float64) uint64 {
	return h.Snapshot().Quantile(q)
}

// Snapshot captures the histogram's current state as a sparse,
// mergeable value. The copy is not atomic with respect to concurrent
// Observe calls, but every recorded value appears in at most one
// snapshot bucket, so totals never double-count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Name: h.name,
		Sum:  h.sum.Load(),
		Max:  h.max.Load(),
	}
	var n uint64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Low: BucketLow(i), Count: c})
			n += c
		}
	}
	// Derive the count from the buckets actually copied so percentile
	// walks are internally consistent even mid-Observe.
	s.Count = n
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, *e)
		}
	}
	return s
}

// BucketCount is one non-empty bucket of a snapshot: the bucket's
// inclusive lower bound and its observation count.
type BucketCount struct {
	Low   uint64 `json:"low"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, sparse over
// non-empty buckets, JSON-serializable and mergeable across shards.
type HistogramSnapshot struct {
	Name    string        `json:"name"`
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Max     uint64        `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Exemplars are the retained traced observations, at most one per
	// latency octave, ordered by Low ascending.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Merge folds o into s (same bucket layout assumed: both sides must
// come from this package). Used to combine per-shard histograms into
// one server-wide view.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
	if len(o.Buckets) == 0 {
		return
	}
	merged := make([]BucketCount, 0, len(s.Buckets)+len(o.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(o.Buckets) {
		switch {
		case j >= len(o.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Low < o.Buckets[j].Low):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || o.Buckets[j].Low < s.Buckets[i].Low:
			merged = append(merged, o.Buckets[j])
			j++
		default:
			merged = append(merged, BucketCount{Low: s.Buckets[i].Low,
				Count: s.Buckets[i].Count + o.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
	s.mergeExemplars(o.Exemplars)
}

// mergeExemplars folds o's exemplars into s, keeping the newest (by
// UnixNs) per octave and ascending Low order.
func (s *HistogramSnapshot) mergeExemplars(o []Exemplar) {
	if len(o) == 0 {
		return
	}
	byOct := map[int]Exemplar{}
	for _, e := range append(append([]Exemplar(nil), s.Exemplars...), o...) {
		oct := bucketIndex(e.Value) >> histSubBits
		if cur, ok := byOct[oct]; !ok || e.UnixNs > cur.UnixNs {
			byOct[oct] = e
		}
	}
	s.Exemplars = s.Exemplars[:0]
	for _, e := range byOct {
		s.Exemplars = append(s.Exemplars, e)
	}
	sort.Slice(s.Exemplars, func(i, j int) bool { return s.Exemplars[i].Low < s.Exemplars[j].Low })
}

// Quantile returns the q-th quantile (q in [0,1]) by linear
// interpolation within the containing bucket, 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= target {
			frac := (target - cum) / float64(b.Count)
			w := bucketWidth(bucketIndex(b.Low))
			v := float64(b.Low) + frac*float64(w)
			hi := float64(s.Max)
			if s.Max > 0 && v > hi {
				v = hi // never report past the observed maximum
			}
			return uint64(math.Round(v))
		}
		cum = next
	}
	return s.Max
}

// Mean returns the snapshot's arithmetic mean, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// P50, P90, P99 and P999 are the percentile shorthands the CLI and the
// experiment tables use.
func (s HistogramSnapshot) P50() uint64  { return s.Quantile(0.50) }
func (s HistogramSnapshot) P90() uint64  { return s.Quantile(0.90) }
func (s HistogramSnapshot) P99() uint64  { return s.Quantile(0.99) }
func (s HistogramSnapshot) P999() uint64 { return s.Quantile(0.999) }
