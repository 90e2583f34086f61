package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"testing"
)

func TestBucketIndexLowInverse(t *testing.T) {
	// Every bucket's lower bound maps back to that bucket, bounds are
	// strictly increasing, and the last value of each bucket still maps
	// into it.
	prev := uint64(0)
	for i := 0; i < NumBuckets; i++ {
		low := BucketLow(i)
		if i > 0 && low <= prev {
			t.Fatalf("bucket %d: bound %d not increasing past %d", i, low, prev)
		}
		prev = low
		if got := bucketIndex(low); got != i {
			t.Fatalf("bucketIndex(BucketLow(%d)=%d) = %d", i, low, got)
		}
		hi := low + bucketWidth(i) - 1
		if got := bucketIndex(hi); got != i {
			t.Fatalf("bucket %d: top value %d maps to %d", i, hi, got)
		}
	}
	if got := bucketIndex(math.MaxUint64); got != NumBuckets-1 {
		t.Fatalf("MaxUint64 maps to bucket %d, want %d", got, NumBuckets-1)
	}
}

func TestBucketRelativeError(t *testing.T) {
	// Above the exact range, bucket width over lower bound never exceeds
	// 2^-histSubBits + epsilon: the advertised ~6% resolution.
	for _, v := range []uint64{16, 100, 1_000, 123_456, 1 << 30, 1 << 50, math.MaxUint64 / 3} {
		i := bucketIndex(v)
		w, low := bucketWidth(i), BucketLow(i)
		if low > v || v >= low+w && i != NumBuckets-1 {
			t.Fatalf("value %d outside bucket %d [%d, %d)", v, i, low, low+w)
		}
		if rel := float64(w) / float64(low); rel > 1.0/float64(histSubBuckets)+1e-9 {
			t.Fatalf("value %d: relative bucket width %f too coarse", v, rel)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("test.latency_ns")
	// Uniform 1..10000: quantiles should land within one bucket width.
	for v := uint64(1); v <= 10000; v++ {
		h.Observe(v)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 10000 {
		t.Fatalf("max = %d", h.Max())
	}
	s := h.Snapshot()
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0.50, 5000}, {0.90, 9000}, {0.99, 9900}, {0.999, 9990}} {
		got := s.Quantile(tc.q)
		tol := tc.want / histSubBuckets // one bucket of slop
		if got < tc.want-tol || got > tc.want+tol {
			t.Errorf("q%.3f = %d, want %d ± %d", tc.q, got, tc.want, tol)
		}
	}
	if s.P999() < s.P99() || s.P99() < s.P90() || s.P90() < s.P50() {
		t.Error("percentiles not monotonic")
	}
	if s.Quantile(1) != 10000 {
		t.Errorf("q1 = %d, want exactly max", s.Quantile(1))
	}
}

func TestHistogramEmptyAndSingle(t *testing.T) {
	h := NewHistogram("test.empty")
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram not zero-valued")
	}
	h.Observe(42)
	s := h.Snapshot()
	if s.P50() != 42 || s.P999() != 42 {
		t.Errorf("single observation: p50=%d p999=%d, want 42", s.P50(), s.P999())
	}
	if s.Mean() != 42 {
		t.Errorf("mean = %f", s.Mean())
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a, b := NewHistogram("m"), NewHistogram("m")
	for v := uint64(1); v <= 1000; v++ {
		a.Observe(v)
		b.Observe(v + 5000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 2000 {
		t.Fatalf("merged count = %d", sa.Count)
	}
	if sa.Max != sb.Max {
		t.Fatalf("merged max = %d, want %d", sa.Max, sb.Max)
	}
	if sa.Sum != a.Sum()+b.Sum() {
		t.Fatalf("merged sum = %d", sa.Sum)
	}
	// Bucket lows stay sorted and unique after merging.
	for i := 1; i < len(sa.Buckets); i++ {
		if sa.Buckets[i].Low <= sa.Buckets[i-1].Low {
			t.Fatal("merged buckets not sorted/unique")
		}
	}
	// Median of the merged set sits between the two halves.
	med := sa.Quantile(0.5)
	if med < 900 || med > 5100 {
		t.Errorf("merged median = %d", med)
	}
	// Merging into an empty snapshot copies it.
	var empty HistogramSnapshot
	empty.Merge(sb)
	if empty.Count != sb.Count || len(empty.Buckets) != len(sb.Buckets) {
		t.Error("merge into empty lost data")
	}
}

// TestHistogramObserveN: n observations of one value at once are n
// Observe calls — same buckets, count, sum and max — and a nonzero trace
// ID leaves the value as its octave's exemplar while zero leaves none.
func TestHistogramObserveN(t *testing.T) {
	for _, traceID := range []uint64{0, 0xfeed} {
		got, want := NewHistogram("n"), NewHistogram("n")
		for _, o := range []struct{ v, n uint64 }{{1200, 32}, {7, 3}, {90_000, 1}, {5, 0}} {
			got.ObserveN(o.v, o.n, traceID)
			for i := uint64(0); i < o.n; i++ {
				want.Observe(o.v)
			}
		}
		gs, ws := got.Snapshot(), want.Snapshot()
		if gs.Count != 36 || gs.Count != ws.Count || gs.Sum != ws.Sum || gs.Max != ws.Max {
			t.Errorf("trace %#x: count/sum/max %d/%d/%d, want %d/%d/%d (count 36)",
				traceID, gs.Count, gs.Sum, gs.Max, ws.Count, ws.Sum, ws.Max)
		}
		if len(gs.Buckets) != len(ws.Buckets) {
			t.Fatalf("trace %#x: buckets %v, want %v", traceID, gs.Buckets, ws.Buckets)
		}
		for i := range gs.Buckets {
			if gs.Buckets[i] != ws.Buckets[i] {
				t.Errorf("trace %#x: bucket %d is %+v, want %+v", traceID, i, gs.Buckets[i], ws.Buckets[i])
			}
		}
		if traceID == 0 {
			if len(gs.Exemplars) != 0 {
				t.Errorf("untraced observations left exemplars %+v", gs.Exemplars)
			}
			continue
		}
		// One exemplar per octave observed (5 ns with n == 0 recorded nothing).
		if len(gs.Exemplars) != 3 {
			t.Fatalf("exemplars %+v, want one per observed octave (3)", gs.Exemplars)
		}
		for _, e := range gs.Exemplars {
			if e.TraceID != traceID || e.Low != BucketLow(bucketIndex(e.Value)) {
				t.Errorf("exemplar %+v: want trace %#x and its bucket's low", e, traceID)
			}
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram("test.concurrent")
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			v := seed*2654435761 + 1
			for i := 0; i < per; i++ {
				v = v*6364136223846793005 + 1442695040888963407
				h.Observe(v % 1_000_000)
			}
		}(uint64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	s := h.Snapshot()
	var n uint64
	for _, b := range s.Buckets {
		n += b.Count
	}
	if n != s.Count {
		t.Fatalf("bucket sum %d != count %d", n, s.Count)
	}
}

func TestBucketCountSanity(t *testing.T) {
	// The compile-time layout matches the math: the top bucket holds
	// MaxUint64 and bucket indexing never exceeds the array.
	top := bucketIndex(math.MaxUint64)
	if top != NumBuckets-1 {
		t.Fatalf("top bucket %d, NumBuckets %d", top, NumBuckets)
	}
	if exp := bits.Len64(math.MaxUint64) - 1; exp != 63 {
		t.Fatal("bits.Len64 sanity")
	}
}
