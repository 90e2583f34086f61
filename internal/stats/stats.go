// Package stats provides the exact-percentile helpers the KV-Direct
// experiments and load generators use: a raw-observation Sample with
// interpolated percentiles and CDF extraction (Figures 3b and 17).
// Named runtime metrics live in internal/telemetry.
//
// Sample is deterministic and allocation-light so it can be used inside
// tight simulation loops.
package stats

import (
	"math"
	"sort"
)

// Sample collects raw observations for exact percentile queries.
// It is intended for experiment-sized data sets (up to a few million points).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// CDF returns (value, cumulative fraction) pairs at the given percentile
// points, suitable for plotting a CDF like the paper's Figure 3b.
func (s *Sample) CDF(points []float64) []CDFPoint {
	out := make([]CDFPoint, 0, len(points))
	for _, p := range points {
		out = append(out, CDFPoint{Fraction: p / 100, Value: s.Percentile(p)})
	}
	return out
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Fraction float64 // cumulative probability in [0,1]
	Value    float64
}
