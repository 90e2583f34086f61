// Package stats provides the exact-percentile helpers the KV-Direct
// experiments and load generators use: a raw-observation Sample with
// interpolated percentiles (Figures 3b and 17).
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
