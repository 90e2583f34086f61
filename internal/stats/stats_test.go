package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(101)
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 0}, {50, 50}, {95, 95}, {100, 100}, {25, 25},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestSamplePercentileInterpolates(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); math.Abs(got-5) > 1e-9 {
		t.Errorf("Percentile(50) of {0,10} = %g, want 5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Error("empty sample should return zeros")
	}
}

func TestPercentileMonotonicProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSample(int(n) + 1)
		for i := 0; i <= int(n); i++ {
			s.Add(rng.Float64() * 100)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
