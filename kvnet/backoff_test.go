package kvnet

import (
	"testing"
	"time"
)

// TestBackoffFullJitterDecorrelates is the regression test for the
// retry-storm fix: two clients that fail at the same moment walk the
// same attempt numbers, and with fixed exponential steps their retries
// land in lockstep after a failover. Full jitter must make their
// schedules diverge even though each remains deterministic per seed.
func TestBackoffFullJitterDecorrelates(t *testing.T) {
	const attempts = 32
	a := NewBackoff(2*time.Millisecond, 250*time.Millisecond, 1)
	b := NewBackoff(2*time.Millisecond, 250*time.Millisecond, 2)
	diverged := false
	for n := 1; n <= attempts; n++ {
		da, db := a.Delay(n), b.Delay(n)
		if da != db {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("two differently-seeded backoffs produced identical schedules: retries will storm in lockstep")
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	base, max := 2*time.Millisecond, 50*time.Millisecond
	b := NewBackoff(base, max, 7)
	for n := 1; n <= 64; n++ {
		cap := base << uint(n-1)
		if cap > max || cap <= 0 {
			cap = max
		}
		for i := 0; i < 20; i++ {
			d := b.Delay(n)
			if d < 0 || d > cap {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", n, d, cap)
			}
		}
	}
	// Shift overflow on huge attempt counts must still clamp to Max.
	if d := b.Delay(1 << 20); d < 0 || d > max {
		t.Fatalf("overflowing attempt: delay %v outside [0, %v]", d, max)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	run := func() []time.Duration {
		b := NewBackoff(time.Millisecond, 100*time.Millisecond, 99)
		out := make([]time.Duration, 0, 16)
		for n := 1; n <= 16; n++ {
			out = append(out, b.Delay(n))
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("delay %d differs between identical seeds: %v vs %v", i, x[i], y[i])
		}
	}
}

// TestBackoffSpreadsWithinCap checks the full-jitter property itself:
// at a fixed attempt the delays actually spread across [0, cap] instead
// of clustering around the exponential step.
func TestBackoffSpreadsWithinCap(t *testing.T) {
	b := NewBackoff(64*time.Millisecond, time.Second, 3)
	const n = 4 // cap = 512ms
	cap := 512 * time.Millisecond
	lo, hi := cap, time.Duration(0)
	for i := 0; i < 200; i++ {
		d := b.Delay(n)
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < cap/2 {
		t.Fatalf("delays span only [%v, %v] of [0, %v]; jitter is not full", lo, hi, cap)
	}
}

// TestBackoffSeedsOnFirstDelay: seeding math/rand's generator fills 607
// words (≈5 KB, microseconds), so a retry loop that never retries must
// not pay it — the generator is built by the first Delay, and the
// schedule is still the seed's.
func TestBackoffSeedsOnFirstDelay(t *testing.T) {
	b := NewBackoff(time.Millisecond, time.Second, 7)
	if b.rng != nil {
		t.Fatal("NewBackoff seeded the generator before any retry")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = NewBackoff(time.Millisecond, time.Second, 7) }); allocs > 1 {
		t.Fatalf("NewBackoff allocates %.0f objects; the generator must wait for the first Delay", allocs)
	}
	first := b.Delay(3)
	if b.rng == nil {
		t.Fatal("Delay did not build the generator")
	}
	if again := NewBackoff(time.Millisecond, time.Second, 7).Delay(3); again != first {
		t.Fatalf("lazy seeding changed the schedule: %v then %v for one seed", first, again)
	}
}
