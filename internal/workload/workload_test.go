package workload

import (
	"bytes"
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Keys: 1000, Skew: 0.99, GetRatio: 0.5, KeySize: 10, ValSize: 16, Seed: 7}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("divergence at op %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestKeysInRange(t *testing.T) {
	for _, skew := range []float64{0, 0.99} {
		g := New(Config{Keys: 100, Skew: skew, Seed: 1})
		for i := 0; i < 10000; i++ {
			if k := g.NextKey(); k >= 100 {
				t.Fatalf("skew %g: key %d out of range", skew, k)
			}
		}
	}
}

func TestGetRatio(t *testing.T) {
	g := New(Config{Keys: 100, GetRatio: 0.9, Seed: 2})
	gets := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Kind == Get {
			gets++
		}
	}
	frac := float64(gets) / n
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("GET fraction = %.3f, want 0.9", frac)
	}
}

func TestZipfSkewConcentratesOnHotKeys(t *testing.T) {
	// YCSB Zipf(0.99) over 1M keys: the hottest ~1000 ranks draw a large
	// share of accesses; uniform does not.
	zipf := New(Config{Keys: 1 << 20, Skew: 0.99, Seed: 3})
	if frac := zipf.HotKeyFraction(1000); frac < 0.3 {
		t.Errorf("zipf top-1000 fraction = %.2f, want >= 0.3", frac)
	}
	uni := New(Config{Keys: 1 << 20, Skew: 0, Seed: 3})
	if frac := uni.HotKeyFraction(1000); frac > 0.01 {
		t.Errorf("uniform top-1000 fraction = %.4f, want ~0.001", frac)
	}
}

func TestZipfEmpiricalMatchesCDF(t *testing.T) {
	g := New(Config{Keys: 1000, Skew: 0.99, Seed: 4})
	// Count draws of the single most popular key (rank 0, scrambled id).
	hot := scramble(0) % 1000
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if g.NextKey() == hot {
			hits++
		}
	}
	want := g.HotKeyFraction(1)
	got := float64(hits) / n
	if math.Abs(got-want) > 0.02 {
		t.Errorf("hottest-key frequency = %.3f, analytic %.3f", got, want)
	}
}

func TestUniformSpread(t *testing.T) {
	g := New(Config{Keys: 16, Skew: 0, Seed: 5})
	counts := make([]int, 16)
	const n = 160000
	for i := 0; i < n; i++ {
		counts[g.NextKey()]++
	}
	for k, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-1.0/16) > 0.01 {
			t.Errorf("key %d frequency %.3f, want 0.0625", k, frac)
		}
	}
}

func TestKeyBytesStableAndSized(t *testing.T) {
	g := New(Config{Keys: 100, KeySize: 12, ValSize: 8, Seed: 6})
	k1 := g.KeyBytes(42)
	k2 := g.KeyBytes(42)
	if !bytes.Equal(k1, k2) {
		t.Error("KeyBytes not deterministic")
	}
	if len(k1) != 12 {
		t.Errorf("key size = %d, want 12", len(k1))
	}
	if bytes.Equal(g.KeyBytes(1), g.KeyBytes(2)) {
		t.Error("distinct ids produced equal keys")
	}
}

func TestKeySizeFloor(t *testing.T) {
	g := New(Config{Keys: 10, KeySize: 2, Seed: 7})
	if len(g.KeyBytes(1)) != 8 {
		t.Errorf("KeySize should floor to 8, got %d", len(g.KeyBytes(1)))
	}
}

func TestValueBytesVersioned(t *testing.T) {
	g := New(Config{Keys: 10, ValSize: 32, Seed: 8})
	v0 := g.ValueBytes(5, 0)
	v1 := g.ValueBytes(5, 1)
	if bytes.Equal(v0, v1) {
		t.Error("different versions produced equal values")
	}
	if len(v0) != 32 {
		t.Errorf("value size = %d", len(v0))
	}
	if !bytes.Equal(v0, g.ValueBytes(5, 0)) {
		t.Error("ValueBytes not deterministic")
	}
}

func TestZeroKeysPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Keys: 0})
}

func TestHugeZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Keys: MaxZipfKeys + 1, Skew: 0.99})
}

func TestHotKeyFractionBounds(t *testing.T) {
	g := New(Config{Keys: 100, Skew: 0.99, Seed: 10})
	if g.HotKeyFraction(0) != 0 {
		t.Error("HotKeyFraction(0) != 0")
	}
	if f := g.HotKeyFraction(100); math.Abs(f-1) > 1e-9 {
		t.Errorf("HotKeyFraction(all) = %g, want 1", f)
	}
	if f := g.HotKeyFraction(1000); math.Abs(f-1) > 1e-9 {
		t.Errorf("HotKeyFraction(>n) = %g, want 1", f)
	}
}
