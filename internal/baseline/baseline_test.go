package baseline

import (
	"math/rand"
	"testing"

	"kvdirect/internal/model"
)

func TestCuckooPutGet(t *testing.T) {
	c := NewCuckoo(1<<20, 10, 0.3, 1)
	for k := uint64(1); k <= 1000; k++ {
		if !c.Put(k) {
			t.Fatalf("put %d failed", k)
		}
	}
	for k := uint64(1); k <= 1000; k++ {
		if !c.Get(k) {
			t.Fatalf("get %d missed", k)
		}
	}
	if c.Get(99999) {
		t.Error("get of absent key succeeded")
	}
	if c.NumKeys() != 1000 {
		t.Errorf("NumKeys = %d", c.NumKeys())
	}
}

func TestCuckooGetAccessesBetween2And3(t *testing.T) {
	// Bucket read(s) + value read: 2 if in first bucket, 3 if in second.
	c := NewCuckoo(1<<20, 10, 0.3, 2)
	for k := uint64(1); k <= 5000; k++ {
		c.Put(k)
	}
	c.GetStats = AccessStats{}
	for k := uint64(1); k <= 5000; k++ {
		c.Get(k)
	}
	per := c.GetStats.PerOp()
	if per < 2.0 || per > 3.0 {
		t.Errorf("cuckoo GET = %.2f accesses, want in [2,3]", per)
	}
}

func TestCuckooKicksUnderPressure(t *testing.T) {
	// Fill to high load factor: inserts should show kick-driven
	// fluctuations (MaxOp much larger than the mean).
	c := NewCuckoo(1<<18, 10, 0.08, 3) // small index → high load factor
	for k := uint64(1); k <= 1<<20; k++ {
		if !c.Put(k) {
			break
		}
	}
	if c.PutStats.MaxOp < 6 {
		t.Errorf("expected kick chains under pressure, max op = %d accesses",
			c.PutStats.MaxOp)
	}
	lf := float64(c.NumKeys()) / float64(len(c.buckets)*cuckooWays)
	if lf < 0.8 {
		t.Errorf("cuckoo filled to load factor %.2f, want > 0.8", lf)
	}
}

func TestCuckooDeleteChurn(t *testing.T) {
	c := NewCuckoo(1<<20, 10, 0.3, 4)
	for k := uint64(1); k <= 1000; k++ {
		c.Put(k)
	}
	for k := uint64(1); k <= 500; k++ {
		if !c.Delete(k) {
			t.Fatalf("delete %d failed", k)
		}
	}
	if c.NumKeys() != 500 {
		t.Errorf("NumKeys = %d after churn", c.NumKeys())
	}
	if c.Get(250) {
		t.Error("deleted key still present")
	}
	if !c.Get(750) {
		t.Error("surviving key lost")
	}
}

func TestHopscotchPutGet(t *testing.T) {
	h := NewHopscotch(1<<20, 10, 0.3)
	for k := uint64(1); k <= 1000; k++ {
		if !h.Put(k) {
			t.Fatalf("put %d failed", k)
		}
	}
	for k := uint64(1); k <= 1000; k++ {
		if !h.Get(k) {
			t.Fatalf("get %d missed", k)
		}
	}
	if h.Get(99999) {
		t.Error("absent key found")
	}
}

func TestHopscotchGetStaysCheapAtHighLoad(t *testing.T) {
	// The hopscotch selling point (Figure 11a at high utilization): GETs
	// stay ~2 accesses (neighborhood + value) even under heavy load.
	h := NewHopscotch(1<<20, 10, 0.055)
	target := uint64(float64(len(h.slots)) * 0.9)
	for k := uint64(1); k <= target; k++ {
		if !h.Put(k) {
			break
		}
	}
	lf := float64(h.NumKeys()) / float64(len(h.slots))
	if lf < 0.85 {
		t.Fatalf("load factor %.2f too low for the test", lf)
	}
	h.GetStats = AccessStats{}
	for k := uint64(1); k <= 2000; k++ {
		h.Get(k)
	}
	if per := h.GetStats.PerOp(); per > 2.8 {
		t.Errorf("hopscotch GET = %.2f accesses at load %.2f, want <= 2.8", per, lf)
	}
}

func TestHopscotchPutExpensiveAtHighLoad(t *testing.T) {
	// Figure 11b: hopscotch PUT is significantly worse than GET under
	// high utilization (probing + bubbling).
	h := NewHopscotch(1<<20, 10, 0.055)
	target := uint64(float64(len(h.slots)) * 0.92)
	for k := uint64(1); k <= target; k++ {
		if !h.Put(k) {
			break
		}
	}
	// Churn: delete and reinsert to measure steady-state insert cost.
	rng := rand.New(rand.NewSource(5))
	h.PutStats = AccessStats{}
	next := uint64(1 << 21)
	for i := 0; i < 2000; i++ {
		victim := uint64(rng.Intn(h.NumKeys())) + 1
		if h.Delete(victim) {
			h.Put(next)
			next++
		}
	}
	getPer := 2.0
	putPer := h.PutStats.PerOp()
	if putPer < getPer {
		t.Errorf("high-load hopscotch PUT (%.2f) should cost more than GET (~2)", putPer)
	}
}

func TestHopscotchDelete(t *testing.T) {
	h := NewHopscotch(1<<20, 10, 0.3)
	for k := uint64(1); k <= 100; k++ {
		h.Put(k)
	}
	if !h.Delete(50) || h.Get(50) {
		t.Error("delete failed")
	}
	if h.Delete(50) {
		t.Error("double delete succeeded")
	}
	if h.NumKeys() != 99 {
		t.Errorf("NumKeys = %d", h.NumKeys())
	}
}

func TestSmallKVUtilizationCapped(t *testing.T) {
	// Figure 11: MemC3/FaRM cannot reach high memory utilization for
	// 10 B KVs (index + slab overhead dominates).
	total := uint64(1 << 20)
	c := NewCuckoo(total, 10, 0.3, 6)
	for k := uint64(1); ; k++ {
		if !c.Put(k) {
			break
		}
	}
	if u := c.Utilization(total); u > 0.55 {
		t.Errorf("cuckoo 10 B utilization = %.2f, should cap below 0.55", u)
	}
	h := NewHopscotch(total, 10, 0.3)
	for k := uint64(1); ; k++ {
		if !h.Put(k) {
			break
		}
	}
	if u := h.Utilization(total); u > 0.55 {
		t.Errorf("hopscotch 10 B utilization = %.2f, should cap below 0.55", u)
	}
}

func TestValueBytesRounding(t *testing.T) {
	cases := []struct{ kv, want int }{
		{8, 16}, {10, 32}, {24, 32}, {56, 64}, {248, 256},
	}
	for _, c := range cases {
		if got := valueBytes(c.kv); got != c.want {
			t.Errorf("valueBytes(%d) = %d, want %d", c.kv, got, c.want)
		}
	}
}

func TestCPUModel(t *testing.T) {
	plain := CPUKVSOpsPerSec(16, false)
	batched := CPUKVSOpsPerSec(16, true)
	if plain != 16*model.CPUKVOpsPerCore || batched != 16*model.CPUKVOpsPerCoreBatched {
		t.Errorf("CPU model wrong: %g / %g", plain, batched)
	}
	if batched <= plain {
		t.Error("batching should help")
	}
}

func TestAtomicsBaselinesScaleThenSaturate(t *testing.T) {
	one1 := OneSidedRDMAAtomicsOps(1)
	if one1 != model.RDMAOneSidedAtomicsOps {
		t.Errorf("1-key one-sided atomics = %g", one1)
	}
	one2 := OneSidedRDMAAtomicsOps(2)
	if one2 != 2*one1 {
		t.Error("one-sided atomics should scale linearly at low key counts")
	}
	oneBig := OneSidedRDMAAtomicsOps(1 << 20)
	if oneBig != model.RDMAMessageRateOps {
		t.Errorf("one-sided atomics should saturate at message rate, got %g", oneBig)
	}
	two1 := TwoSidedRDMAAtomicsOps(1, 16)
	if two1 >= OneSidedRDMAAtomicsOps(1<<20) {
		t.Error("single-key two-sided atomics should be far from saturation")
	}
}

func TestAccessStatsPerOp(t *testing.T) {
	var s AccessStats
	if s.PerOp() != 0 {
		t.Error("empty stats PerOp should be 0")
	}
	s.add(2)
	s.add(4)
	if s.PerOp() != 3 || s.MaxOp != 4 {
		t.Errorf("PerOp=%g MaxOp=%d", s.PerOp(), s.MaxOp)
	}
}
