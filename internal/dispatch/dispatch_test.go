package dispatch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kvdirect/internal/memory"
	"kvdirect/internal/nicdram"
)

func newDispatcher(hostBytes, cacheBytes uint64, ratio float64) (*memory.Memory, *Dispatcher) {
	host := memory.New(hostBytes)
	var cache *nicdram.Cache
	if cacheBytes > 0 {
		cache = nicdram.New(host, cacheBytes)
	}
	return host, New(host, cache, ratio)
}

func TestPolicyFractionMatchesRatio(t *testing.T) {
	for _, ratio := range []float64{0.25, 0.5, 0.75} {
		p := Policy{Ratio: ratio}
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if p.Cacheable(uint64(i) * memory.LineBytes) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-ratio) > 0.01 {
			t.Errorf("ratio %g: cacheable fraction = %.3f", ratio, got)
		}
	}
}

func TestPolicyExtremes(t *testing.T) {
	all := Policy{Ratio: 1}
	none := Policy{Ratio: 0}
	for i := uint64(0); i < 1000; i++ {
		if !all.Cacheable(i * 64) {
			t.Fatal("ratio 1 should cache everything")
		}
		if none.Cacheable(i * 64) {
			t.Fatal("ratio 0 should cache nothing")
		}
	}
}

func TestPolicyStableWithinGranule(t *testing.T) {
	p := Policy{Ratio: 0.5}
	for g := uint64(0); g < 1000; g++ {
		base := p.Cacheable(g * GranuleBytes)
		for off := uint64(1); off < GranuleBytes; off += 37 {
			if p.Cacheable(g*GranuleBytes+off) != base {
				t.Fatalf("policy differs within granule %d", g)
			}
		}
	}
}

func TestRunsSplitAtDecisionBoundaries(t *testing.T) {
	// A request spanning granules with different decisions must split;
	// same-decision neighbours must merge into one run.
	_, d := newDispatcher(1<<20, 1<<14, 0.5)
	p := d.policy
	// Find a boundary where the decision flips.
	var flip uint64
	for g := uint64(0); g < 1000; g++ {
		if p.Cacheable(g*GranuleBytes) != p.Cacheable((g+1)*GranuleBytes) {
			flip = (g + 1) * GranuleBytes
			break
		}
	}
	if flip == 0 {
		t.Skip("no decision flip found in first 1000 granules")
	}
	// Each run is one routed request, so the routing counters count runs.
	runs := func(addr uint64) uint64 {
		before := d.Stats()
		d.Read(addr, make([]byte, 128))
		st := d.Stats().Sub(before)
		return st.CachedReads + st.DirectReads
	}
	count := runs(flip - 64)
	if count != 2 {
		t.Errorf("request across flip split into %d runs, want 2", count)
	}
	// Same-decision span: one run even across granule boundary.
	var same uint64
	for g := uint64(0); g < 1000; g++ {
		if p.Cacheable(g*GranuleBytes) == p.Cacheable((g+1)*GranuleBytes) {
			same = (g + 1) * GranuleBytes
			break
		}
	}
	count = runs(same - 64)
	if count != 1 {
		t.Errorf("same-decision span split into %d runs, want 1", count)
	}
}

func TestDispatcherRouting(t *testing.T) {
	_, d := newDispatcher(1<<20, 1<<14, 0.5)
	buf := make([]byte, 8)
	for i := uint64(0); i < 1000; i++ {
		d.Read(i*64, buf)
	}
	s := d.Stats()
	if s.CachedReads == 0 || s.DirectReads == 0 {
		t.Fatalf("expected mixed routing, got %+v", s)
	}
	frac := s.CachedFraction()
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("cached fraction = %.2f, want ~0.5", frac)
	}
}

func TestBaselineModeNoCache(t *testing.T) {
	host, d := newDispatcher(1<<16, 0, 0.5) // nil cache → pure PCIe
	buf := make([]byte, 8)
	d.Read(0, buf)
	d.Write(0, buf)
	s := d.Stats()
	if s.CachedReads+s.CachedWrites != 0 {
		t.Errorf("baseline dispatcher used cache: %+v", s)
	}
	if host.Stats().Accesses() != 2 {
		t.Errorf("host accesses = %d, want 2", host.Stats().Accesses())
	}
}

func TestDispatcherCoherenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		host, d := newDispatcher(1<<14, 16*64, 0.5)
		shadow := make([]byte, 1<<14)
		for op := 0; op < 400; op++ {
			addr := uint64(rng.Intn(1<<14 - 256))
			n := 1 + rng.Intn(128)
			if rng.Intn(2) == 0 {
				data := make([]byte, n)
				rng.Read(data)
				d.Write(addr, data)
				copy(shadow[addr:], data)
			} else {
				got := make([]byte, n)
				d.Read(addr, got)
				if !bytes.Equal(got, shadow[addr:addr+uint64(n)]) {
					return false
				}
			}
		}
		d.Flush()
		all := make([]byte, 1<<14)
		host.Peek(0, all)
		return bytes.Equal(all, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestHitRateUniform(t *testing.T) {
	// Paper: k = 4 GiB / 64 GiB = 1/16. At l = 0.5, h = 0.125.
	if got := HitRateUniform(1.0/16, 0.5); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("uniform h = %g, want 0.125", got)
	}
	if HitRateUniform(0.5, 0.25) != 1 {
		t.Error("h should cap at 1 when cache exceeds corpus")
	}
	if HitRateUniform(0.1, 0) != 0 {
		t.Error("l=0 should give h=0")
	}
}

func TestHitRateZipfMatchesPaperExample(t *testing.T) {
	// Paper: ~0.7 hit rate with 10M cache-able... "1M cache in 1G corpus".
	got := HitRateZipf(1e-3, 1, 1e9)
	if got < 0.6 || got > 0.75 {
		t.Errorf("Zipf h(1M/1G) = %.2f, want ~0.7", got)
	}
}

func TestHitRateZipfExceedsUniform(t *testing.T) {
	k, n := 1.0/16, 16e6
	for _, l := range []float64{0.3, 0.5, 0.7, 1.0} {
		zu := HitRateZipf(k, l, n)
		un := HitRateUniform(k, l)
		if zu <= un {
			t.Errorf("l=%g: zipf h=%.3f should exceed uniform h=%.3f", l, zu, un)
		}
	}
}

func TestHitRateZipfCapsAtOne(t *testing.T) {
	if HitRateZipf(0.5, 0.25, 1e6) != 1 {
		t.Error("k >= l should give h = 1")
	}
}

func TestLoadsAccounting(t *testing.T) {
	pcie, dram := Loads(0.5, 0.6, 0)
	// (1-0.5) + 0.5*0.4 = 0.7 PCIe; 0.5 DRAM.
	if math.Abs(pcie-0.7) > 1e-12 || math.Abs(dram-0.5) > 1e-12 {
		t.Errorf("loads = %g/%g, want 0.7/0.5", pcie, dram)
	}
	// With writes, dirty write-backs add PCIe load.
	pcieW, _ := Loads(0.5, 0.6, 0.5)
	if pcieW <= pcie {
		t.Error("write traffic should increase PCIe load")
	}
}

func TestSystemOpsDispatchBeatsBaselineLongTail(t *testing.T) {
	// Figure 14: long-tail GET workloads beat the PCIe-only baseline.
	pcieCap, dramCap := 120e6, 200e6
	hit := func(l float64) float64 { return HitRateZipf(1.0/16, l, 16e6) }
	base := SystemOpsPerSec(0, hit, 0, pcieCap, dramCap)
	disp := SystemOpsPerSec(0.5, hit, 0, pcieCap, dramCap)
	if base != pcieCap {
		t.Errorf("baseline = %g, want %g", base, pcieCap)
	}
	if disp < 1.3*base {
		t.Errorf("long-tail dispatch %.0f Mops should beat baseline %.0f by >1.3x",
			disp/1e6, base/1e6)
	}
	// Clock-rate reachable (paper: 180 Mops for read-intensive long-tail).
	if disp < 160e6 {
		t.Errorf("long-tail dispatch = %.0f Mops, want >= 160", disp/1e6)
	}
}

func TestSystemOpsUniformModestGain(t *testing.T) {
	// Figure 14: under uniform workload the caching effect is negligible
	// (cache is only ~6% of host KVS memory) but dispatch still helps some.
	pcieCap, dramCap := 120e6, 200e6
	hit := func(l float64) float64 { return HitRateUniform(1.0/16, l) }
	disp := SystemOpsPerSec(0.5, hit, 0, pcieCap, dramCap)
	if disp < pcieCap || disp > 1.4*pcieCap {
		t.Errorf("uniform dispatch = %.0f Mops, want modest gain over 120", disp/1e6)
	}
}

func TestPureCacheWorseThanDispatchWhenDRAMSlow(t *testing.T) {
	// Paper §2.4: DRAM-as-pure-cache (l=1) underperforms because NIC DRAM
	// throughput is on par with PCIe, not faster.
	pcieCap, dramCap := 120e6, 200e6
	hit := func(l float64) float64 { return HitRateZipf(1.0/16, l, 16e6) }
	pure := SystemOpsPerSec(1, hit, 0, pcieCap, dramCap)
	_, best := OptimalRatio(hit, 0, pcieCap, dramCap)
	if pure >= best {
		t.Errorf("pure cache (%.0f Mops) should lose to optimal dispatch (%.0f)",
			pure/1e6, best/1e6)
	}
}

func TestOptimalRatioBalances(t *testing.T) {
	pcieCap, dramCap := 120e6, 200e6
	hit := func(l float64) float64 { return HitRateZipf(1.0/16, l, 16e6) }
	l, ops := OptimalRatio(hit, 0, pcieCap, dramCap)
	if l <= 0 || l >= 1 {
		t.Errorf("optimal l = %g, want interior", l)
	}
	// At the optimum, resource utilizations are roughly balanced.
	h := hit(l)
	pl, dl := Loads(l, h, 0)
	u1, u2 := ops*pl/pcieCap, ops*dl/dramCap
	if math.Abs(u1-u2) > 0.05 && u1 < 0.99 && u2 < 0.99 {
		t.Errorf("unbalanced at optimum: pcie util %.2f, dram util %.2f", u1, u2)
	}
}

func TestMeasuredHitRateTracksZipfModel(t *testing.T) {
	// Drive the functional dispatcher with a Zipf address stream and
	// compare the cache's measured hit rate against the analytic h(l).
	host := memory.New(1 << 22) // 4 MiB corpus
	cache := nicdram.New(host, 1<<18)
	d := New(host, cache, 0.5)
	rng := rand.New(rand.NewSource(42))
	nLines := host.Size() / 64
	z := rand.NewZipf(rng, 1.2, 1, nLines-1)
	buf := make([]byte, 64)
	for i := 0; i < 300000; i++ {
		d.Read(z.Uint64()*64, buf)
	}
	got := cache.Stats().HitRate()
	if got < 0.4 {
		t.Errorf("Zipf measured hit rate = %.2f, want >= 0.4 (hot head cached)", got)
	}
}

func TestMeasuredHitRateUniformLow(t *testing.T) {
	host := memory.New(1 << 22)
	cache := nicdram.New(host, 1<<18) // k = 1/16
	d := New(host, cache, 0.5)
	rng := rand.New(rand.NewSource(43))
	buf := make([]byte, 64)
	nLines := int(host.Size() / 64)
	for i := 0; i < 200000; i++ {
		d.Read(uint64(rng.Intn(nLines))*64, buf)
	}
	got := cache.Stats().HitRate()
	// Analytic: k/l = 0.125.
	if got < 0.08 || got > 0.18 {
		t.Errorf("uniform measured hit rate = %.3f, want ~0.125", got)
	}
}
