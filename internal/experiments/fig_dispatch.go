package experiments

import (
	"math"
	"math/rand"

	"kvdirect/internal/dispatch"
	"kvdirect/internal/memory"
	"kvdirect/internal/model"
	"kvdirect/internal/nicdram"
)

// Fig14 reproduces Figure 14, "DMA throughput with load dispatch (load
// dispatch ratio 0.5)": the memory-system operation rate for uniform and
// long-tail access streams at 50/95/100% read ratios, against the
// PCIe-only baseline. The cache behaviour is measured functionally (a
// real address stream through the real dispatcher and cache); the rate is
// then the bottleneck resource's capacity divided by its measured
// per-access load.
func Fig14(sc Scale) []*Table {
	t := &Table{
		ID:      "fig14",
		Title:   "Memory throughput with load dispatch, l=0.5 (Mops, 64 B accesses)",
		Columns: []string{"read %", "baseline(PCIe only)", "uniform", "long-tail"},
		Notes:   "NIC DRAM = 1/16 of host KVS: a hot set fits it, a uniform spread does not",
	}
	pcieCap := pcieOpsPerSec(model.CacheLineBytes)
	rate := func(load model.Load) float64 {
		r, _ := model.Rate(load, pcieCap, math.Inf(1))
		return r
	}

	overBase, overUniform, readOnly := math.MaxFloat64, math.MaxFloat64, 0.0
	for _, readPct := range []int{50, 95, 100} {
		uniform := rate(measureDispatch(sc, readPct, false))
		longtail := rate(measureDispatch(sc, readPct, true))
		t.Add(itoa(readPct), mops(pcieCap), mops(uniform), mops(longtail))
		overBase = min(overBase, (longtail-pcieCap)/1e6)
		overUniform = min(overUniform, (longtail-uniform)/1e6)
		readOnly = longtail / 1e6
	}
	t.Claims = []Claim{
		atLeast("fig14/longtail-minus-baseline", "load dispatch lifts long-tail throughput above PCIe alone at every read ratio", overBase, 0.1),
		atLeast("fig14/longtail-minus-uniform", "long-tail gains more than uniform: its hot set caches", overUniform, 0),
		atLeast("fig14/longtail-100-get", "read-intensive long-tail reaches the 180 Mops clock bound", readOnly, 175),
	}

	// The paper's companion question: what load dispatch ratio is optimal?
	// Solve the balance equation numerically for both workload shapes.
	opt := &Table{
		ID:      "fig14-optimal",
		Title:   "Numerically optimal load dispatch ratio (balance equation, §3.3.4)",
		Columns: []string{"workload", "optimal l", "modeled Mops", "h(l)"},
	}
	k := 1.0 / 16
	for _, w := range []struct {
		name string
		hit  func(float64) float64
	}{
		{"uniform", func(l float64) float64 { return dispatch.HitRateUniform(k, l) }},
		{"long-tail", func(l float64) float64 { return dispatch.HitRateZipf(k, l, 16e6) }},
	} {
		l, _ := dispatch.OptimalRatio(w.hit, 0, pcieCap, model.NICDRAMLineOpsPerSec)
		pcieLoad, dramLoad := dispatch.Loads(l, w.hit(l), 0)
		opt.Add(w.name, f2(l), mops(rate(model.Load{PCIe: pcieLoad, DRAM: dramLoad})), f2(w.hit(l)))
	}
	return []*Table{t, opt}
}

// measureDispatch runs a synthetic 64 B access stream through the real
// dispatcher+cache and returns the measured resource loads per access.
func measureDispatch(sc Scale, readPct int, zipfian bool) model.Load {
	host := memory.New(sc.MemBytes)
	defer host.Release()
	cache := nicdram.New(host, sc.MemBytes/16)
	defer cache.Release()
	d := dispatch.New(host, cache, 0.5)
	rng := rand.New(rand.NewSource(sc.Seed))
	nLines := sc.MemBytes / memory.LineBytes
	var z *rand.Zipf
	if zipfian {
		z = rand.NewZipf(rng, 1.2, 1, nLines-1)
	}
	buf := make([]byte, memory.LineBytes)
	// KV updates rewrite objects, not whole aligned lines: a cached write
	// miss therefore fetches the line before merging (write-allocate) and
	// writes it back on eviction, while reads fetch the aligned region.
	wbuf := make([]byte, 24)

	n := sc.Ops * 10
	// Warm the cache with the first half, measure the second half.
	var warmStats memory.Stats
	var warmDRAM uint64
	for i := 0; i < n; i++ {
		if i == n/2 {
			warmStats = host.Stats()
			warmDRAM = cache.Stats().DRAMLineReads + cache.Stats().DRAMLineWrites
		}
		var line uint64
		if zipfian {
			line = z.Uint64()
		} else {
			line = uint64(rng.Int63n(int64(nLines)))
		}
		addr := line * memory.LineBytes
		if rng.Intn(100) < readPct {
			d.Read(addr, buf)
		} else {
			d.Write(addr+8, wbuf)
		}
	}
	measured := float64(n - n/2)
	dramOps := cache.Stats().DRAMLineReads + cache.Stats().DRAMLineWrites - warmDRAM
	return model.Load{
		PCIe: float64(host.Stats().Sub(warmStats).Accesses()) / measured,
		DRAM: float64(dramOps) / measured,
	}
}
