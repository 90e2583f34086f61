package experiments

import (
	"math"
	"math/rand"
	"strings"

	"kvdirect/internal/syssim"
	"kvdirect/internal/workload"
)

// SysSim cross-validates the bottleneck arithmetic behind Figure 16 with
// the integrated event-driven simulator: the same measured per-op
// resource loads are fed to both, and the simulator additionally composes
// every latency and concurrency limit (network, decoder, reservation
// station, PCIe tags, DRAM banks) to produce end-to-end latency.
func SysSim(sc Scale) []*Table {
	t := &Table{
		ID:    "syssim",
		Title: "Analytic model vs integrated event simulation",
		Columns: []string{"configuration", "analytic Mops", "simulated Mops",
			"sim P50 us", "sim P95 us", "PCIe util", "forwarded"},
		Notes: "same measured DMA loads drive both; agreement validates the Figure 16/17 arithmetic",
	}
	type cfg struct {
		name     string
		kv       int
		longtail bool
		getRatio float64
	}
	lowP95, highP95 := math.MaxFloat64, 0.0
	for _, c := range []cfg{
		{"10B uniform 100% GET", 10, false, 1.0},
		{"10B long-tail 100% GET", 10, true, 1.0},
		{"10B long-tail 50% PUT", 10, true, 0.5},
		{"60B uniform 100% GET", 60, false, 1.0},
	} {
		pt := measureYCSB(sc, c.kv, c.longtail)
		analytic := pt.throughput(c.getRatio)

		// Convert the measured split into the simulator's parameters:
		// total accesses per op and the fraction served by NIC DRAM.
		shareGet := share(pt.dramPerGet, pt.getAccesses)
		sharePut := share(pt.dramPerPut, pt.putAccesses)
		mix := c.getRatio*shareGet + (1-c.getRatio)*sharePut
		simCfg := syssim.Config{
			GetDMAs:     total(pt.getAccesses, shareGet),
			PutDMAs:     total(pt.putAccesses, sharePut),
			DRAMShare:   mix,
			Clients:     32,
			BatchOps:    40,
			OpWireBytes: wireBytesPerOp(c.kv),
			Seed:        sc.Seed,
		}
		stream := simStream(c, sc.Seed)
		n := sc.SimOps
		if n > 150000 {
			n = 150000
		}
		res := syssim.Run(simCfg, n, stream)
		p95 := res.Latency.Percentile(95) / 1000
		t.Add(c.name, mops(analytic), mops(res.OpsPerSec),
			f2(res.Latency.Percentile(50)/1000), f2(p95),
			f2(res.PCIeUtil), itoa(int(res.Forwarded)))
		// Uniform rows must agree tightly (nothing to forward); long-tail
		// rows may run hotter, because the simulator merges hot keys
		// beyond what the measured averages capture.
		hi := 1.2
		if c.longtail {
			hi = 1.6
		}
		t.Claims = append(t.Claims, within("syssim/sim-over-analytic-"+strings.ReplaceAll(c.name, " ", "-"),
			"the event simulation reproduces the analytic rate", res.OpsPerSec/analytic, 0.85, hi))
		lowP95, highP95 = min(lowP95, p95), max(highP95, p95)
	}
	t.Claims = append(t.Claims,
		atLeast("syssim/lowest-p95", "peak-load latency in single-digit to low-teens microseconds", lowP95, 2),
		atMost("syssim/highest-p95", "peak-load latency in single-digit to low-teens microseconds", highP95, 25))
	return []*Table{t}
}

// share converts (DRAM line ops, PCIe DMAs) per op into the fraction of
// logical accesses served by DRAM. DRAM fills accompany PCIe misses, so
// roughly half the DRAM line traffic is hit service.
func share(dram, pcieDMAs float64) float64 {
	served := dram - pcieDMAs // fills ≈ misses ≈ PCIe reads into cacheable space
	if served < 0 {
		served = dram / 2
	}
	tot := served + pcieDMAs
	if tot <= 0 {
		return 0
	}
	s := served / tot
	if s > 0.9 {
		s = 0.9
	}
	return s
}

// total converts PCIe DMAs per op plus a DRAM share into total logical
// accesses per op.
func total(pcieDMAs, share float64) float64 {
	if share >= 1 {
		return pcieDMAs
	}
	t := pcieDMAs / (1 - share)
	if t < 1 {
		t = 1
	}
	return t
}

func simStream(c struct {
	name     string
	kv       int
	longtail bool
	getRatio float64
}, seed int64) func() syssim.Op {
	rng := rand.New(rand.NewSource(seed + 99))
	if c.longtail {
		gen := workload.New(workload.Config{Keys: 1 << 20, Skew: 0.99, Seed: seed + 100})
		return func() syssim.Op {
			return syssim.Op{Key: gen.NextKey(), Put: rng.Float64() >= c.getRatio}
		}
	}
	return func() syssim.Op {
		return syssim.Op{Key: uint64(rng.Int63n(1 << 20)), Put: rng.Float64() >= c.getRatio}
	}
}
