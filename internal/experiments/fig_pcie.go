package experiments

import (
	"kvdirect/internal/model"
	"kvdirect/internal/pcie"
	"kvdirect/internal/sim"
)

// pcieOpsPerSec is the NIC's random DMA capacity at the given payload:
// both endpoints at Figure 3a's per-endpoint read rate.
func pcieOpsPerSec(payloadBytes int) float64 {
	return model.PCIeEndpoints * pcie.DefaultConfig().ReadOpsPerSec(payloadBytes)
}

// Fig3 reproduces Figure 3, "PCIe random DMA performance": (a) throughput
// vs request payload size for DMA reads and writes, from both the
// analytic model and the event-driven DMA engine simulation; (b) the DMA
// read latency CDF; (c) the read rate across the NIC's two endpoints.
func Fig3(sc Scale) []*Table {
	cfg := pcie.DefaultConfig()
	rng := sim.NewRNG(sc.Seed)

	tput := &Table{
		ID:      "fig3a",
		Title:   "PCIe random DMA throughput vs payload size (per Gen3 x8 endpoint)",
		Columns: []string{"payload(B)", "read Mops (model)", "read Mops (sim)", "write Mops (model)", "write Mops (sim)"},
		Notes:   "the tag pool bounds small reads by latency; posted writes track the bandwidth curve (paper §2.4)",
	}
	n := sc.SimOps / 10
	if n < 2000 {
		n = 2000
	}
	for _, payload := range []int{16, 32, 64, 128, 256, 512} {
		rd := cfg.SimulateRandomAccess(n, 256, payload, false, rng.Split(int64(payload)))
		wr := cfg.SimulateRandomAccess(n, 256, payload, true, rng.Split(int64(payload)+1000))
		tput.Add(itoa(payload),
			mops(cfg.ReadOpsPerSec(payload)), mops(rd.OpsPerSec),
			mops(cfg.WriteOpsPerSec(payload)), mops(wr.OpsPerSec))
	}
	tput.Claims = []Claim{
		within("fig3a/read-64B", "~60 Mops: 64 tags over a ~1050 ns round trip", cfg.ReadOpsPerSec(64)/1e6, 55, 65),
		within("fig3a/write-64B", "~87 Mops: the 5.6 GB/s theoretical write bandwidth", cfg.WriteOpsPerSec(64)/1e6, 80, 92),
	}

	// pcieOpsPerSec budgets PCIe capacity as model.PCIeEndpoints endpoints
	// times one; the multi-endpoint simulation is what backs that product.
	eps := &Table{
		ID:      "fig3c",
		Title:   "PCIe random 64 B DMA reads across the NIC's Gen3 x8 endpoints",
		Columns: []string{"endpoints", "read Mops (sim)", "x one endpoint"},
		Notes:   "each endpoint has its own link, tags and credits (paper §4)",
	}
	one := cfg.SimulateDual(n, 256, 64, 1, false, sim.NewRNG(sc.Seed))
	two := cfg.SimulateDual(n, 256, 64, 2, false, sim.NewRNG(sc.Seed))
	ratio := two.OpsPerSec / one.OpsPerSec
	eps.Add("1", mops(one.OpsPerSec), f2(1))
	eps.Add("2", mops(two.OpsPerSec), f2(ratio))
	eps.Claims = []Claim{
		within("fig3c/two-endpoint-ratio", "two Gen3 x8 endpoints give ~2x one endpoint's 64 B reads (§4)", ratio, 1.85, 2.1),
	}

	lat := &Table{
		ID:      "fig3b",
		Title:   "PCIe random DMA read latency CDF (64 B payloads)",
		Columns: []string{"percentile", "latency(ns)"},
		Notes:   "a cached base latency plus a DRAM access, refresh and reordering tail",
	}
	res := cfg.SimulateRandomAccess(sc.SimOps/5, 64, 64, false, rng.Split(42))
	for _, p := range []float64{5, 25, 50, 75, 90, 95, 99} {
		lat.Add(f1(p), f1(res.Latency.Percentile(p)))
	}
	lat.Claims = []Claim{
		within("fig3b/read-p50", "~1050 ns average: 800 ns cached base plus the random tail", res.Latency.Percentile(50), 900, 1200),
	}
	return []*Table{tput, lat, eps}
}
