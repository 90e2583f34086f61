package experiments

import (
	"math"
	"strings"

	"kvdirect/internal/model"
	"kvdirect/internal/netmodel"
	"kvdirect/internal/syssim"
)

// SysSim cross-validates the bottleneck rule behind Figure 16 with the
// integrated event-driven simulator: one per-op trace recorded from the
// functional store feeds both. The analytic column is model.Rate on the
// trace's mean loads; the simulator replays it op by op and additionally
// composes every latency and concurrency limit (network, decoder,
// reservation station, PCIe tags, DRAM banks) to produce end-to-end
// latency.
func SysSim(sc Scale) []*Table {
	t := &Table{
		ID:    "syssim",
		Title: "Analytic model vs integrated event simulation",
		Columns: []string{"configuration", "analytic Mops", "simulated Mops",
			"sim P50 us", "sim P95 us", "PCIe util", "forwarded"},
		Notes: "one recorded per-op trace drives both; agreement validates the Figure 16/17 arithmetic",
	}
	net := netmodel.DefaultConfig()
	pcieOps := pcieOpsPerSec(model.CacheLineBytes)
	lowP95, highP95 := math.MaxFloat64, 0.0
	for _, c := range []struct {
		name     string
		kv       int
		longtail bool
		getRatio float64
	}{
		{"10B uniform 100% GET", 10, false, 1.0},
		{"10B long-tail 100% GET", 10, true, 1.0},
		{"10B long-tail 50% PUT", 10, true, 0.5},
		{"60B uniform 100% GET", 60, false, 1.0},
	} {
		y := openYCSB(sc, c.kv, c.longtail)
		trace := y.trace(min(sc.SimOps, 150000), c.getRatio, sc.Seed+99)
		y.Close()
		simCfg := syssim.Config{Clients: 32, BatchOps: 40, OpWireBytes: wireBytesPerOp(c.kv), Seed: sc.Seed}
		netOps := net.OpsPerSecond(simCfg.OpWireBytes, simCfg.OpWireBytes, simCfg.BatchOps)
		load := syssim.MeanLoad(trace)
		analytic, _ := model.Rate(load, pcieOps, netOps)

		res := syssim.Run(simCfg, trace)
		p95 := res.Latency.Percentile(95) / 1000
		t.Add(c.name, mops(analytic), mops(res.OpsPerSec),
			f2(res.Latency.Percentile(50)/1000), f2(p95),
			f2(res.PCIeUtil), itoa(int(res.Forwarded)))
		// A forwarded op completes from the reservation station without
		// its accesses: the memory load the simulator sees is the trace's
		// less the forwarded share.
		issued := 1 - float64(res.Forwarded)/float64(res.Ops)
		expected, _ := model.Rate(model.Load{PCIe: load.PCIe * issued, DRAM: load.DRAM * issued}, pcieOps, netOps)
		t.Claims = append(t.Claims, within("syssim/sim-over-analytic-"+strings.ReplaceAll(c.name, " ", "-"),
			"the event simulation reproduces the analytic rate once forwarded ops, which make no accesses, are counted: forwarding accounts for the long-tail excess",
			res.OpsPerSec/expected, 0.85, 1.2))
		lowP95, highP95 = min(lowP95, p95), max(highP95, p95)
	}
	t.Claims = append(t.Claims,
		atLeast("syssim/lowest-p95", "peak-load latency in single-digit to low-teens microseconds", lowP95, 2),
		atMost("syssim/highest-p95", "peak-load latency in single-digit to low-teens microseconds", highP95, 25))
	return []*Table{t}
}
