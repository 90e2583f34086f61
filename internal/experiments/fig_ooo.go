package experiments

import (
	"math"
	"math/rand"

	"kvdirect/internal/baseline"
	"kvdirect/internal/ooo"
	"kvdirect/internal/workload"
)

// Fig13 reproduces Figure 13, "Effectiveness of out-of-order execution
// engine": (a) atomics throughput vs number of keys, with and without
// OoO, against one- and two-sided RDMA baselines; (b) long-tail workload
// throughput vs PUT ratio.
func Fig13(sc Scale) []*Table {
	a := &Table{
		ID:    "fig13a",
		Title: "Atomics throughput vs number of keys (Mops)",
		Columns: []string{"keys", "KV-Direct OoO", "KV-Direct no-OoO",
			"one-sided RDMA", "two-sided RDMA"},
		Notes: "without OoO each single-key atomic waits a memory round trip (paper §5.1.3); RDMA rows model Kalia et al.'s per-key atomics",
	}
	var single [2]float64       // 1 key: with and without OoO
	overRDMA := math.MaxFloat64 // least lead of OoO over one-sided RDMA
	for _, keys := range []int{1, 2, 4, 16, 64, 256, 1024} {
		ops := atomicStream(sc.SimOps, keys, sc.Seed)
		withOoO := ooo.DefaultSimConfig(true).Simulate(ops)
		without := ooo.DefaultSimConfig(false).Simulate(ops)
		oneSided := baseline.OneSidedRDMAAtomicsOps(keys)
		a.Add(itoa(keys),
			mops(withOoO.OpsPerSec), mops(without.OpsPerSec),
			mops(oneSided), mops(baseline.TwoSidedRDMAAtomicsOps(keys, 16)))
		if keys == 1 {
			single = [2]float64{withOoO.OpsPerSec / 1e6, without.OpsPerSec / 1e6}
		}
		overRDMA = min(overRDMA, (withOoO.OpsPerSec-oneSided)/1e6)
	}
	a.Claims = []Claim{
		atLeast("fig13a/single-key-ooo", "180 Mops on one key with OoO: one op per clock", single[0], 170),
		atMost("fig13a/single-key-stall", "0.94 Mops on one key without OoO", single[1], 1.2),
		atLeast("fig13a/single-key-gain", "OoO improves single-key atomics 191x", single[0]/single[1], 100),
		atLeast("fig13a/ooo-minus-rdma", "KV-Direct atomics outperform one-sided RDMA (2.24 Mops per key) at every key count", overRDMA, 0),
	}

	b := &Table{
		ID:      "fig13b",
		Title:   "Long-tail workload throughput vs PUT ratio (Mops)",
		Columns: []string{"PUT %", "with OoO", "without OoO"},
		Notes:   "Zipf keys; without OoO the pipeline stalls whenever a PUT finds an in-flight op on its key",
	}
	oooLeast := math.MaxFloat64
	var stall []float64
	for _, putPct := range []int{0, 10, 30, 50, 70, 90, 100} {
		ops := zipfStream(sc.SimOps, float64(putPct)/100, sc.Seed)
		withOoO := ooo.DefaultSimConfig(true).Simulate(ops)
		without := ooo.DefaultSimConfig(false).Simulate(ops)
		b.Add(itoa(putPct), mops(withOoO.OpsPerSec), mops(without.OpsPerSec))
		oooLeast = min(oooLeast, withOoO.OpsPerSec/1e6)
		stall = append(stall, without.OpsPerSec/1e6)
	}
	b.Claims = []Claim{
		atLeast("fig13b/ooo-least", "with OoO the long-tail rate stays at the clock bound at every PUT ratio", oooLeast, 170),
		atLeast("fig13b/stall-0-minus-100", "without OoO, more PUTs stall the pipeline more", stall[0]-stall[len(stall)-1], 0.1),
	}
	return []*Table{a, b}
}

func atomicStream(n, keys int, seed int64) []ooo.SimOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]ooo.SimOp, n)
	for i := range ops {
		ops[i] = ooo.SimOp{Key: uint64(rng.Intn(keys)), Write: true}
	}
	return ops
}

func zipfStream(n int, putRatio float64, seed int64) []ooo.SimOp {
	rng := rand.New(rand.NewSource(seed))
	gen := workload.New(workload.Config{
		Keys: 1 << 20, Skew: 0.99, Seed: seed, // the paper's long-tail skewness
	})
	ops := make([]ooo.SimOp, n)
	for i := range ops {
		ops[i] = ooo.SimOp{Key: gen.NextKey(), Write: rng.Float64() < putRatio}
	}
	return ops
}
