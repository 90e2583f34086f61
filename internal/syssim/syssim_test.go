package syssim

import (
	"math"
	"math/rand"
	"testing"

	"kvdirect/internal/model"
	"kvdirect/internal/pcie"
	"kvdirect/internal/sim"
	"kvdirect/internal/workload"
)

// cost is the accesses every GET and every PUT of a synthetic trace
// makes.
type cost struct{ get, put Op }

var (
	oneRead  = cost{get: Op{PCIeReads: 1}, put: Op{PCIeReads: 1, PCIeWrites: 1}}
	noAccess = cost{}
)

// trace builds n ops over the key stream, each PUT with probability
// putRatio and carrying its kind's accesses.
func trace(n int, key func() uint64, putRatio float64, c cost, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, n)
	for i := range ops {
		op := c.get
		if rng.Float64() < putRatio {
			op = c.put
			op.Put = true
		}
		op.Key = key()
		ops[i] = op
	}
	return ops
}

func uniformTrace(n int, keys uint64, putRatio float64, c cost, seed int64) []Op {
	rng := rand.New(rand.NewSource(seed + 1))
	return trace(n, func() uint64 { return uint64(rng.Int63n(int64(keys))) }, putRatio, c, seed)
}

func zipfTrace(n int, keys uint64, putRatio float64, c cost, seed int64) []Op {
	gen := workload.New(workload.Config{Keys: keys, Skew: 0.99, Seed: seed})
	return trace(n, gen.NextKey, putRatio, c, seed)
}

// TestSaturatedThroughputNearMemoryBound: a uniform trace of k PCIe
// reads per op runs within 10% of model.Rate's PCIe bound, the two
// endpoints' 64 B read capacity over k.
func TestSaturatedThroughputNearMemoryBound(t *testing.T) {
	pcieOps := model.PCIeEndpoints * pcie.DefaultConfig().ReadOpsPerSec(64)
	for _, k := range []int{1, 2} {
		ops := uniformTrace(100000, 1<<20, 0, cost{get: Op{PCIeReads: k}}, 2)
		want, bound := model.Rate(MeanLoad(ops), pcieOps, math.Inf(1))
		if bound != model.PCIe {
			t.Fatalf("%d reads/op: bound %s, want pcie", k, bound)
		}
		res := Run(Config{Clients: 32, Seed: 1}, ops)
		if res.Ops != len(ops) {
			t.Fatalf("completed %d of %d", res.Ops, len(ops))
		}
		if r := res.OpsPerSec / want; r < 0.9 || r > 1.1 {
			t.Errorf("%d reads/op: %.1f Mops, %.2fx the %.1f Mops PCIe bound", k, res.OpsPerSec/1e6, r, want/1e6)
		}
		if res.PCIeUtil < 0.7 {
			t.Errorf("%d reads/op: PCIe utilization %.2f, want near saturation", k, res.PCIeUtil)
		}
	}
}

// TestClockBoundWhenMemoryIsFree: ops that touch no memory leave the
// decoder's one op per cycle as the limit.
func TestClockBoundWhenMemoryIsFree(t *testing.T) {
	ops := uniformTrace(200000, 1<<20, 0, noAccess, 6)
	if want, bound := model.Rate(MeanLoad(ops), 1, math.Inf(1)); bound != model.Clock || want != model.ClockHz {
		t.Fatalf("rate of a zero-access trace = %.1f Mops (%s), want the clock", want/1e6, bound)
	}
	res := Run(Config{Clients: 64, BatchOps: 64, Seed: 5}, ops)
	if res.OpsPerSec < 150e6 || res.OpsPerSec > 181e6 {
		t.Errorf("throughput = %.1f Mops, want near the 180 clock bound", res.OpsPerSec/1e6)
	}
	if res.DecodeBusy < 0.8 {
		t.Errorf("decoder utilization = %.2f, want near 1", res.DecodeBusy)
	}
}

func TestDispatchLiftsThroughput(t *testing.T) {
	// Load dispatch: two ops in five served by a NIC DRAM line instead of
	// a PCIe read.
	base := uniformTrace(60000, 1<<20, 0, oneRead, 4)
	disp := uniformTrace(60000, 1<<20, 0, oneRead, 4)
	for i := range disp {
		if i%5 < 2 {
			disp[i].PCIeReads, disp[i].DRAMLines = 0, 1
		}
	}
	b, d := Run(Config{Seed: 3}, base), Run(Config{Seed: 3}, disp)
	if d.OpsPerSec <= b.OpsPerSec {
		t.Errorf("DRAM service should lift throughput: %.1f vs %.1f Mops", d.OpsPerSec/1e6, b.OpsPerSec/1e6)
	}
	if d.DRAMUtil == 0 || b.DRAMUtil != 0 {
		t.Errorf("DRAM utilization %.2f with DRAM lines, %.2f without", d.DRAMUtil, b.DRAMUtil)
	}
}

func TestPutsCostMoreThanGets(t *testing.T) {
	gets := Run(Config{Seed: 7}, uniformTrace(60000, 1<<20, 0, oneRead, 8))
	puts := Run(Config{Seed: 7}, uniformTrace(60000, 1<<20, 1, oneRead, 8))
	if puts.OpsPerSec >= gets.OpsPerSec {
		t.Errorf("PUTs (%.1f Mops) should be slower than GETs (%.1f)",
			puts.OpsPerSec/1e6, gets.OpsPerSec/1e6)
	}
	if puts.Latency.Percentile(50) <= gets.Latency.Percentile(50) {
		t.Error("PUT latency should exceed GET latency")
	}
}

func TestLatencyInPaperBallpark(t *testing.T) {
	// Figure 17 territory: a moderately loaded system sees 3-10 us
	// end-to-end (network + pipeline + memory).
	c := cost{get: Op{PCIeReads: 1, DRAMLines: 1}, put: Op{PCIeReads: 1, PCIeWrites: 1, DRAMLines: 1}}
	res := Run(Config{Clients: 4, BatchOps: 16, Seed: 9}, uniformTrace(50000, 1<<20, 0.05, c, 10))
	p50 := res.Latency.Percentile(50) / 1000
	p95 := res.Latency.Percentile(95) / 1000
	if p50 < 2 || p50 > 10 {
		t.Errorf("P50 latency = %.2f us, want 2-10", p50)
	}
	if p95 < p50 || p95 > 20 {
		t.Errorf("P95 latency = %.2f us, want %.2f-20", p95, p50)
	}
}

func TestHotKeysForwarded(t *testing.T) {
	// A Zipf stream produces reservation-station forwarding; a uniform
	// stream over a huge key space barely any.
	zipf := Run(Config{Seed: 11}, zipfTrace(80000, 1<<20, 0.5, oneRead, 12))
	uni := Run(Config{Seed: 11}, uniformTrace(80000, 1<<20, 0.5, oneRead, 12))
	if zipf.Forwarded < 10*uni.Forwarded {
		t.Errorf("zipf forwarded %d vs uniform %d — expected a big gap",
			zipf.Forwarded, uni.Forwarded)
	}
	// Forwarding lifts throughput for skewed traffic.
	if zipf.OpsPerSec <= uni.OpsPerSec {
		t.Errorf("zipf %.1f Mops should beat uniform %.1f (merging)",
			zipf.OpsPerSec/1e6, uni.OpsPerSec/1e6)
	}
}

func TestMoreClientsMoreThroughputUntilSaturation(t *testing.T) {
	ops := uniformTrace(50000, 1<<20, 0, oneRead, 14)
	rate := func(clients int) float64 {
		return Run(Config{Clients: clients, BatchOps: 16, Seed: 13}, ops).OpsPerSec
	}
	r1, r4, r16 := rate(1), rate(4), rate(16)
	if !(r1 < r4 && r4 <= r16*1.05) {
		t.Errorf("throughput not increasing with clients: %.1f %.1f %.1f Mops",
			r1/1e6, r4/1e6, r16/1e6)
	}
}

func TestDeterministic(t *testing.T) {
	ops := uniformTrace(20000, 1000, 0.3, oneRead, 16)
	a, b := Run(Config{Seed: 15}, ops), Run(Config{Seed: 15}, ops)
	if a.OpsPerSec != b.OpsPerSec || a.ElapsedNs != b.ElapsedNs {
		t.Error("simulation not deterministic")
	}
}

func TestAllOpsComplete(t *testing.T) {
	res := Run(Config{Seed: 17}, zipfTrace(12345, 1<<16, 0.5, oneRead, 18))
	if res.Ops != 12345 {
		t.Fatalf("completed %d / 12345", res.Ops)
	}
}

// TestMemoryNsChargesEachAccess: an op's unqueued memory time is the sum
// of its accesses' costs — a DRAM line near its latency, a posted write's
// turnaround, a read at least the cached base.
func TestMemoryNsChargesEachAccess(t *testing.T) {
	var c Config
	p := pcie.DefaultConfig()
	rng := sim.NewRNG(1)
	if got := c.MemoryNs(Op{}, rng); got != 0 {
		t.Errorf("no accesses cost %.0f ns", got)
	}
	if got := c.MemoryNs(Op{PCIeWrites: 2}, rng); got != 2*p.WriteRTTNs {
		t.Errorf("two posted writes cost %.0f ns, want %.0f", got, 2*p.WriteRTTNs)
	}
	if got := c.MemoryNs(Op{PCIeReads: 1, DRAMLines: 1}, rng); got < p.CachedReadNs+model.NICDRAMLatencyNs/2 {
		t.Errorf("a read and a DRAM line cost %.0f ns", got)
	}
}
