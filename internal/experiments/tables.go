package experiments

import (
	"fmt"
	"math"

	"kvdirect/internal/core"
	"kvdirect/internal/model"
	"kvdirect/internal/workload"
)

// Table3 reproduces Table 3, "Comparison of with state-of-the-art KVS
// systems": throughput, power efficiency and tail latency. Rows for
// published systems carry the numbers reported in their papers (cited by
// KV-Direct); KV-Direct rows are computed from this repository's models.
func Table3(sc Scale) []*Table {
	t := &Table{
		ID:      "table3",
		Title:   "Comparison with state-of-the-art KVS systems",
		Columns: []string{"system", "tput(Mops)", "power(W)", "efficiency(Kops/W)", "tail latency(us)"},
		Notes: "published-system rows cite their papers' reported numbers; KV-Direct rows computed from the model " +
			"(parenthesized efficiency counts only the power KV-Direct adds to an otherwise-busy host)",
	}
	type row struct {
		name        string
		mops, watts float64
		latencyUs   float64
	}
	published := []row{
		{"Memcached", 1.5, 258, 50},
		{"MemC3", 4.3, 386, 95},
		{"RAMCloud", 6, 280, 5},
		{"MICA (CPU, batched)", 137, 399, 81},
		{"FaRM (one-sided RDMA)", 6, 87, 4.5},
		{"DrTM-KV (RDMA+HTM)", 115.7, 743, 3.4},
		{"HERD (two-sided RDMA)", 98.3, 683, 5},
		{"Xilinx FPGA KVS", 13.2, 55, 3.5},
		{"Mega-KV (GPU)", 166, 950, 280},
	}
	bestOther := 0.0 // Kops/W
	for _, r := range published {
		eff := r.mops * 1e6 / r.watts / 1e3
		t.Add(r.name, f1(r.mops), f1(r.watts), f1(eff), f1(r.latencyUs))
		bestOther = max(bestOther, eff)
	}

	one := model.PeakOpsPerSec
	t.Add("KV-Direct (1 NIC)", mops(one), f1(model.KVDirectSystemPower),
		fmt.Sprintf("%.1f (%.1f)", model.PowerEfficiency(one)/1e3, model.DeltaPowerEfficiency(one)/1e3),
		f1(4.3))
	ten := model.MultiNICThroughput(122e6, 10, model.HostMemBandwidthBytesPerSec)
	tenPower := model.ServerIdlePower + 10*model.KVDirectDeltaPower
	t.Add("KV-Direct (10 NICs)", mops(ten), f1(tenPower),
		fmt.Sprintf("%.1f (%.1f)", ten/tenPower/1e3, ten/(10*model.KVDirectDeltaPower)/1e3),
		f1(4.3))
	t.Claims = []Claim{
		atLeast("table3/efficiency-over-best-other", "the first general-purpose KVS above 1 Mops/W: 3x the best other system's efficiency", model.PowerEfficiency(one)/1e3/bestOther, 3),
	}
	return []*Table{t}
}

// Table4 reproduces Table 4, "Impact on CPU performance": how host
// workloads degrade while KV-Direct runs at peak, modeled as memory
// bandwidth contention — KV-Direct's DMA traffic is a small fraction of
// the dual-socket machine's DRAM bandwidth, so the impact is minimal
// (the paper's point).
func Table4(sc Scale) []*Table {
	// Peak DMA traffic: both PCIe endpoints moving 64 B lines.
	dmaBytes := pcieOpsPerSec(model.CacheLineBytes) * model.CacheLineBytes
	share := dmaBytes / model.HostMemBandwidthBytesPerSec

	// M/M/1-flavored degradation: latency inflates with utilization of
	// the shared memory controller; throughput loses the stolen share.
	latencyFactor := 1 / (1 - share)

	t := &Table{
		ID:      "table4",
		Title:   "Impact on host CPU workloads while KV-Direct runs at peak",
		Columns: []string{"host workload", "idle KV-Direct", "peak KV-Direct", "degradation"},
		Notes: fmt.Sprintf("KV-Direct peak DMA uses %.1f GB/s = %.1f%% of the host's %.0f GB/s DRAM bandwidth",
			dmaBytes/1e9, share*100, model.HostMemBandwidthBytesPerSec/1e9),
	}
	randLat := float64(model.HostDRAMReadNs)
	t.Add("random 64 B read latency (ns)", f1(randLat), f1(randLat*latencyFactor),
		fmt.Sprintf("+%.1f%%", (latencyFactor-1)*100))
	randTput := model.CPURandom64BOpsPerCore * float64(model.CPUCoresPerServer) / 1e6
	t.Add("random 64 B throughput (Mops)", f1(randTput), f1(randTput*(1-share)),
		fmt.Sprintf("-%.1f%%", share*100))
	seq := model.HostMemBandwidthBytesPerSec / 1e9
	t.Add("sequential read bandwidth (GB/s)", f1(seq), f1(seq*(1-share)),
		fmt.Sprintf("-%.1f%%", share*100))
	t.Claims = []Claim{
		atMost("table4/worst-degradation-pct", "minimal impact on host CPU workloads while KV-Direct runs at peak", max(latencyFactor-1, share)*100, 15),
	}
	return []*Table{t}
}

// Scaling reproduces §5.2's multi-NIC experiment: near-linear scaling to
// 1.22 GOps with 10 programmable NICs in one commodity server, each NIC
// owning a disjoint memory partition on its own PCIe path.
func Scaling(sc Scale) []*Table {
	t := &Table{
		ID:      "scaling",
		Title:   "Multi-NIC scaling (YCSB average per-NIC rate 122 Mops)",
		Columns: []string{"NICs", "throughput(Gops)", "scaling efficiency", "power(W)", "Mops/W"},
		Notes:   "each NIC owns a disjoint memory partition on its own PCIe path; host DRAM bandwidth is the shared wall",
	}
	perNIC := 122e6
	var tput, eff float64
	for _, nics := range []int{1, 2, 4, 6, 8, 10} {
		tput = model.MultiNICThroughput(perNIC, nics, model.HostMemBandwidthBytesPerSec)
		eff = tput / (perNIC * float64(nics))
		power := model.ServerIdlePower + float64(nics)*model.KVDirectDeltaPower
		t.Add(itoa(nics), f2(tput/1e9), f2(eff), f1(power), f1(tput/power/1e6))
	}
	// tput and eff are the last row's: 10 NICs.
	t.Claims = []Claim{
		within("scaling/ten-nic-gops", "1.22 GOps with 10 NICs in one server (abstract)", tput/1e9, 1.1, 1.3),
		atLeast("scaling/ten-nic-efficiency", "near-linear scaling to 10 NICs", eff, 0.95),
	}
	return []*Table{t, scalingFunctional(sc)}
}

// scalingFunctional runs a sharded YCSB stream through real per-NIC
// stores (the functional analogue of the 10-NIC deployment) and checks
// the two properties linear scaling rests on: hash sharding balances
// load, and per-shard resource cost does not grow with shard count.
func scalingFunctional(sc Scale) *Table {
	t := &Table{
		ID:      "scaling-functional",
		Title:   "Functional sharding check (real stores, hash-routed YCSB)",
		Columns: []string{"shards", "ops balance (min/max)", "DMAs/op", "aggregate modeled Mops"},
		Notes: "each shard is an independent KV processor with its own memory partition; per-op cost does not grow " +
			"with shard count, so aggregate capacity is n x per-NIC (the small scaled corpus caches unusually well, " +
			"pinning every shard at the clock bound)",
	}
	for _, n := range []int{1, 2, 4, 8} {
		stores := make([]*core.Store, n)
		for i := range stores {
			s, err := core.NewStore(core.Config{
				MemoryBytes: sc.MemBytes / uint64(n), InlineThreshold: 15,
				HashIndexRatio: 0.9, Seed: uint64(sc.Seed) + uint64(i),
			})
			if err != nil {
				panic(err)
			}
			stores[i] = s
		}
		gen := workload.New(workload.Config{
			Keys: uint64(sc.Ops), Skew: 0.99, GetRatio: 0.95, KeySize: 5, ValSize: 5,
			Seed: sc.Seed,
		})
		route := func(key []byte) *core.Store {
			h := uint64(14695981039346656037)
			for _, b := range key {
				h ^= uint64(b)
				h *= 1099511628211
			}
			return stores[(h^h>>33)%uint64(n)]
		}
		// Load then run.
		for id := uint64(0); id < uint64(sc.Ops); id++ {
			key := gen.KeyBytes(id)[:5]
			if err := route(key).Put(key, gen.ValueBytes(id, 0)); err != nil {
				panic(err)
			}
		}
		counts := make([]uint64, n)
		for i, s := range stores {
			counts[i] = s.NumKeys()
			s.ResetCounters()
		}
		for i := 0; i < sc.Ops*2; i++ {
			op := gen.Next()
			key := gen.KeyBytes(op.KeyID)[:5]
			s := route(key)
			if op.Kind == workload.Get {
				s.SubmitGet(key, nil)
			} else {
				s.SubmitPut(key, gen.ValueBytes(op.KeyID, uint64(i)), nil)
			}
		}
		var dmas, minC, maxC uint64
		minC = ^uint64(0)
		aggregate := 0.0
		for i, s := range stores {
			s.Flush()
			st := s.Stats()
			dmas += st.Mem.Accesses()
			if counts[i] < minC {
				minC = counts[i]
			}
			if counts[i] > maxC {
				maxC = counts[i]
			}
			perShard := float64(sc.Ops*2) / float64(n)
			rate, _ := model.Rate(model.Load{
				PCIe: float64(st.Mem.Accesses()) / perShard,
				DRAM: float64(st.Cache.DRAMLineReads+st.Cache.DRAMLineWrites) / perShard,
			}, pcieOpsPerSec(model.CacheLineBytes), math.Inf(1))
			aggregate += rate
			s.Close()
		}
		t.Add(itoa(n),
			fmt.Sprintf("%d/%d", minC, maxC),
			f2(float64(dmas)/float64(sc.Ops*2)),
			mops(aggregate))
	}
	return t
}
