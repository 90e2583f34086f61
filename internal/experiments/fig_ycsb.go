package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"kvdirect/internal/core"
	"kvdirect/internal/model"
	"kvdirect/internal/netmodel"
	"kvdirect/internal/sim"
	"kvdirect/internal/stats"
	"kvdirect/internal/syssim"
	"kvdirect/internal/workload"
)

// ycsbPoint is one measured Figure 16 configuration: a real store filled
// to the target utilization, probed with the YCSB mix, its resource loads
// converted to a predicted throughput by the bottleneck rule.
type ycsbPoint struct {
	kvSize      int
	get, put    model.Load // per-op loads of pure GET and pure PUT streams
	avgDMABytes float64    // mean payload per DMA (for the PCIe rate curve)
	utilization float64
}

// ycsbStoreConfig tunes the store per KV size as the paper does before
// each benchmark.
func ycsbStoreConfig(sc Scale, kvSize int, seed int64) core.Config {
	cfg := core.Config{MemoryBytes: sc.MemBytes, Seed: uint64(seed)}
	if kvSize <= 15 {
		cfg.InlineThreshold = 15
		cfg.HashIndexRatio = 0.9
	} else {
		cfg.InlineThreshold = -1
		cfg.HashIndexRatio = chooseRatio(kvSize, 0)
	}
	return cfg
}

// ycsbStore is a store filled to Figure 16's target utilization, its NIC
// DRAM cache warmed with the measurement key distribution.
type ycsbStore struct {
	*core.Store
	keys    *workload.Generator // the measurement distribution over the filled keys
	keySize int
}

// openYCSB fills and warms the store for one KV size and key
// distribution. Figure 16's pipelined measurement and the per-op traces
// both start from it.
func openYCSB(sc Scale, kvSize int, longtail bool) ycsbStore {
	cfg := ycsbStoreConfig(sc, kvSize, sc.Seed)
	s, err := core.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	keySize := 5
	if kvSize > 50 {
		keySize = 10
	}
	valSize := kvSize - keySize

	gen := workload.New(workload.Config{
		Keys: 1, Skew: 0, KeySize: keySize, ValSize: valSize, Seed: sc.Seed,
	})
	// Fill to the target utilization (or as close as the geometry
	// permits). Inline configurations top out lower under the payload
	// metric, so their target is scaled accordingly.
	target := 0.35
	if kvSize <= 15 {
		target = 0.20
	}
	var n uint64
	for s.Utilization() < target {
		key := gen.KeyBytes(n)[:keySize]
		if err := s.Put(key, gen.ValueBytes(n, 0)); err != nil {
			break
		}
		n++
	}
	if n == 0 {
		panic("ycsb: could not insert any keys")
	}

	skew := 0.0
	if longtail {
		skew = 0.99
	}
	y := ycsbStore{Store: s, keySize: keySize, keys: workload.New(workload.Config{
		Keys: n, Skew: skew, KeySize: keySize, ValSize: valSize, Seed: sc.Seed + 1,
	})}
	// Warm the NIC DRAM cache with the measurement distribution.
	for i := 0; i < sc.Ops; i++ {
		y.Get(y.key(y.keys.NextKey()))
	}
	return y
}

func (y ycsbStore) key(id uint64) []byte { return y.keys.KeyBytes(id)[:y.keySize] }

// measureYCSB fills a store and measures per-op resource loads for pure
// GET and pure PUT streams under the given key distribution.
func measureYCSB(sc Scale, kvSize int, longtail bool) ycsbPoint {
	y := openYCSB(sc, kvSize, longtail)
	defer y.Close()
	pt := ycsbPoint{kvSize: kvSize, utilization: y.Utilization()}
	load := func(st core.Stats) model.Load {
		return model.Load{
			PCIe: float64(st.Mem.Accesses()) / float64(sc.Ops),
			DRAM: float64(st.Cache.DRAMLineReads+st.Cache.DRAMLineWrites) / float64(sc.Ops),
		}
	}

	// Pure GET pass, pipelined through the reservation station so hot-key
	// operations merge by data forwarding as in the hardware (the paper
	// credits merging with part of the long-tail gain).
	y.ResetCounters()
	for i := 0; i < sc.Ops; i++ {
		y.SubmitGet(y.key(y.keys.NextKey()), func(_ []byte, ok bool, _ error) {
			if !ok {
				panic("ycsb: fill key missing")
			}
		})
	}
	y.Flush()
	st := y.Stats()
	pt.get = load(st)
	totalLines := st.Mem.Lines()
	totalDMAs := st.Mem.Accesses()

	// Pure PUT pass (updates, YCSB-style), also pipelined.
	y.ResetCounters()
	for i := 0; i < sc.Ops; i++ {
		id := y.keys.NextKey()
		y.SubmitPut(y.key(id), y.keys.ValueBytes(id, uint64(i)), func(_ []byte, _ bool, err error) {
			if err != nil {
				panic(err)
			}
		})
	}
	y.Flush()
	st = y.Stats()
	pt.put = load(st)
	totalLines += st.Mem.Lines()
	totalDMAs += st.Mem.Accesses()

	if totalDMAs > 0 {
		pt.avgDMABytes = float64(totalLines) * 64 / float64(totalDMAs)
	} else {
		pt.avgDMABytes = 64
	}
	return pt
}

// trace runs n ops of the YCSB mix (getRatio of them GETs) one at a time
// and records each op's own accesses: the difference of the store's access
// counts around it. One at a time, nothing merges in the store; the
// simulator's reservation station does the merging on replay.
func (y ycsbStore) trace(n int, getRatio float64, seed int64) []syssim.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]syssim.Op, n)
	before := y.Stats().AccessCounts()
	for i := range ops {
		id := y.keys.NextKey()
		put := rng.Float64() >= getRatio
		if !put {
			if _, ok := y.Get(y.key(id)); !ok {
				panic("ycsb: fill key missing")
			}
		} else if err := y.Put(y.key(id), y.keys.ValueBytes(id, uint64(i))); err != nil {
			panic(err)
		}
		after := y.Stats().AccessCounts()
		ops[i] = syssim.Op{Key: id, Put: put,
			PCIeReads:  int(after.PCIeReads - before.PCIeReads),
			PCIeWrites: int(after.PCIeWrites - before.PCIeWrites),
			DRAMLines:  int(after.DRAMLineReads + after.DRAMLineWrites - before.DRAMLineReads - before.DRAMLineWrites),
		}
		before = after
	}
	return ops
}

// throughput is the bottleneck rule's rate for a measured point at a GET
// ratio, and the resource that binds (paper §5.2.2).
func (pt ycsbPoint) throughput(getRatio float64) (float64, model.Bound) {
	mix := model.Load{
		PCIe: getRatio*pt.get.PCIe + (1-getRatio)*pt.put.PCIe,
		DRAM: getRatio*pt.get.DRAM + (1-getRatio)*pt.put.DRAM,
	}
	net := netmodel.DefaultConfig()
	opWire := wireBytesPerOp(pt.kvSize)
	return model.Rate(mix, pcieOpsPerSec(int(pt.avgDMABytes)), net.OpsPerSecond(opWire, opWire, net.BatchFor(opWire)))
}

// Fig16 reproduces Figure 16, "Throughput of KV-Direct under YCSB
// workload", uniform and long-tail, across KV sizes and GET/PUT mixes.
func Fig16(sc Scale) []*Table {
	kvSizes := []int{5, 10, 15, 60, 124, 252}
	mixes := []struct {
		name string
		get  float64
	}{
		{"100% GET", 1.0}, {"5% PUT", 0.95}, {"50% PUT", 0.5}, {"100% PUT", 0.0},
	}
	var tables []*Table
	var tput [2][][]float64 // [uniform, long-tail][KV size][mix], Mops
	for li, longtail := range []bool{false, true} {
		name, id := "uniform", "fig16a"
		if longtail {
			name, id = "long-tail", "fig16b"
		}
		t := &Table{
			ID:      id,
			Title:   fmt.Sprintf("YCSB throughput, %s workload (Mops)", name),
			Columns: []string{"KV size(B)", mixes[0].name, mixes[1].name, mixes[2].name, mixes[3].name, "bottleneck"},
			Notes:   "the bottleneck column names the resource that binds: the clock, the network, or PCIe and NIC DRAM (paper Figure 16)",
		}
		for _, kv := range kvSizes {
			pt := measureYCSB(sc, kv, longtail)
			row := []string{itoa(kv)}
			var rates []float64
			for _, m := range mixes {
				rate, _ := pt.throughput(m.get)
				rates = append(rates, rate/1e6)
				row = append(row, mops(rate))
			}
			tput[li] = append(tput[li], rates)
			// The figure names PCIe and NIC DRAM together: the memory system.
			_, bound := pt.throughput(1.0)
			if bound == model.PCIe || bound == model.DRAM {
				bound = "pcie/dram"
			}
			t.Add(append(row, string(bound))...)
		}
		tables = append(tables, t)
	}
	longOverUniform, getOverPut := math.MaxFloat64, math.MaxFloat64
	for k := range kvSizes {
		for m := range mixes {
			longOverUniform = min(longOverUniform, tput[1][k][m]-tput[0][k][m])
		}
		getOverPut = min(getOverPut, tput[0][k][0]-tput[0][k][len(mixes)-1])
	}
	tables[0].Claims = []Claim{
		atLeast("fig16a/get-minus-put", "PUT-heavy mixes run slower than GET-heavy ones", getOverPut, -0.5),
	}
	tables[1].Claims = []Claim{
		atLeast("fig16b/longtail-minus-uniform", "long-tail runs up to 2x uniform: merging and NIC DRAM hits", longOverUniform, -0.5),
		atLeast("fig16b/5B-get", "tiny KVs reach the 180 Mops clock bound under long-tail GETs", tput[1][0][0], 120),
		atMost("fig16b/252B-get", "62 B+ KVs are network-bound", tput[1][len(kvSizes)-1][0], 40),
	}
	return tables
}

// Fig17 reproduces Figure 17, "Latency of KV-Direct under peak
// throughput": per-operation latency percentiles with and without
// network batching, from recorded per-op traces: each op pays the network,
// the NIC's processing and its own accesses at syssim's per-access costs.
func Fig17(sc Scale) []*Table {
	var tables []*Table
	for _, name := range [][2]string{{"fig17a", "Latency with batching (us)"}, {"fig17b", "Latency without batching (us)"}} {
		tables = append(tables, &Table{
			ID:      name[0],
			Title:   name[1],
			Columns: []string{"KV size(B)", "GET uni P50", "GET uni P95", "GET skew P95", "PUT uni P95", "PUT skew P95"},
			Notes:   "PUTs pay an extra memory access; skewed keys hit the NIC DRAM cache (paper Figure 17)",
		})
	}
	lowest, highest := math.MaxFloat64, 0.0
	added, skewOverUni, putOverGet := 0.0, -math.MaxFloat64, math.MaxFloat64
	for _, kv := range []int{10, 60, 252} {
		// GET and PUT traces of each distribution, from one filled store.
		var get, put [2][]syssim.Op // [uniform, skewed]
		for i, longtail := range []bool{false, true} {
			y := openYCSB(sc, kv, longtail)
			get[i], put[i] = y.trace(sc.Ops, 1, sc.Seed), y.trace(sc.Ops, 0, sc.Seed)
			y.Close()
		}
		var lat [2][5]float64 // [batched, plain][column], us
		for i, batched := range []bool{true, false} {
			g50, g95 := latencyPercentiles(sc, kv, get[0], batched, 50, 95)
			_, gs95 := latencyPercentiles(sc, kv, get[1], batched, 50, 95)
			_, p95 := latencyPercentiles(sc, kv, put[0], batched, 50, 95)
			_, ps95 := latencyPercentiles(sc, kv, put[1], batched, 50, 95)
			lat[i] = [5]float64{g50 / 1000, g95 / 1000, gs95 / 1000, p95 / 1000, ps95 / 1000}
			tables[i].Add(itoa(kv), f2(lat[i][0]), f2(lat[i][1]), f2(lat[i][2]), f2(lat[i][3]), f2(lat[i][4]))
		}
		plain := lat[1]
		for _, v := range plain {
			lowest, highest = min(lowest, v), max(highest, v)
		}
		added = max(added, lat[0][1]-plain[1])
		skewOverUni = max(skewOverUni, plain[2]-plain[1])
		putOverGet = min(putOverGet, plain[3]-plain[1])
	}
	tables[0].Claims = []Claim{
		atMost("fig17a/batching-adds", "batching adds < 1 us", added, 1.0),
	}
	tables[1].Claims = []Claim{
		atLeast("fig17b/lowest", "3-9 us tail latency without batching, by size, op and distribution", lowest, 2),
		atMost("fig17b/highest", "3-9 us tail latency without batching, by size, op and distribution", highest, 12),
		atMost("fig17b/skew-minus-uniform-get", "skewed GETs are no slower than uniform: NIC DRAM cache hits", skewOverUni, 0.3),
		atLeast("fig17b/put-minus-get", "PUTs are slower than GETs: one more memory access", putOverGet, 0),
	}
	return tables
}

// latencyPercentiles replays a trace unqueued: each op's latency is the
// network round trip (with or without batching), the NIC's processing, and
// its own accesses, each charged what syssim charges it.
func latencyPercentiles(sc Scale, kvSize int, trace []syssim.Op, batched bool, p1, p2 float64) (float64, float64) {
	net := netmodel.DefaultConfig()
	opWire := wireBytesPerOp(kvSize)
	batchBytes := opWire
	if batched {
		batchBytes = opWire * net.BatchFor(opWire)
	}
	fixedNs := net.LatencyNs(batchBytes, batched) + model.NICProcessingNs
	rng := sim.NewRNG(sc.Seed + int64(kvSize))
	var mem syssim.Config
	sample := stats.NewSample(len(trace))
	for _, op := range trace {
		sample.Add(fixedNs + mem.MemoryNs(op, rng))
	}
	return sample.Percentile(p1), sample.Percentile(p2)
}
