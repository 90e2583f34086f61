package experiments

import (
	"fmt"
	"math"

	"kvdirect/internal/core"
	"kvdirect/internal/model"
	"kvdirect/internal/netmodel"
	"kvdirect/internal/pcie"
	"kvdirect/internal/sim"
	"kvdirect/internal/stats"
	"kvdirect/internal/workload"
)

// ycsbPoint is one measured Figure 16 configuration: a real store filled
// to the target utilization, probed with the YCSB mix, its resource loads
// converted to a predicted throughput by the bottleneck model.
type ycsbPoint struct {
	kvSize      int
	getAccesses float64 // host-memory DMAs per GET
	putAccesses float64 // host-memory DMAs per PUT
	dramPerGet  float64 // NIC DRAM line ops per GET
	dramPerPut  float64
	avgDMABytes float64 // mean payload per DMA (for the PCIe rate curve)
	utilization float64
}

// ycsbStoreConfig tunes the store per KV size as the paper does before
// each benchmark.
func ycsbStoreConfig(sc Scale, kvSize int, seed int64) core.Config {
	// The paper's configuration has no ordered secondary index; don't
	// charge its maintenance DMAs to the reproduced figures.
	cfg := core.Config{MemoryBytes: sc.MemBytes, Seed: uint64(seed), NoOrderedIndex: true}
	if kvSize <= 15 {
		cfg.InlineThreshold = 15
		cfg.HashIndexRatio = 0.9
	} else {
		cfg.InlineThreshold = -1
		cfg.HashIndexRatio = chooseRatio(kvSize, 0)
	}
	return cfg
}

// measureYCSB fills a store and measures per-op resource loads for pure
// GET and pure PUT streams under the given key distribution.
func measureYCSB(sc Scale, kvSize int, longtail bool) ycsbPoint {
	cfg := ycsbStoreConfig(sc, kvSize, sc.Seed)
	s, err := core.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	defer s.Close()
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
	keys := workload.New(workload.Config{
		Keys: n, Skew: skew, KeySize: keySize, ValSize: valSize, Seed: sc.Seed + 1,
	})

	pt := ycsbPoint{kvSize: kvSize, utilization: s.Utilization()}

	// Warm the NIC DRAM cache with the measurement distribution.
	for i := 0; i < sc.Ops; i++ {
		s.Get(keys.KeyBytes(keys.NextKey())[:keySize])
	}

	// Pure GET pass, pipelined through the reservation station so hot-key
	// operations merge by data forwarding as in the hardware (the paper
	// credits merging with part of the long-tail gain).
	s.ResetCounters()
	for i := 0; i < sc.Ops; i++ {
		s.SubmitGet(keys.KeyBytes(keys.NextKey())[:keySize], func(_ []byte, ok bool, _ error) {
			if !ok {
				panic("ycsb: fill key missing")
			}
		})
	}
	s.Flush()
	st := s.Stats()
	pt.getAccesses = float64(st.Mem.Accesses()) / float64(sc.Ops)
	pt.dramPerGet = float64(st.Cache.DRAMLineReads+st.Cache.DRAMLineWrites) / float64(sc.Ops)
	totalLines := st.Mem.Lines()
	totalDMAs := st.Mem.Accesses()

	// Pure PUT pass (updates, YCSB-style), also pipelined.
	s.ResetCounters()
	for i := 0; i < sc.Ops; i++ {
		id := keys.NextKey()
		s.SubmitPut(keys.KeyBytes(id)[:keySize], keys.ValueBytes(id, uint64(i)), func(_ []byte, _ bool, err error) {
			if err != nil {
				panic(err)
			}
		})
	}
	s.Flush()
	st = s.Stats()
	pt.putAccesses = float64(st.Mem.Accesses()) / float64(sc.Ops)
	pt.dramPerPut = float64(st.Cache.DRAMLineReads+st.Cache.DRAMLineWrites) / float64(sc.Ops)
	totalLines += st.Mem.Lines()
	totalDMAs += st.Mem.Accesses()

	if totalDMAs > 0 {
		pt.avgDMABytes = float64(totalLines) * 64 / float64(totalDMAs)
	} else {
		pt.avgDMABytes = 64
	}
	return pt
}

// throughput converts a measured point plus a GET ratio into the
// bottleneck-model rate (paper §5.2.2: clock, network, or PCIe/DRAM).
func (pt ycsbPoint) throughput(getRatio float64) float64 {
	pcieCfg := pcie.DefaultConfig()
	pciePerOp := getRatio*pt.getAccesses + (1-getRatio)*pt.putAccesses
	dramPerOp := getRatio*pt.dramPerGet + (1-getRatio)*pt.dramPerPut
	pcieCap := float64(model.PCIeEndpoints) * pcieCfg.ReadOpsPerSec(int(pt.avgDMABytes))
	dramCap := model.NICDRAMBytesPerSec / 64

	net := netmodel.DefaultConfig()
	opWire := wireBytesPerOp(pt.kvSize)
	netOps := net.OpsPerSecond(opWire, opWire, net.BatchFor(opWire))

	rate := model.PeakOpsPerSec
	if netOps < rate {
		rate = netOps
	}
	if pciePerOp > 0 && pcieCap/pciePerOp < rate {
		rate = pcieCap / pciePerOp
	}
	if dramPerOp > 0 && dramCap/dramPerOp < rate {
		rate = dramCap / dramPerOp
	}
	return rate
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
				rates = append(rates, pt.throughput(m.get)/1e6)
				row = append(row, mops(pt.throughput(m.get)))
			}
			tput[li] = append(tput[li], rates)
			row = append(row, bottleneckName(pt))
			t.Add(row...)
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

func bottleneckName(pt ycsbPoint) string {
	full := pt.throughput(1.0)
	net := netmodel.DefaultConfig()
	opWire := wireBytesPerOp(pt.kvSize)
	netOps := net.OpsPerSecond(opWire, opWire, net.BatchFor(opWire))
	switch {
	case full >= model.PeakOpsPerSec*0.999:
		return "clock"
	case full >= netOps*0.999:
		return "network"
	default:
		return "pcie/dram"
	}
}

// Fig17 reproduces Figure 17, "Latency of KV-Direct under peak
// throughput": per-operation latency percentiles with and without
// network batching, sampled from the component latency models plus the
// measured access counts.
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
		uni, skew := measureYCSB(sc, kv, false), measureYCSB(sc, kv, true)
		var lat [2][5]float64 // [batched, plain][column], us
		for i, batched := range []bool{true, false} {
			g50, g95 := latencyPercentiles(sc, uni, true, batched, 50, 95)
			_, gs95 := latencyPercentiles(sc, skew, true, batched, 50, 95)
			_, p95 := latencyPercentiles(sc, uni, false, batched, 50, 95)
			_, ps95 := latencyPercentiles(sc, skew, false, batched, 50, 95)
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

// latencyPercentiles samples end-to-end operation latencies: network
// (with or without batching) + NIC processing + one sampled memory
// round trip per DMA, where cache-served accesses cost NIC DRAM latency
// instead of PCIe.
func latencyPercentiles(sc Scale, pt ycsbPoint, get, batched bool, p1, p2 float64) (float64, float64) {
	const dramLatencyNs = 200
	net := netmodel.DefaultConfig()
	pcieCfg := pcie.DefaultConfig()
	rng := sim.NewRNG(sc.Seed + int64(pt.kvSize))
	sample := stats.NewSample(sc.Ops / 2)

	accesses := pt.putAccesses
	dramPer := pt.dramPerPut
	if get {
		accesses = pt.getAccesses
		dramPer = pt.dramPerGet
	}
	// Probability an access is served by NIC DRAM rather than PCIe.
	dramFrac := 0.0
	if accesses+dramPer > 0 {
		dramFrac = dramPer / (accesses + dramPer)
	}
	opWire := wireBytesPerOp(pt.kvSize)
	batchBytes := opWire
	if batched {
		batchBytes = opWire * net.BatchFor(opWire)
	}
	netNs := net.LatencyNs(batchBytes, batched)

	total := int(accesses + dramPer + 0.999)
	if total < 1 {
		total = 1
	}
	for i := 0; i < sc.Ops/2; i++ {
		l := netNs + model.NICProcessingNs
		for a := 0; a < total; a++ {
			if rng.Float64() < dramFrac {
				l += dramLatencyNs
			} else {
				l += pcieCfg.SampleReadLatencyNs(rng)
			}
		}
		sample.Add(l)
	}
	return sample.Percentile(p1), sample.Percentile(p2)
}
