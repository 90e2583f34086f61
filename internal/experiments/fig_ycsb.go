package experiments

import (
	"fmt"

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
	for _, longtail := range []bool{false, true} {
		name, id := "uniform", "fig16a"
		if longtail {
			name, id = "long-tail", "fig16b"
		}
		t := &Table{
			ID:      id,
			Title:   fmt.Sprintf("YCSB throughput, %s workload (Mops)", name),
			Columns: []string{"KV size(B)", mixes[0].name, mixes[1].name, mixes[2].name, mixes[3].name, "bottleneck"},
			Notes:   "tiny KVs reach the 180 Mops clock bound under long-tail GETs; 62 B+ KVs are network-bound (paper Figure 16)",
		}
		for _, kv := range kvSizes {
			pt := measureYCSB(sc, kv, longtail)
			row := []string{itoa(kv)}
			for _, m := range mixes {
				row = append(row, mops(pt.throughput(m.get)))
			}
			row = append(row, bottleneckName(pt))
			t.Add(row...)
		}
		tables = append(tables, t)
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
	for _, batched := range []bool{true, false} {
		id, title := "fig17a", "Latency with batching (us)"
		if !batched {
			id, title = "fig17b", "Latency without batching (us)"
		}
		t := &Table{
			ID:      id,
			Title:   title,
			Columns: []string{"KV size(B)", "GET uni P50", "GET uni P95", "GET skew P95", "PUT uni P95", "PUT skew P95"},
			Notes:   "PUT > GET (extra access); skewed < uniform (NIC DRAM hits); batching adds < 1 us (paper Figure 17)",
		}
		for _, kv := range []int{10, 60, 252} {
			uni := measureYCSB(sc, kv, false)
			skew := measureYCSB(sc, kv, true)
			g50, g95 := latencyPercentiles(sc, uni, true, batched, 50, 95)
			_, gs95 := latencyPercentiles(sc, skew, true, batched, 50, 95)
			_, p95 := latencyPercentiles(sc, uni, false, batched, 50, 95)
			_, ps95 := latencyPercentiles(sc, skew, false, batched, 50, 95)
			t.Add(itoa(kv), f2(g50/1000), f2(g95/1000), f2(gs95/1000), f2(p95/1000), f2(ps95/1000))
		}
		tables = append(tables, t)
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
