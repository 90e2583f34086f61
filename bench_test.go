package kvdirect

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// iteration regenerates the experiment at Quick scale and reports the
// headline number as a custom metric), plus wall-clock benchmarks of the
// repository's own data structures and ablation benchmarks for the design
// choices DESIGN.md calls out.
//
// Run everything with:
//
//	go test -bench=. -benchmem .

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"testing"

	"kvdirect/internal/baseline"
	"kvdirect/internal/experiments"
	"kvdirect/internal/ooo"
	"kvdirect/internal/slab"
	"kvdirect/internal/wire"
	"kvdirect/internal/workload"
)

// --- paper tables and figures ---

func benchExperiment(b *testing.B, name string, metric func([]*experiments.Table) (float64, string)) {
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	sc := experiments.Quick()
	var tabs []*experiments.Table
	for i := 0; i < b.N; i++ {
		tabs = e.Run(sc)
	}
	if metric != nil {
		v, unit := metric(tabs)
		b.ReportMetric(v, unit)
	}
}

// cellF parses a float out of a table cell for metric reporting.
func cellF(tabs []*experiments.Table, id string, row, col int) float64 {
	for _, t := range tabs {
		if t.ID == id {
			v, _ := strconv.ParseFloat(t.Rows[row][col], 64)
			return v
		}
	}
	return 0
}

func BenchmarkFig3PCIeThroughput(b *testing.B) {
	benchExperiment(b, "fig3", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig3a", 2, 2), "Mops@64B-read"
	})
}

func BenchmarkFig6InlineThreshold(b *testing.B) {
	benchExperiment(b, "fig6", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig6", 0, 1), "accesses/GET@thr10"
	})
}

func BenchmarkFig9HashIndexRatio(b *testing.B) {
	benchExperiment(b, "fig9", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig9b", 0, 1), "accesses/GET"
	})
}

func BenchmarkFig10MaxUtilization(b *testing.B) {
	benchExperiment(b, "fig10", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig10", 0, 1), "max-util@ratio0.1"
	})
}

func BenchmarkFig11HashCompare(b *testing.B) {
	benchExperiment(b, "fig11", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig11-10b-GET", 0, 1), "KVD-accesses/GET"
	})
}

func BenchmarkFig12SlabMerge(b *testing.B) {
	benchExperiment(b, "fig12", nil)
}

func BenchmarkFig13Atomics(b *testing.B) {
	benchExperiment(b, "fig13", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig13a", 0, 1), "Mops-single-key-OoO"
	})
}

func BenchmarkFig14Dispatch(b *testing.B) {
	benchExperiment(b, "fig14", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig14", 2, 3), "Mops-longtail-100G"
	})
}

func BenchmarkFig15NetworkBatching(b *testing.B) {
	benchExperiment(b, "fig15", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig15a", 0, 3), "batch-gain@10B"
	})
}

func BenchmarkFig16YCSB(b *testing.B) {
	benchExperiment(b, "fig16", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig16b", 1, 1), "Mops-longtail-10B-GET"
	})
}

func BenchmarkFig17Latency(b *testing.B) {
	benchExperiment(b, "fig17", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "fig17b", 0, 2), "us-P95-GET-10B"
	})
}

func BenchmarkTable2VectorOps(b *testing.B) {
	benchExperiment(b, "table2", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "table2", 4, 2), "GBps-update-1KB"
	})
}

func BenchmarkTable3Comparison(b *testing.B) {
	benchExperiment(b, "table3", nil)
}

func BenchmarkTable4CPUImpact(b *testing.B) {
	benchExperiment(b, "table4", nil)
}

func BenchmarkScalingMultiNIC(b *testing.B) {
	benchExperiment(b, "scaling", func(tabs []*experiments.Table) (float64, string) {
		return cellF(tabs, "scaling", 5, 1), "Gops@10NIC"
	})
}

// --- wall-clock benchmarks of this repository's data structures ---

func newBenchStore(b *testing.B, cfg Config) *Store {
	b.Helper()
	if cfg.MemoryBytes == 0 {
		cfg.MemoryBytes = 16 << 20
	}
	// Figure/ablation benches reproduce the paper's hash-only data path;
	// the ordered index has its own benchmarks in cmd/kvdbench.
	cfg.NoOrderedIndex = true
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func fillStore(b *testing.B, s *Store, n int) [][]byte {
	b.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%06d", i))
		if err := s.Put(keys[i], []byte(fmt.Sprintf("value-%06d", i))); err != nil {
			b.Fatal(err)
		}
	}
	return keys
}

func BenchmarkStoreGet(b *testing.B) {
	s := newBenchStore(b, Config{})
	keys := fillStore(b, s, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	s := newBenchStore(b, Config{})
	keys := fillStore(b, s, 10000)
	val := []byte("updated-value")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreAtomicAdd(b *testing.B) {
	s := newBenchStore(b, Config{})
	key := []byte("counter")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Update(key, FnAdd, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStorePipelinedGet(b *testing.B) {
	s := newBenchStore(b, Config{})
	keys := fillStore(b, s, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SubmitGet(keys[i%len(keys)], nil)
	}
	s.Flush()
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	reqs := make([]wire.Request, 32)
	for i := range reqs {
		reqs[i] = wire.Request{Code: wire.OpPut,
			Key:   []byte(fmt.Sprintf("key%05d", i)),
			Value: []byte(fmt.Sprintf("val%05d", i))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := wire.AppendRequests(nil, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeRequests(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRadixSort1M(b *testing.B) {
	gen := workload.New(workload.Config{Keys: 1 << 30, Seed: 1})
	offs := make([]uint64, 1<<20)
	for i := range offs {
		offs[i] = gen.NextKey() * 32
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slab.RadixSort(offs, 4)
	}
}

func BenchmarkCuckooGet(b *testing.B) {
	c := baseline.NewCuckoo(16<<20, 10, 0.3, 1)
	for k := uint64(1); k <= 50000; k++ {
		c.Put(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i%50000) + 1)
	}
}

func BenchmarkHopscotchGet(b *testing.B) {
	h := baseline.NewHopscotch(16<<20, 10, 0.3)
	for k := uint64(1); k <= 50000; k++ {
		h.Put(k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Get(uint64(i%50000) + 1)
	}
}

func BenchmarkZipfGenerator(b *testing.B) {
	gen := workload.New(workload.Config{Keys: 1 << 20, Skew: 0.99, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.NextKey()
	}
}

func BenchmarkOoOTimingSim(b *testing.B) {
	ops := make([]ooo.SimOp, 10000)
	gen := workload.New(workload.Config{Keys: 1 << 16, Skew: 0.99, Seed: 2})
	for i := range ops {
		ops[i] = ooo.SimOp{Key: gen.NextKey(), Write: i%2 == 0}
	}
	cfg := ooo.DefaultSimConfig(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Simulate(ops)
	}
}

// --- ablation benchmarks (design choices from DESIGN.md) ---

// ablationAccesses measures modeled DMAs per op for a store config under
// a fixed workload, reported as a custom metric.
func ablationAccesses(b *testing.B, cfg Config, gets bool) {
	cfg.MemoryBytes = 8 << 20
	cfg.NoOrderedIndex = true
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 5000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("abl-%06d", i))
		if err := s.Put(keys[i], []byte("tiny")); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	ops := 0
	for i := 0; i < b.N; i++ {
		if i == 0 {
			s.ResetCounters()
		}
		k := keys[i%len(keys)]
		if gets {
			s.Get(k)
		} else {
			_ = s.Put(k, []byte("tinY")) //lint:allow statuserr -- benchmark drive loop; error checks would perturb the timing
		}
		ops++
	}
	b.StopTimer()
	if ops > 0 {
		b.ReportMetric(float64(s.Stats().Mem.Accesses())/float64(ops), "DMAs/op")
	}
}

func BenchmarkAblationInlineOnGet(b *testing.B) {
	ablationAccesses(b, Config{InlineThreshold: 15, HashIndexRatio: 0.8}, true)
}

func BenchmarkAblationInlineOffGet(b *testing.B) {
	ablationAccesses(b, Config{InlineThreshold: -1, HashIndexRatio: 0.3}, true)
}

func BenchmarkAblationDispatchOn(b *testing.B) {
	ablationAccesses(b, Config{}, true)
}

func BenchmarkAblationDispatchOff(b *testing.B) {
	ablationAccesses(b, Config{DisableCache: true}, true)
}

func BenchmarkAblationOoOOnHotKey(b *testing.B) {
	s := newBenchStore(b, Config{})
	key := []byte("hot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SubmitUpdate(key, FnAdd, 8, 1, nil)
	}
	s.Flush()
	b.ReportMetric(s.Stats().Engine.MergeRatio(), "merge-ratio")
}

func BenchmarkAblationOoOOffHotKey(b *testing.B) {
	s := newBenchStore(b, Config{DisableOoO: true})
	key := []byte("hot")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SubmitUpdate(key, FnAdd, 8, 1, nil)
	}
	s.Flush()
	b.ReportMetric(s.Stats().Engine.MergeRatio(), "merge-ratio")
}

func BenchmarkAblationBatchingWire(b *testing.B) {
	// Wire bytes per op, batched vs not, as a custom metric.
	mkOps := func(n int) []Op {
		ops := make([]Op, n)
		for i := range ops {
			k := make([]byte, 8)
			binary.LittleEndian.PutUint64(k, uint64(i))
			ops[i] = Op{Code: OpPut, Key: k, Value: k}
		}
		return ops
	}
	single := mkOps(1)
	batch := mkOps(64)
	var singleBytes, batchBytes int
	for i := 0; i < b.N; i++ {
		p1, err := EncodeBatch(single)
		if err != nil {
			b.Fatal(err)
		}
		p2, err := EncodeBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		singleBytes, batchBytes = len(p1), len(p2)
	}
	b.ReportMetric(float64(singleBytes), "B/op-unbatched")
	b.ReportMetric(float64(batchBytes)/64, "B/op-batched")
}
