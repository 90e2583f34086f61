package core

import (
	"fmt"
	"testing"

	"kvdirect/internal/workload"
)

// BenchmarkStorePutGet measures the fault-free hot path end to end
// (hash index, slabs, dispatcher, NIC DRAM cache). It doubles as the
// regression guard for the fault-injection hooks: with no injector
// configured they must cost nothing but a nil check. The allocation
// column is the other guard: seven GETs in eight ops allocate their
// returned value and nothing else does, so it reads 0 allocs/op (the
// report truncates 0.875); TestApplyAllocs pins the per-op counts.
func BenchmarkStorePutGet(b *testing.B) {
	s, err := NewStore(Config{MemoryBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	const nKeys = 4096
	keys := make([][]byte, nKeys)
	vals := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%05d", i))
		vals[i] = []byte(fmt.Sprintf("bench-value-%05d-payload", i))
		if err := s.Put(keys[i], vals[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%nKeys]
		if i%8 == 0 {
			if err := s.Put(k, vals[i%nKeys]); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, ok := s.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}

// BenchmarkStoreCreate times creates of new keys into a store the size of
// the benchmark's ycsb-b-single one (128 MiB, 8 MiB NIC DRAM, 16 B keys,
// 64 B values), indexed and unscanned, and reports the model's reads per
// create: engine (every request the dispatcher routes, NIC DRAM hits
// included) and PCIe (those that reach host memory). Each store is
// preloaded with 100 000 keys outside the timer and takes at most
// 100 000 timed creates, so every create lands in a list of 100 000 to
// 200 000 keys, as the benchmark's preload does in its second half. The
// indexed store scans once after its preload, so its ordered index is
// built and every timed create pays the index's upkeep; it also reports
// the build's engine reads per preloaded key. The unscanned store never
// builds an index, and its creates pay the hash table alone.
func BenchmarkStoreCreate(b *testing.B) {
	const preload, span = 100_000, 100_000
	gen := workload.New(workload.Config{Keys: preload + span, KeySize: 16, ValSize: 64})
	keys := make([][]byte, preload+span)
	vals := make([][]byte, preload+span)
	for id := range keys {
		keys[id], vals[id] = gen.KeyBytes(uint64(id)), gen.ValueBytes(uint64(id), 0)
	}
	engineReads := func(st Stats) uint64 { return st.Dispatch.DirectReads + st.Dispatch.CachedReads }
	for _, bc := range []struct {
		name    string
		scanned bool
	}{{"indexed", true}, {"unscanned", false}} {
		b.Run(bc.name, func(b *testing.B) {
			var s *Store
			var base Stats // s's counters when its preload (and build) finished
			var engine, pcie, build, built uint64
			// retire adds s's reads since its preload to the totals.
			retire := func() {
				st := s.Stats()
				engine += engineReads(st) - engineReads(base)
				pcie += st.Mem.Reads - base.Mem.Reads
				s.Close()
			}
			for i := 0; i < b.N; i++ {
				if i%span == 0 {
					b.StopTimer()
					if s != nil {
						retire()
					}
					var err error
					s, err = NewStore(Config{MemoryBytes: 128 << 20, NICCacheBytes: 8 << 20})
					if err != nil {
						b.Fatal(err)
					}
					for id := 0; id < preload; id++ {
						if err := s.Put(keys[id], vals[id]); err != nil {
							b.Fatal(err)
						}
					}
					if bc.scanned {
						before := engineReads(s.Stats())
						if _, _, err := s.Scan(nil, 1); err != nil {
							b.Fatal(err)
						}
						build += engineReads(s.Stats()) - before
						built += preload
					}
					base = s.Stats()
					b.StartTimer()
				}
				id := preload + i%span
				if err := s.Put(keys[id], vals[id]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			retire()
			b.ReportMetric(float64(engine)/float64(b.N), "engine-reads/op")
			b.ReportMetric(float64(pcie)/float64(b.N), "pcie-reads/op")
			if built > 0 {
				b.ReportMetric(float64(build)/float64(built), "build-reads/key")
			}
		})
	}
}
