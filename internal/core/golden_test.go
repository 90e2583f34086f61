package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// goldenModelCounters is what the mix below cost at the commit before the
// core data path was made allocation-free (PR 12's parent). The modeled
// DMA, cache, dispatch and engine counters are the quantities the paper
// figures are computed from; wall-clock work on the hot path must not
// move any of them on a hash-only store.
const goldenModelCounters = "" +
	"mem={Reads:8824 Writes:5627 ReadLines:14178 WriteLines:8566} " +
	"cache={Hits:11206 Misses:1566 Fills:3089 DirtyEvictions:1829 CleanEvictions:764 DRAMLineReads:12772 DRAMLineWrites:9536 EccCorrected:0 EccHealed:0 EccLost:0} " +
	"dispatch={DirectReads:7507 DirectWrites:3798 CachedReads:8435 CachedWrites:4337} " +
	"engine={Submitted:10000 Issued:8162 Forwarded:1838 Writebacks:2821 WritebackErrors:0 MaxChain:6} " +
	"slab={Allocs:1963 Frees:1607 FailedAlloc:0 SyncDMAs:252 Splits:157 MergedPairs:0 MergeRuns:0} " +
	"keys=457 payload=85839 chains=14"

// TestGoldenModelCounters drives a fixed-seed 10 000-op mix — inline,
// slab and chained values, footprint-changing overwrites, deletes,
// atomics, and pipelined bursts on a hot key set so the reservation
// station forwards and writes back — through a store that never scans, so
// never builds its ordered index, and compares every model counter with
// the recorded constants.
func TestGoldenModelCounters(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 4 << 20, HashIndexRatio: 0.005,
		NICCacheBytes: 32 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	rng := rand.New(rand.NewSource(12))
	key := func(id int) []byte { return []byte(fmt.Sprintf("k%03d", id)) }
	value := func() []byte {
		var n int
		switch r := rng.Intn(100); {
		case r < 40:
			n = 1 + rng.Intn(9) // inline with a 4 B key
		case r < 90:
			n = 16 + rng.Intn(200) // one slab
		default:
			n = 520 + rng.Intn(1500) // chained 512 B slabs
		}
		v := make([]byte, n)
		rng.Read(v)
		return v
	}
	for i := 0; i < 10000; i++ {
		id := rng.Intn(600)
		switch r := rng.Intn(100); {
		case r < 35:
			s.Get(key(id))
		case r < 60:
			if err := s.Put(key(id), value()); err != nil {
				t.Fatalf("op %d: Put: %v", i, err)
			}
		case r < 70:
			s.Delete(key(id))
		case r < 80:
			if _, err := s.Update(key(1000+id%50), FnAdd, 8, uint64(i)); err != nil {
				t.Fatalf("op %d: Update: %v", i, err)
			}
		default:
			// A pipelined burst on 16 hot keys with no flush between ops:
			// dependent ops chain behind the head and complete by
			// forwarding, dirty values are written back.
			for n := 0; n < 12 && i < 10000; n, i = n+1, i+1 {
				hot := key(2000 + rng.Intn(16))
				switch rng.Intn(4) {
				case 0:
					s.SubmitGet(hot, nil)
				case 1:
					s.SubmitPut(hot, value(), nil)
				case 2:
					s.SubmitUpdate(key(3000+rng.Intn(16)), FnAdd, 8, 1, nil)
				default:
					s.SubmitDelete(hot, nil)
				}
			}
			i-- // the loop header counts the burst's last op
		}
	}
	s.Flush()
	st := s.Stats()
	got := fmt.Sprintf("mem=%+v cache=%+v dispatch=%+v engine=%+v slab=%+v keys=%d payload=%d chains=%d",
		st.Mem, st.Cache, st.Dispatch, st.Engine, st.Slab, st.Keys, st.PayloadBytes, st.ChainBuckets)
	if got != goldenModelCounters {
		t.Errorf("model counters moved\n got: %s\nwant: %s", got, goldenModelCounters)
	}
}

// orderedModelCounts is what the script below costs: the first scan
// builds the index from one table walk and appends the sorted keys, an
// index walk fetches each skip-list node whole with one DMA, and a seek
// for a key above the last one resumes from the index's finger.
const orderedModelCounts = "" +
	"mem={Reads:35426 Writes:14721 ReadLines:39819 WriteLines:15571} " +
	"cache={Hits:19999 Misses:12785 Fills:15245 DirtyEvictions:6066 CleanEvictions:8155 DRAMLineReads:27799 DRAMLineWrites:21654 EccCorrected:0 EccHealed:0 EccLost:0} " +
	"dispatch={DirectReads:22673 DirectWrites:8655 CachedReads:23948 CachedWrites:8836} " +
	"keys=2500"

// TestOrderedModelCounts pins the performance model's counters for the
// ordered index: 3 000 creates in scrambled order (hash-only: nothing has
// scanned yet), 200 scans of 10 (the first builds the index), deletes of
// every third key, re-creates of every sixth and 100 more scans.
// TestGoldenModelCounters never scans, so this is the test that sees an
// index DMA.
func TestOrderedModelCounts(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 4 << 20, HashIndexRatio: 0.05,
		NICCacheBytes: 64 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const n = 3000
	key := func(id int) []byte { return []byte(fmt.Sprintf("om-%05d", id)) }
	put := func(id int) {
		if err := s.Put(key(id), make([]byte, 8+id%93)); err != nil {
			t.Fatalf("Put %d: %v", id, err)
		}
	}
	scan := func(scans int) {
		for i := 0; i < scans; i++ {
			if _, _, err := s.Scan(key(i*37%n), 10); err != nil {
				t.Fatalf("Scan: %v", err)
			}
		}
	}
	for i := 0; i < n; i++ {
		put(i * 7919 % n)
	}
	scan(200)
	for id := 0; id < n; id += 3 {
		if !s.Delete(key(id)) {
			t.Fatalf("Delete %d missed", id)
		}
	}
	for id := 0; id < n; id += 6 {
		put(id)
	}
	scan(100)
	s.Flush()
	st := s.Stats()
	got := fmt.Sprintf("mem=%+v cache=%+v dispatch=%+v keys=%d",
		st.Mem, st.Cache, st.Dispatch, st.Keys)
	if got != orderedModelCounts {
		t.Errorf("indexed model counters moved\n got: %s\nwant: %s", got, orderedModelCounts)
	}
}
