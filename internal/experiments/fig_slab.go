package experiments

import (
	"math/rand"
	"runtime"
	"time"

	"kvdirect/internal/slab"
)

// Fig12 reproduces Figure 12: wall-clock time to merge a large population
// of free slab slots, comparing the allocation-bitmap algorithm (random
// memory accesses, single-threaded) against multi-core radix sort. The
// paper merges 4 billion slots in a 16 GiB vector; the scaled run keeps
// the same O(n) algorithms, so the bitmap-vs-radix gap and the core
// scaling shape are preserved.
func Fig12(sc Scale) []*Table {
	n := sc.MergeSlots
	offs := randomFreeSlots(n, sc.Seed)
	region := uint64(n) * 2 * 32 // half the slots of a 32 B-granule region

	t := &Table{
		ID:      "fig12",
		Title:   "Time to merge free slab slots (bitmap vs multi-core radix sort)",
		Columns: []string{"algorithm", "cores", "time(s)", "merged pairs"},
		Notes:   "scaled to " + itoa(n) + " slots",
		Timed:   []string{"time(s)"},
	}

	start := time.Now()
	merged, _ := slab.MergeBitmap(offs, 32, region)
	t.Add("bitmap", "1", f2(time.Since(start).Seconds()), itoa(len(merged)))

	coreCounts := []int{1, 2, 4, 8, 16, 32}
	if max := runtime.NumCPU(); max < 32 {
		t.Notes += "; host has " + itoa(max) + " CPU(s) — counts beyond that oversubscribe goroutines and cannot speed up"
	}
	disagree := 0
	for _, cores := range coreCounts {
		start = time.Now()
		mergedR, _ := slab.MergeRadix(offs, 32, cores)
		t.Add("radix sort", itoa(cores), f2(time.Since(start).Seconds()), itoa(len(mergedR)))
		if len(mergedR) != len(merged) {
			disagree++
		}
	}
	t.Claims = []Claim{
		within("fig12/radix-runs-disagreeing", "both algorithms merge the same pairs; 4 B slots take 30 s by bitmap on one core, 1.8 s by radix sort on 32", float64(disagree), 0, 0),
	}
	return []*Table{t}
}

// randomFreeSlots builds a shuffled population of free 32 B slab offsets
// in which roughly half of all buddy pairs are complete (so merging has
// real work to do), mimicking a fragmented heap after workload churn.
func randomFreeSlots(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]uint64, 0, n)
	// Walk buddy pairs; keep both, one, or neither.
	for slot := uint64(0); len(offs) < n; slot += 2 {
		switch rng.Intn(4) {
		case 0: // full pair → mergeable
			offs = append(offs, slot*32, (slot+1)*32)
		case 1:
			offs = append(offs, slot*32)
		case 2:
			offs = append(offs, (slot+1)*32)
		}
	}
	offs = offs[:n]
	rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
	return offs
}
