// Package slab implements KV-Direct's slab memory allocator (paper §3.3.2,
// §4, Figure 8): dynamic allocation for chained hash buckets and non-inline
// KVs with O(1) average cost and less than 0.1 amortized DMA operations per
// allocation.
//
// Allocation sizes are rounded up to power-of-two slab sizes (32..512 B).
// Each size class has a free pool in host memory and a small cache on the
// NIC; the two sides form double-ended stacks synchronized in batches of
// slab entries over DMA (12 five-byte entries per 64 B DMA), so the NIC
// pays one DMA per batch rather than per operation. Slab splitting copies
// entries from a larger pool to a smaller one; free buddies merge back into
// larger slabs lazily, inside Alloc, only when a pool is empty and no
// larger slab is left to split. The paper's two merge algorithms
// (allocation bitmap vs multi-core radix sort) are MergeBitmap and
// MergeRadix, which Figure 12 times.
package slab

import (
	"fmt"
	"sort"
	"sync"

	"kvdirect/internal/memory"
)

// Sizes lists the slab size classes in bytes.
var Sizes = [...]int{32, 64, 128, 256, 512}

// NumClasses is the number of slab size classes.
const NumClasses = len(Sizes)

// MaxSlab is the largest slab size; larger allocations are unsupported
// (the hash table stores oversized values as chained slabs).
const MaxSlab = 512

// MinSlab is the allocation granularity (paper: 32 B, trading internal
// fragmentation against allocation metadata overhead).
const MinSlab = 32

// EntriesPerDMA is how many 5-byte slab entries fit in one 64 B DMA, the
// batch unit for NIC<->host pool synchronization.
const EntriesPerDMA = 12

// ClassFor returns the smallest class whose slab size fits n bytes.
func ClassFor(n int) (int, bool) {
	if n <= 0 || n > MaxSlab {
		return 0, false
	}
	for c, s := range Sizes {
		if n <= s {
			return c, true
		}
	}
	return 0, false
}

// entry is one free-pool element: a slab's offset within the managed
// region. The class is implied by which pool holds it (the wire encoding
// carries a 3-bit slab type so entries are self-describing during sync,
// mirroring the paper's design; here the pool index plays that role).
type entry uint64

// Options tunes the NIC-side cache behaviour.
type Options struct {
	Batch     int // entries per sync DMA (default EntriesPerDMA)
	LowWater  int // pull from host when NIC stack is empty/below this
	HighWater int // push to host when NIC stack exceeds this
}

func (o Options) withDefaults() Options {
	if o.Batch <= 0 {
		o.Batch = EntriesPerDMA
	}
	if o.HighWater <= 0 {
		o.HighWater = 2 * o.Batch
	}
	if o.LowWater < 0 {
		o.LowWater = 0
	}
	return o
}

// Stats counts allocator activity.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	FailedAlloc uint64
	SyncDMAs    uint64 // batched NIC<->host pool transfers
	Splits      uint64 // larger slabs split into two smaller
	MergedPairs uint64 // buddy pairs merged into larger slabs
	MergeRuns   uint64 // lazy merge invocations
}

// Allocator manages a contiguous slab region of the simulated host memory.
// It is not safe for concurrent use (the KV processor pipeline serializes
// allocation).
type Allocator struct {
	region memory.Partition
	opts   Options

	host [NumClasses][]entry // host-side free pools (double-ended stacks)
	nic  [NumClasses][]entry // NIC-side cached stacks

	// allocated bitmap, one bit per MinSlab granule, for double-free and
	// overlap detection (the paper's global allocation bitmap).
	bitmap []uint64

	freeBytes uint64
	stats     Stats
}

// New creates an allocator over region, carving it into MaxSlab-sized free
// slabs (a trailing fragment smaller than MaxSlab is carved into smaller
// classes greedily).
func New(region memory.Partition, opts Options) *Allocator {
	a := &Allocator{
		region: region,
		opts:   opts.withDefaults(),
		bitmap: make([]uint64, (region.Size/MinSlab+63)/64),
	}
	off := uint64(0)
	for off+MaxSlab <= region.Size {
		a.host[NumClasses-1] = append(a.host[NumClasses-1], entry(off))
		off += MaxSlab
	}
	for c := NumClasses - 2; c >= 0; c-- {
		s := uint64(Sizes[c])
		for off+s <= region.Size {
			a.host[c] = append(a.host[c], entry(off))
			off += s
		}
	}
	a.freeBytes = off
	return a
}

// Region returns the memory the allocator carves slabs from: every
// address Alloc returns lies inside it.
func (a *Allocator) Region() memory.Partition { return a.region }

// FreeBytes returns the total bytes currently in free pools.
func (a *Allocator) FreeBytes() uint64 { return a.freeBytes }

// Stats returns a snapshot of the counters.
func (a *Allocator) Stats() Stats { return a.stats }

// ResetStats zeroes the counters.
func (a *Allocator) ResetStats() { a.stats = Stats{} }

// bitRange iterates the bitmap bits covering [off, off+n).
func (a *Allocator) setBits(off, n uint64, v bool) {
	for g := off / MinSlab; g < (off+n)/MinSlab; g++ {
		w, b := g/64, g%64
		if v {
			a.bitmap[w] |= 1 << b
		} else {
			a.bitmap[w] &^= 1 << b
		}
	}
}

func (a *Allocator) bitsSet(off, n uint64) bool {
	for g := off / MinSlab; g < (off+n)/MinSlab; g++ {
		if a.bitmap[g/64]&(1<<(g%64)) == 0 {
			return false
		}
	}
	return true
}

func (a *Allocator) bitsClear(off, n uint64) bool {
	for g := off / MinSlab; g < (off+n)/MinSlab; g++ {
		if a.bitmap[g/64]&(1<<(g%64)) != 0 {
			return false
		}
	}
	return true
}

// Alloc returns the host-memory address of a free slab fitting n bytes.
func (a *Allocator) Alloc(n int) (uint64, error) {
	c, ok := ClassFor(n)
	if !ok {
		return 0, fmt.Errorf("slab: size %d out of range (1..%d)", n, MaxSlab)
	}
	if len(a.nic[c]) <= a.opts.LowWater {
		a.pullFromHost(c)
	}
	if len(a.nic[c]) == 0 {
		a.stats.FailedAlloc++
		return 0, fmt.Errorf("slab: out of memory for class %d (%d B)", c, Sizes[c])
	}
	e := a.nic[c][len(a.nic[c])-1]
	a.nic[c] = a.nic[c][:len(a.nic[c])-1]
	off := uint64(e)
	if !a.bitsClear(off, uint64(Sizes[c])) {
		panic(fmt.Sprintf("slab: corrupt free pool, slab %d class %d overlaps live allocation", off, c))
	}
	a.setBits(off, uint64(Sizes[c]), true)
	a.freeBytes -= uint64(Sizes[c])
	a.stats.Allocs++
	return a.region.Base + off, nil
}

// Free returns the slab at addr (previously allocated with size n) to the
// free pools. It panics on double free or size mismatch, which indicates a
// caller bug.
func (a *Allocator) Free(addr uint64, n int) {
	c, ok := ClassFor(n)
	if !ok {
		panic(fmt.Sprintf("slab: free size %d out of range", n))
	}
	if addr < a.region.Base || addr+uint64(Sizes[c]) > a.region.End() {
		panic(fmt.Sprintf("slab: free addr %d outside region", addr))
	}
	off := addr - a.region.Base
	if off%uint64(Sizes[c]) != 0 {
		panic(fmt.Sprintf("slab: free addr %d misaligned for class %d", addr, c))
	}
	if !a.bitsSet(off, uint64(Sizes[c])) {
		panic(fmt.Sprintf("slab: double free at offset %d class %d", off, c))
	}
	a.setBits(off, uint64(Sizes[c]), false)
	a.freeBytes += uint64(Sizes[c])
	a.stats.Frees++
	a.nic[c] = append(a.nic[c], entry(off))
	if len(a.nic[c]) > a.opts.HighWater {
		a.pushToHost(c)
	}
}

// pullFromHost syncs a batch of entries from the host pool to the NIC
// cache (one DMA). If the host pool is empty it first splits larger slabs,
// and if splitting is impossible it lazily merges smaller free slabs.
func (a *Allocator) pullFromHost(c int) {
	if len(a.host[c]) == 0 {
		a.splitInto(c)
	}
	if len(a.host[c]) == 0 {
		return
	}
	n := a.opts.Batch
	if n > len(a.host[c]) {
		n = len(a.host[c])
	}
	top := len(a.host[c]) - n
	a.nic[c] = append(a.nic[c], a.host[c][top:]...)
	a.host[c] = a.host[c][:top]
	a.stats.SyncDMAs++
}

// pushToHost syncs a batch of entries from the NIC cache back to the host
// pool (one DMA).
func (a *Allocator) pushToHost(c int) {
	n := a.opts.Batch
	if n > len(a.nic[c]) {
		n = len(a.nic[c])
	}
	top := len(a.nic[c]) - n
	a.host[c] = append(a.host[c], a.nic[c][top:]...)
	a.nic[c] = a.nic[c][:top]
	a.stats.SyncDMAs++
}

// splitInto refills host pool c by splitting slabs from larger classes,
// recursively. Because the slab type travels with each entry, splitting is
// a pure entry copy — no data movement. If no larger class has free slabs,
// lazy merging of smaller classes is attempted first (inspired by garbage
// collection: merge in batch only when needed).
func (a *Allocator) splitInto(c int) {
	if c+1 >= NumClasses {
		// Largest class exhausted: try to reclaim by merging smaller
		// classes upward.
		a.lazyMerge()
		return
	}
	if len(a.host[c+1]) == 0 && len(a.nic[c+1]) == 0 {
		a.splitInto(c + 1)
	}
	// Prefer host-side entries; drain the NIC cache as a fallback.
	if len(a.host[c+1]) == 0 && len(a.nic[c+1]) > 0 {
		a.pushToHost(c + 1)
	}
	if len(a.host[c+1]) == 0 {
		return
	}
	e := a.host[c+1][len(a.host[c+1])-1]
	a.host[c+1] = a.host[c+1][:len(a.host[c+1])-1]
	s := uint64(Sizes[c])
	a.host[c] = append(a.host[c], e, entry(uint64(e)+s))
	a.stats.Splits++
}

// lazyMerge merges free buddies in every class from the smallest up,
// promoting merged slabs so larger classes refill (paper's lazy slab
// merging, triggered when a pool is almost empty and no larger pool can
// split).
func (a *Allocator) lazyMerge() {
	a.stats.MergeRuns++
	for c := 0; c < NumClasses-1; c++ {
		// Merging sees the union of host pool and NIC cache; drain the
		// NIC cache first so all free entries are mergeable.
		for len(a.nic[c]) > 0 {
			a.pushToHost(c)
		}
		merged, rest := MergeRadix(entriesToOffsets(a.host[c]), uint64(Sizes[c]), 1)
		a.host[c] = offsetsToEntries(rest)
		for _, off := range merged {
			a.host[c+1] = append(a.host[c+1], entry(off))
		}
		a.stats.MergedPairs += uint64(len(merged))
	}
}

func entriesToOffsets(es []entry) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = uint64(e)
	}
	return out
}

func offsetsToEntries(offs []uint64) []entry {
	out := make([]entry, len(offs))
	for i, o := range offs {
		out[i] = entry(o)
	}
	return out
}

// MergeBitmap merges buddy pairs among free slabs of one class using a
// bitmap over the region: set a bit per free slab, then scan for aligned
// adjacent pairs. offs are offsets of free slabs of size slabSize;
// regionSize bounds the bitmap. Returns merged (offsets of new 2x slabs)
// and rest (unmerged leftovers).
func MergeBitmap(offs []uint64, slabSize, regionSize uint64) (merged, rest []uint64) {
	if len(offs) == 0 {
		return nil, nil
	}
	nSlots := regionSize / slabSize
	bm := make([]uint64, (nSlots+63)/64)
	for _, off := range offs {
		slot := off / slabSize
		bm[slot/64] |= 1 << (slot % 64)
	}
	for _, off := range offs {
		slot := off / slabSize
		if slot%2 != 0 {
			continue // only even (left) buddies initiate a merge
		}
		buddy := slot + 1
		if buddy < nSlots && bm[buddy/64]&(1<<(buddy%64)) != 0 {
			// Merge: clear both bits so neither is reported as rest.
			bm[slot/64] &^= 1 << (slot % 64)
			bm[buddy/64] &^= 1 << (buddy % 64)
			merged = append(merged, off)
		}
	}
	for _, off := range offs {
		slot := off / slabSize
		if bm[slot/64]&(1<<(slot%64)) != 0 {
			rest = append(rest, off)
			bm[slot/64] &^= 1 << (slot % 64) // dedup guard
		}
	}
	return merged, rest
}

// MergeRadix merges buddy pairs using a parallel radix sort of the free
// offsets followed by a linear adjacency scan. workers <= 1 runs serially.
func MergeRadix(offs []uint64, slabSize uint64, workers int) (merged, rest []uint64) {
	if len(offs) == 0 {
		return nil, nil
	}
	sorted := RadixSort(offs, workers)
	for i := 0; i < len(sorted); {
		off := sorted[i]
		if off%(2*slabSize) == 0 && i+1 < len(sorted) && sorted[i+1] == off+slabSize {
			merged = append(merged, off)
			i += 2
			continue
		}
		rest = append(rest, off)
		i++
	}
	return merged, rest
}

// RadixSort sorts offs ascending using an MSB bucket partition across
// workers followed by per-bucket sorts, the multi-core strategy the paper
// adopts for merging 4 billion slab slots (Figure 12).
func RadixSort(offs []uint64, workers int) []uint64 {
	n := len(offs)
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if n < 4096 || workers == 1 {
		out := append([]uint64(nil), offs...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	// Bucket by the top byte of the value range.
	max := offs[0]
	for _, v := range offs {
		if v > max {
			max = v
		}
	}
	shift := 0
	for max>>shift > 255 {
		shift++
	}
	const nBuckets = 256

	// Parallel histogram.
	counts := make([][nBuckets]int, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for _, v := range offs[lo:hi] {
				counts[w][v>>shift]++
			}
		}(w, lo, hi)
	}
	wg.Wait()

	// Prefix sums: per-bucket base, then per-worker offset within bucket.
	var bucketBase [nBuckets]int
	total := 0
	for b := 0; b < nBuckets; b++ {
		bucketBase[b] = total
		for w := 0; w < workers; w++ {
			total += counts[w][b]
		}
	}
	starts := make([][nBuckets]int, workers)
	for b := 0; b < nBuckets; b++ {
		off := bucketBase[b]
		for w := 0; w < workers; w++ {
			starts[w][b] = off
			off += counts[w][b]
		}
	}

	// Parallel scatter.
	out := make([]uint64, n)
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			pos := starts[w]
			for _, v := range offs[lo:hi] {
				b := v >> shift
				out[pos[b]] = v
				pos[b]++
			}
		}(w, lo, hi)
	}
	wg.Wait()

	// Parallel per-bucket sort.
	bucketEnd := func(b int) int {
		if b == nBuckets-1 {
			return n
		}
		return bucketBase[b+1]
	}
	sem := make(chan struct{}, workers)
	for b := 0; b < nBuckets; b++ {
		lo, hi := bucketBase[b], bucketEnd(b)
		if hi-lo < 2 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			seg := out[lo:hi]
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		}(lo, hi)
	}
	wg.Wait()
	return out
}
