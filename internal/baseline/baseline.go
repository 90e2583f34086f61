// Package baseline implements the comparison systems KV-Direct is evaluated
// against (paper §2.2, §5.1.1, Figure 11, Figure 13, Table 3):
//
//   - a MemC3-style bucketized cuckoo hash table and a FaRM-style
//     chain-associative hopscotch hash table, both real implementations
//     instrumented to count memory accesses per operation at 64 B line
//     granularity (keys inlined in the index and compared in parallel,
//     values in dynamically allocated slabs, per the paper's Figure 11
//     methodology);
//   - analytic throughput models for CPU-based KVS and one-/two-sided
//     RDMA atomics (Figure 13a), calibrated with the paper's measured
//     constants.
//
// The hash tables store synthetic uint64 key ids: Figure 11's metric is
// access counts, which depend on table mechanics, not on key contents.
package baseline

import (
	"math"
	"math/rand"

	"kvdirect/internal/model"
)

// AccessStats accumulates per-operation memory-access counts.
type AccessStats struct {
	Ops      uint64
	Accesses uint64
	MaxOp    uint64 // worst single-operation access count (fluctuation)
}

func (s *AccessStats) add(n uint64) {
	s.Ops++
	s.Accesses += n
	if n > s.MaxOp {
		s.MaxOp = n
	}
}

// PerOp returns average accesses per operation.
func (s AccessStats) PerOp() float64 {
	if s.Ops == 0 {
		return 0
	}
	return float64(s.Accesses) / float64(s.Ops)
}

// Layout constants shared by the baseline tables: 8-byte slots (key
// tag + pointer) packed eight per 64 B line; values (with their full keys
// for verification) live in slab objects of 16 B granularity with a small
// header.
const (
	slotBytes       = 8
	slotsPerLine    = 8
	valueHeader     = 8 // object metadata (key length, flags, free-list link)
	valueGranule    = 16
	cuckooWays      = 4 // MemC3: 4-way set-associative buckets
	hopscotchH      = 8 // FaRM: neighborhood of one cache line
	maxCuckooKicks  = 500
	chainBlockSlots = 8 // FaRM chain-associative overflow block
)

// valueBytes returns the slab footprint of a kvSize payload.
func valueBytes(kvSize int) int {
	n := kvSize + valueHeader
	return (n + valueGranule - 1) / valueGranule * valueGranule
}

// --- MemC3-style bucketized cuckoo hash ---

// Cuckoo is a 4-way bucketized cuckoo hash table with two hash functions
// and random-walk kicking, the MemC3 design of Figure 11.
type Cuckoo struct {
	buckets  [][cuckooWays]uint64 // 0 = empty, else key id + 1
	nKeys    int
	kvSize   int
	slabFree int // bytes remaining for value objects
	rng      *rand.Rand

	GetStats AccessStats
	PutStats AccessStats
}

// NewCuckoo builds a cuckoo table for the given total memory budget and
// KV size, dedicating indexRatio of the budget to the bucket array.
func NewCuckoo(totalBytes uint64, kvSize int, indexRatio float64, seed int64) *Cuckoo {
	idxBytes := uint64(float64(totalBytes) * indexRatio)
	nBuckets := int(idxBytes / (cuckooWays * slotBytes))
	if nBuckets < 1 {
		nBuckets = 1
	}
	return &Cuckoo{
		buckets:  make([][cuckooWays]uint64, nBuckets),
		kvSize:   kvSize,
		slabFree: int(totalBytes - uint64(nBuckets*cuckooWays*slotBytes)),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

func (c *Cuckoo) h1(key uint64) int { return int(mix64(key) % uint64(len(c.buckets))) }
func (c *Cuckoo) h2(key uint64) int {
	return int(mix64(key^0x5851F42D4C957F2D) % uint64(len(c.buckets)))
}

// lookup returns (bucket, way, accesses) for key, or found=false.
func (c *Cuckoo) lookup(key uint64) (b, way int, accesses uint64, found bool) {
	b1 := c.h1(key)
	accesses++ // read bucket 1
	for w := 0; w < cuckooWays; w++ {
		if c.buckets[b1][w] == key+1 {
			return b1, w, accesses, true
		}
	}
	b2 := c.h2(key)
	accesses++ // read bucket 2
	for w := 0; w < cuckooWays; w++ {
		if c.buckets[b2][w] == key+1 {
			return b2, w, accesses, true
		}
	}
	return 0, 0, accesses, false
}

// Get performs a lookup plus one slab access for the value.
func (c *Cuckoo) Get(key uint64) bool {
	_, _, acc, found := c.lookup(key)
	if found {
		acc++ // read value object
	}
	c.GetStats.add(acc)
	return found
}

// NumKeys returns the number of stored keys.
func (c *Cuckoo) NumKeys() int { return c.nKeys }

// Utilization returns payload bytes over the total memory budget.
func (c *Cuckoo) Utilization(totalBytes uint64) float64 {
	return float64(c.nKeys*c.kvSize) / float64(totalBytes)
}

// Put inserts or updates key, counting bucket and slab accesses,
// including cuckoo kicks on insertion under pressure.
func (c *Cuckoo) Put(key uint64) bool {
	_, _, acc, found := c.lookup(key)
	if found {
		acc++ // write value object in place
		c.PutStats.add(acc)
		return true
	}
	// Insert: need slab space for the value object.
	vb := valueBytes(c.kvSize)
	if c.slabFree < vb {
		c.PutStats.add(acc)
		return false
	}
	acc++ // write value object
	// Try a free way in either bucket.
	for _, bi := range []int{c.h1(key), c.h2(key)} {
		for w := 0; w < cuckooWays; w++ {
			if c.buckets[bi][w] == 0 {
				c.buckets[bi][w] = key + 1
				acc++ // write bucket
				c.slabFree -= vb
				c.nKeys++
				c.PutStats.add(acc)
				return true
			}
		}
	}
	// Random-walk kicking: displace a random victim to its alternate
	// bucket until a free slot appears. Each kick is one bucket read +
	// one bucket write.
	cur := key
	bi := c.h1(key)
	for kick := 0; kick < maxCuckooKicks; kick++ {
		w := c.rng.Intn(cuckooWays)
		victim := c.buckets[bi][w] - 1
		c.buckets[bi][w] = cur + 1
		acc++ // write bucket with the new occupant
		cur = victim
		// Victim moves to its alternate bucket: it was resident in bi,
		// which is one of its two hash buckets; the alternate is the other.
		alt := c.h1(cur)
		if alt == bi {
			alt = c.h2(cur)
		}
		acc++ // read alternate bucket
		for w2 := 0; w2 < cuckooWays; w2++ {
			if c.buckets[alt][w2] == 0 {
				c.buckets[alt][w2] = cur + 1
				acc++ // write alternate bucket
				c.slabFree -= vb
				c.nKeys++
				c.PutStats.add(acc)
				return true
			}
		}
		bi = alt
	}
	// Kick limit exceeded: insertion fails (the table is effectively
	// full; MemC3 would trigger a rehash). Restore is skipped — callers
	// treat failure as capacity exhaustion.
	c.PutStats.add(acc)
	return false
}

// Delete removes key (for churn experiments). Accesses: lookup + bucket
// write; the slab object is freed without extra DMA (free-list push).
func (c *Cuckoo) Delete(key uint64) bool {
	b, w, acc, found := c.lookup(key)
	if !found {
		return false
	}
	c.buckets[b][w] = 0
	acc++
	_ = acc
	c.slabFree += valueBytes(c.kvSize)
	c.nKeys--
	return true
}

// --- FaRM-style chain-associative hopscotch hash ---

// Hopscotch is a hopscotch hash table with a one-cache-line neighborhood
// (H=8) and per-bucket overflow chains, the FaRM design of Figure 11.
type Hopscotch struct {
	slots    []uint64         // 0 = empty, else key id + 1
	home     []int32          // home bucket of each occupant (-1 = empty)
	chains   map[int][]uint64 // overflow chains per home bucket
	nKeys    int
	kvSize   int
	slabFree int

	GetStats AccessStats
	PutStats AccessStats
}

// NewHopscotch builds a hopscotch table with the given memory budget and
// index ratio.
func NewHopscotch(totalBytes uint64, kvSize int, indexRatio float64) *Hopscotch {
	idxBytes := uint64(float64(totalBytes) * indexRatio)
	n := int(idxBytes / slotBytes)
	if n < hopscotchH {
		n = hopscotchH
	}
	h := &Hopscotch{
		slots:    make([]uint64, n),
		home:     make([]int32, n),
		chains:   map[int][]uint64{},
		kvSize:   kvSize,
		slabFree: int(totalBytes - uint64(n*slotBytes)),
	}
	for i := range h.home {
		h.home[i] = -1
	}
	return h
}

func (h *Hopscotch) bucket(key uint64) int { return int(mix64(key) % uint64(len(h.slots))) }

// lines returns how many 64 B slot-lines the slot range [a,b) touches.
func lines(a, b int) uint64 {
	if b <= a {
		return 0
	}
	return uint64(b-1)/slotsPerLine - uint64(a)/slotsPerLine + 1
}

// NumKeys returns the number of stored keys.
func (h *Hopscotch) NumKeys() int { return h.nKeys }

// Utilization returns payload bytes over the total memory budget.
func (h *Hopscotch) Utilization(totalBytes uint64) float64 {
	return float64(h.nKeys*h.kvSize) / float64(totalBytes)
}

// find locates key: neighborhood scan then overflow chain.
func (h *Hopscotch) find(key uint64) (slot int, inChain bool, accesses uint64, found bool) {
	b := h.bucket(key)
	end := b + hopscotchH
	if end > len(h.slots) {
		end = len(h.slots)
	}
	accesses++ // neighborhood read: one contiguous 64 B DMA
	for i := b; i < end; i++ {
		if h.slots[i] == key+1 {
			return i, false, accesses, true
		}
	}
	if chain, ok := h.chains[b]; ok {
		// Each chain block of 8 slots is one access.
		for bi := 0; bi*chainBlockSlots < len(chain); bi++ {
			accesses++
			lo := bi * chainBlockSlots
			hi := lo + chainBlockSlots
			if hi > len(chain) {
				hi = len(chain)
			}
			for _, k := range chain[lo:hi] {
				if k == key+1 {
					return 0, true, accesses, true
				}
			}
		}
	}
	return 0, false, accesses, false
}

// Get performs a lookup plus one slab access for the value.
func (h *Hopscotch) Get(key uint64) bool {
	_, _, acc, found := h.find(key)
	if found {
		acc++
	}
	h.GetStats.add(acc)
	return found
}

// Put inserts or updates key. Insertion searches linearly for a free
// slot and bubbles it back into the neighborhood (hopscotch moves); when
// bubbling fails the key overflows into the home bucket's chain.
func (h *Hopscotch) Put(key uint64) bool {
	_, _, acc, found := h.find(key)
	if found {
		acc++ // value write
		h.PutStats.add(acc)
		return true
	}
	vb := valueBytes(h.kvSize)
	if h.slabFree < vb {
		h.PutStats.add(acc)
		return false
	}
	acc++ // value object write
	b := h.bucket(key)

	// Linear probe for the nearest free slot at/after b.
	free := -1
	probeEnd := b
	for i := b; i < len(h.slots) && i < b+4096; i++ {
		if h.slots[i] == 0 {
			free = i
			probeEnd = i + 1
			break
		}
	}
	acc += lines(b, probeEnd) // probe reads (line granularity)

	if free < 0 {
		// No free slot in probe range: overflow chain.
		return h.chainInsert(b, key, acc, vb)
	}

	// Bubble the free slot back until it is within [b, b+H).
	for free >= b+hopscotchH {
		moved := false
		// Find an occupant in [free-H+1, free) whose home allows it to
		// move into `free`.
		for j := free - hopscotchH + 1; j < free; j++ {
			if j < 0 || h.slots[j] == 0 {
				continue
			}
			hm := int(h.home[j])
			if free < hm+hopscotchH {
				// Move j -> free: one read + one write.
				h.slots[free] = h.slots[j]
				h.home[free] = h.home[j]
				h.slots[j] = 0
				h.home[j] = -1
				acc += 2
				free = j
				moved = true
				break
			}
		}
		if !moved {
			// Bubbling stuck: chain-associative overflow (FaRM's fix).
			return h.chainInsert(b, key, acc, vb)
		}
	}
	h.slots[free] = key + 1
	h.home[free] = int32(b)
	acc++ // slot-line write
	h.slabFree -= vb
	h.nKeys++
	h.PutStats.add(acc)
	return true
}

func (h *Hopscotch) chainInsert(b int, key uint64, acc uint64, vb int) bool {
	h.chains[b] = append(h.chains[b], key+1)
	acc++ // chain block write
	h.slabFree -= vb
	h.nKeys++
	h.PutStats.add(acc)
	return true
}

// Delete removes key.
func (h *Hopscotch) Delete(key uint64) bool {
	slot, inChain, _, found := h.find(key)
	if !found {
		return false
	}
	if inChain {
		b := h.bucket(key)
		chain := h.chains[b]
		for i, k := range chain {
			if k == key+1 {
				chain[i] = chain[len(chain)-1]
				h.chains[b] = chain[:len(chain)-1]
				break
			}
		}
	} else {
		h.slots[slot] = 0
		h.home[slot] = -1
	}
	h.slabFree += valueBytes(h.kvSize)
	h.nKeys--
	return true
}

// --- throughput models ---

// CPUKVSOpsPerSec models a CPU-based KVS server (paper §2.2): per-core
// KV throughput times core count, with or without software batching.
func CPUKVSOpsPerSec(cores int, batched bool) float64 {
	per := model.CPUKVOpsPerCore
	if batched {
		per = model.CPUKVOpsPerCoreBatched
	}
	return per * float64(cores)
}

// Atomics baselines for Figure 13a: throughput of fetch-and-add spread
// over n distinct keys. Dependent operations on one key serialize on the
// network/PCIe round trip; independent keys scale linearly up to the
// device cap.

// OneSidedRDMAAtomicsOps: RDMA NIC atomics measured at 2.24 Mops for a
// single key [Kalia et al.], scaling with keys to the message-rate cap.
func OneSidedRDMAAtomicsOps(keys int) float64 {
	return math.Min(float64(keys)*model.RDMAOneSidedAtomicsOps, model.RDMAMessageRateOps)
}

// TwoSidedRDMAAtomicsOps: server-CPU-mediated atomics; a single hot key
// serializes on one core's lock, multiple keys spread across cores.
func TwoSidedRDMAAtomicsOps(keys, cores int) float64 {
	perKey := model.CPUKVOpsPerCore
	cap := CPUKVSOpsPerSec(cores, true)
	return math.Min(float64(keys)*perKey, math.Min(cap, model.RDMAMessageRateOps))
}
