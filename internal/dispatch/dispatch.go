// Package dispatch implements the DRAM load dispatcher of KV-Direct (paper
// §3.3.4, Figure 7, Figure 14): a hybrid policy that uses the NIC's
// on-board DRAM as a cache for a fixed, hash-selected portion of the
// host-memory KVS, so that PCIe and NIC DRAM bandwidths add up instead of
// the slower one capping the system.
//
// The cache-able part is determined by a hash of the memory address at
// 64-byte granularity; the fraction of host memory that is cache-able is
// the load dispatch ratio l. The package provides:
//
//   - Dispatcher, a memory.Engine that routes requests to NIC DRAM or
//     directly over PCIe according to the policy;
//   - analytic hit-rate models h(l) for uniform and Zipf workloads and the
//     numeric optimizer for l (paper's balance equation);
//   - the combined-throughput model used by Figure 14.
package dispatch

import (
	"math"

	"kvdirect/internal/memory"
	"kvdirect/internal/nicdram"
)

// GranuleBytes is the policy decision granularity. The paper hashes
// addresses at 64 B granularity but requires whole objects (a 64 B hash
// bucket or a 32–512 B slab) to land on one side of the split; since slab
// objects are size-aligned and at most 512 B, a 512 B granule guarantees
// every object routes consistently.
const GranuleBytes = 512

// Policy decides which address granules are cache-able. Ratio is the load
// dispatch ratio l in [0,1]: a granule is cache-able iff its address hash
// falls below l. The hash mixes the granule index so that hash-index
// buckets and slab-allocated regions are cache-able with equal
// probability, as the paper requires.
type Policy struct {
	Ratio float64
}

// Cacheable reports whether the granule containing addr is cache-able.
func (p Policy) Cacheable(addr uint64) bool {
	if p.Ratio >= 1 {
		return true
	}
	if p.Ratio <= 0 {
		return false
	}
	g := addr / GranuleBytes
	z := g * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	// Map to [0,1) and compare with l.
	return float64(z>>11)/float64(1<<53) < p.Ratio
}

// Stats counts dispatcher routing decisions.
type Stats struct {
	DirectReads  uint64 // requests routed straight to PCIe (non-cache-able)
	DirectWrites uint64
	CachedReads  uint64 // requests routed through the NIC DRAM cache
	CachedWrites uint64
}

// Sub returns s - t, counter-wise; used to measure a window of activity.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		DirectReads:  s.DirectReads - t.DirectReads,
		DirectWrites: s.DirectWrites - t.DirectWrites,
		CachedReads:  s.CachedReads - t.CachedReads,
		CachedWrites: s.CachedWrites - t.CachedWrites,
	}
}

// CachedFraction returns the fraction of requests routed to the cache.
func (s Stats) CachedFraction() float64 {
	total := s.DirectReads + s.DirectWrites + s.CachedReads + s.CachedWrites
	if total == 0 {
		return 0
	}
	return float64(s.CachedReads+s.CachedWrites) / float64(total)
}

// Dispatcher implements memory.Engine over a host memory plus NIC DRAM
// cache. Routing is by the request's starting line; KV-Direct keeps hash
// buckets and slab objects line-aligned, so a logical object lands wholly
// on one side of the split.
type Dispatcher struct {
	host   memory.Engine
	cache  *nicdram.Cache
	policy Policy
	stats  Stats
}

// New creates a dispatcher with the given load dispatch ratio. A nil cache
// or ratio <= 0 degrades to pure PCIe (the Figure 14 baseline). host is an
// Engine so ECC and fault-injection layers can sit between the dispatcher
// and the raw simulated DRAM.
func New(host memory.Engine, cache *nicdram.Cache, ratio float64) *Dispatcher {
	if cache == nil {
		ratio = 0
	}
	return &Dispatcher{host: host, cache: cache, policy: Policy{Ratio: ratio}}
}

// Ratio returns the configured load dispatch ratio.
func (d *Dispatcher) Ratio() float64 { return d.policy.Ratio }

// Stats returns a snapshot of routing counters.
func (d *Dispatcher) Stats() Stats { return d.stats }

// ResetStats zeroes the routing counters.
func (d *Dispatcher) ResetStats() { d.stats = Stats{} }

// Cache returns the underlying NIC DRAM cache (nil in baseline mode).
func (d *Dispatcher) Cache() *nicdram.Cache { return d.cache }

// nextRun returns the length and routing decision of the maximal run of
// same-side granules starting at addr, cut off at end. Object accesses in
// the KVS never cross a granule boundary, so in practice a request is one
// run. (Without a cache New zeroes the ratio, so nothing is cache-able.)
func (d *Dispatcher) nextRun(addr, end uint64) (n int, cached bool) {
	cached = d.policy.Cacheable(addr)
	for g := (addr/GranuleBytes + 1) * GranuleBytes; g < end; g += GranuleBytes {
		if d.policy.Cacheable(g) != cached {
			return int(g - addr), cached
		}
	}
	return int(end - addr), cached
}

// Read implements memory.Engine.
func (d *Dispatcher) Read(addr uint64, buf []byte) {
	for off, end := 0, addr+uint64(len(buf)); off < len(buf); {
		a := addr + uint64(off)
		n, cached := d.nextRun(a, end)
		if cached {
			d.stats.CachedReads++
			d.cache.Read(a, buf[off:off+n])
		} else {
			d.stats.DirectReads++
			d.host.Read(a, buf[off:off+n])
		}
		off += n
	}
}

// Write implements memory.Engine.
func (d *Dispatcher) Write(addr uint64, data []byte) {
	for off, end := 0, addr+uint64(len(data)); off < len(data); {
		a := addr + uint64(off)
		n, cached := d.nextRun(a, end)
		if cached {
			d.stats.CachedWrites++
			d.cache.Write(a, data[off:off+n])
		} else {
			d.stats.DirectWrites++
			d.host.Write(a, data[off:off+n])
		}
		off += n
	}
}

// Flush writes back all dirty cached lines to host memory.
func (d *Dispatcher) Flush() {
	if d.cache != nil {
		d.cache.Flush()
	}
}

// --- Analytic models (paper §3.3.4) ---

// HitRateUniform returns h(l) under a uniform workload: the cache can hold
// a k fraction of host memory, the cache-able corpus is an l fraction, so
// h = k/l (capped at 1). Caching under uniform workloads is inefficient.
func HitRateUniform(k, l float64) float64 {
	if l <= 0 {
		return 0
	}
	h := k / l
	if h > 1 {
		h = 1
	}
	return h
}

// HitRateZipf returns h(l) under a long-tail (Zipf ~1) workload over n
// keys: h = log(k·n)/log(l·n) for k <= l (paper's approximation — the hot
// head of the distribution fits in the cache).
func HitRateZipf(k, l float64, n float64) float64 {
	if l <= 0 || n <= 1 {
		return 0
	}
	if k >= l {
		return 1
	}
	num := math.Log(k * n)
	den := math.Log(l * n)
	if den <= 0 || num <= 0 {
		return 0
	}
	h := num / den
	if h > 1 {
		h = 1
	}
	return h
}

// Loads returns the per-access load placed on PCIe and NIC DRAM for load
// dispatch ratio l, hit rate h, and the fraction of accesses that are
// writes (dirty evictions eventually cost one extra PCIe write per dirtied
// missed line):
//
//	PCIe: (1-l) direct + l(1-h) fills + l(1-h)·writeFrac write-backs
//	DRAM: l (every cache-able access touches DRAM, hit or fill)
func Loads(l, h, writeFrac float64) (pcieLoad, dramLoad float64) {
	miss := l * (1 - h)
	return (1 - l) + miss + miss*writeFrac, l
}

// SystemOpsPerSec returns the memory-system throughput (line ops/s) for
// dispatch ratio l given a hit-rate function, capacities in line ops/s,
// and the workload's write fraction. This is the quantity Figure 14 plots
// (before the 180 Mops clock cap).
func SystemOpsPerSec(l float64, hit func(l float64) float64, writeFrac, pcieCap, dramCap float64) float64 {
	if l <= 0 {
		return pcieCap // baseline: everything over PCIe
	}
	h := hit(l)
	pcieLoad, dramLoad := Loads(l, h, writeFrac)
	rate := math.Inf(1)
	if pcieLoad > 0 {
		rate = math.Min(rate, pcieCap/pcieLoad)
	}
	if dramLoad > 0 {
		rate = math.Min(rate, dramCap/dramLoad)
	}
	return rate
}

// OptimalRatio numerically solves for the load dispatch ratio maximizing
// SystemOpsPerSec — the paper's balance condition that PCIe and DRAM
// loads be proportional to their throughputs.
func OptimalRatio(hit func(l float64) float64, writeFrac, pcieCap, dramCap float64) (l float64, opsPerSec float64) {
	best, bestL := 0.0, 0.0
	for i := 0; i <= 1000; i++ {
		cand := float64(i) / 1000
		r := SystemOpsPerSec(cand, hit, writeFrac, pcieCap, dramCap)
		if r > best {
			best, bestL = r, cand
		}
	}
	return bestL, best
}
