// Package workload generates YCSB-style key-value workloads (paper §5):
// uniform or Zipf-skewed key popularity (skewness 0.99 is the paper's
// "long-tail" workload), configurable GET/PUT mixes and KV sizes, all
// fully deterministic under a seed.
//
// Go's math/rand Zipf sampler requires exponent > 1, so this package
// implements its own sampler via an inverse-CDF table, which supports the
// YCSB exponent 0.99 exactly.
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Kind is an operation type in the generated stream.
type Kind int

// Operation kinds.
const (
	Get Kind = iota
	Put
)

// Op is one generated operation.
type Op struct {
	Kind    Kind
	KeyID   uint64 // in [0, Keys)
	ScanLen int    // Scan ops only: entries to return, drawn per op
}

// Config parameterizes a Generator.
type Config struct {
	Keys     uint64  // key-space size
	Skew     float64 // 0 = uniform; else Zipf exponent (0.99 = long-tail)
	GetRatio float64 // fraction of GETs (rest are PUTs)
	KeySize  int     // bytes per key (>= 8; keys embed the 8-byte id)
	ValSize  int     // bytes per value
	Seed     int64
}

// MaxZipfKeys bounds the inverse-CDF table size.
const MaxZipfKeys = 1 << 24

// Generator produces deterministic op streams.
type Generator struct {
	cfg Config
	rng *rand.Rand
	cdf []float64 // cumulative popularity, zipf only
}

// New creates a generator. It panics on nonsensical configs (zero keys,
// oversized Zipf tables) since those are programming errors in
// experiment drivers.
func New(cfg Config) *Generator {
	if cfg.Keys == 0 {
		panic("workload: zero keys")
	}
	if cfg.KeySize < 8 {
		cfg.KeySize = 8
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	if cfg.Skew > 0 {
		if cfg.Keys > MaxZipfKeys {
			panic(fmt.Sprintf("workload: zipf key space %d exceeds %d", cfg.Keys, MaxZipfKeys))
		}
		g.cdf = make([]float64, cfg.Keys)
		sum := 0.0
		for i := uint64(0); i < cfg.Keys; i++ {
			sum += 1 / math.Pow(float64(i+1), cfg.Skew)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
	}
	return g
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// NextKey draws one key id from the popularity distribution. Under Zipf,
// key ids are popularity ranks scrambled by a fixed permutation hash so
// hot keys spread across the hash space (as YCSB does).
func (g *Generator) NextKey() uint64 {
	if g.cdf == nil {
		return uint64(g.rng.Int63n(int64(g.cfg.Keys)))
	}
	u := g.rng.Float64()
	rank := sort.SearchFloat64s(g.cdf, u)
	if rank >= len(g.cdf) {
		rank = len(g.cdf) - 1
	}
	return scramble(uint64(rank)) % g.cfg.Keys
}

// scramble is a fixed 64-bit mix so that popular ranks do not cluster in
// key space.
func scramble(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

// Next draws one operation (kind + key).
func (g *Generator) Next() Op {
	k := Put
	if g.rng.Float64() < g.cfg.GetRatio {
		k = Get
	}
	return Op{Kind: k, KeyID: g.NextKey()}
}

// KeyBytes renders a key id as a KeySize-byte key: the 8-byte id followed
// by deterministic padding.
func (g *Generator) KeyBytes(id uint64) []byte {
	k := make([]byte, g.cfg.KeySize)
	binary.LittleEndian.PutUint64(k, id)
	for i := 8; i < len(k); i++ {
		k[i] = byte(id>>uint(i%8)) ^ byte(i)
	}
	return k
}

// ValueBytes renders a deterministic value for a key id and version.
func (g *Generator) ValueBytes(id, version uint64) []byte {
	v := make([]byte, g.cfg.ValSize)
	seed := scramble(id ^ version*0x9E3779B97F4A7C15)
	for i := range v {
		v[i] = byte(seed >> uint(8*(i%8)))
		if i%8 == 7 {
			seed = scramble(seed)
		}
	}
	return v
}

// HotKeyFraction returns the fraction of draws landing on the top-k most
// popular keys (diagnostic for skew; ~0 for uniform with large key spaces).
func (g *Generator) HotKeyFraction(k int) float64 {
	if g.cdf == nil {
		return float64(k) / float64(g.cfg.Keys)
	}
	if k <= 0 {
		return 0
	}
	if k > len(g.cdf) {
		k = len(g.cdf)
	}
	return g.cdf[k-1]
}
