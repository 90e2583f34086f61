package kvdirect

import (
	"fmt"
)

// Cluster shards a key space across several independent Store instances,
// functionally reproducing the paper's multi-NIC deployment (§5.2): each
// programmable NIC owns a disjoint partition of host memory and serves it
// through its own PCIe links, so the NICs scale near-linearly to 1.22
// billion KV operations per second with ten cards.
//
// Keys are routed by hash; a Cluster is not safe for concurrent use (wrap
// each shard with kvnet.Server for shared access, one listener per NIC as
// the real deployment does).
type Cluster struct {
	stores []*Store
}

// newClusterStore is the store constructor NewCluster uses; a seam so
// tests can fail the k-th construction and check cleanup.
var newClusterStore = New

// NewCluster creates n stores, each configured with cfg (cfg.MemoryBytes
// is the per-NIC partition size, as in the paper where each of the 10
// NICs owns a slice of the 128 GiB host memory). If any store fails to
// build, the ones already built are closed before the error returns.
func NewCluster(n int, cfg Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("kvdirect: cluster needs at least one store, got %d", n)
	}
	c := &Cluster{stores: make([]*Store, n)}
	for i := range c.stores {
		shardCfg := cfg
		shardCfg.Seed = cfg.Seed + uint64(i)*0x9E3779B97F4A7C15
		s, err := newClusterStore(shardCfg)
		if err != nil {
			for _, built := range c.stores[:i] {
				built.Close()
			}
			return nil, err
		}
		c.stores[i] = s
	}
	return c, nil
}

// Close releases every shard. Idempotent.
func (c *Cluster) Close() {
	for _, s := range c.stores {
		s.Close()
	}
}

// NumShards returns the number of stores (NICs).
func (c *Cluster) NumShards() int { return len(c.stores) }

// Shard returns the store that owns key.
func (c *Cluster) Shard(key []byte) *Store { return c.stores[ShardOf(key, len(c.stores))] }

// ShardAt returns shard i directly (for per-NIC servers or stats).
func (c *Cluster) ShardAt(i int) *Store { return c.stores[i] }

// ShardOf is the deployment's one placement rule: the index, of n
// shards, that owns key (FNV-1a with a final avalanche). Cluster and
// kvnet.ShardedClient both route by it, so in-process stores fronted by
// per-shard servers and a networked client agree on where a key lives.
func ShardOf(key []byte, n int) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return int(h % uint64(n))
}

// Get routes a GET to the owning shard.
func (c *Cluster) Get(key []byte) ([]byte, bool) { return c.Shard(key).Get(key) }

// Put routes a PUT to the owning shard.
func (c *Cluster) Put(key, value []byte) error { return c.Shard(key).Put(key, value) }

// Delete routes a DELETE to the owning shard.
func (c *Cluster) Delete(key []byte) bool { return c.Shard(key).Delete(key) }

// Update routes an atomic scalar update to the owning shard.
func (c *Cluster) Update(key []byte, fnID uint8, width int, param uint64) (uint64, error) {
	return c.Shard(key).Update(key, fnID, width, param)
}

// Scan returns up to limit pairs in ascending key order starting at the
// first key >= start, with a continuation cursor (nil when exhausted).
// Keys are hash-partitioned, so the scan fans out to every shard and
// k-way merges the per-shard ordered streams — the same plan the
// networked ShardedClient executes.
func (c *Cluster) Scan(start []byte, limit int) ([]ScanEntry, []byte, error) {
	pages := make([][]ScanEntry, len(c.stores))
	cursors := make([][]byte, len(c.stores))
	for i, s := range c.stores {
		entries, cur, err := s.Scan(start, limit)
		if err != nil {
			return nil, nil, fmt.Errorf("kvdirect: shard %d scan: %w", i, err)
		}
		pages[i] = entries
		cursors[i] = cur
	}
	entries, next := MergeScanPages(pages, cursors, limit)
	return entries, next, nil
}

// Flush drains every shard's pipeline.
func (c *Cluster) Flush() {
	for _, s := range c.stores {
		s.Flush()
	}
}

// NumKeys returns the total stored keys across shards.
func (c *Cluster) NumKeys() uint64 {
	var n uint64
	for _, s := range c.stores {
		n += s.NumKeys()
	}
	return n
}

// ShardKeyCounts returns per-shard key counts (for balance checks).
func (c *Cluster) ShardKeyCounts() []uint64 {
	out := make([]uint64, len(c.stores))
	for i, s := range c.stores {
		out[i] = s.NumKeys()
	}
	return out
}
