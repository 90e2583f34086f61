package kvdirect

import (
	"fmt"

	"kvdirect/internal/repllog"
	"kvdirect/internal/wire"
)

// ReplicatedCluster is the in-process model of a replicated deployment:
// every shard is a replica group of R stores kept in lockstep through a
// replication log (internal/repllog), exactly the data path the kvrepl
// package runs over sockets — minus the sockets. It exists for
// benchmarks (what does an R-way replicated write cost next to a plain
// one?) and for property tests of the replication invariants without
// network nondeterminism; for real servers with quorum acks, leases and
// failover, use package kvrepl.
//
// Like Store and Cluster, it is not safe for concurrent use.
type ReplicatedCluster struct {
	groups []*replicaGroup
}

// replicaGroup keeps one shard's replicas in lockstep: each mutation is
// sequenced, logged, and applied to every live replica. Applied
// prefixes stay dense, so promotion after a primary failure never loses
// an acknowledged write.
type replicaGroup struct {
	replicas []*Store
	log      *repllog.Log
	seq      uint64
	epoch    uint64
	primary  int
}

// NewReplicatedCluster builds shards×replicas stores; cfg.MemoryBytes
// is the per-replica partition. Construction is leak-safe: a mid-build
// failure closes everything already built.
func NewReplicatedCluster(shards, replicas int, cfg Config) (*ReplicatedCluster, error) {
	if shards < 1 || replicas < 1 {
		return nil, fmt.Errorf("kvdirect: replicated cluster needs >=1 shard and >=1 replica, got %d x %d", shards, replicas)
	}
	rc := &ReplicatedCluster{groups: make([]*replicaGroup, shards)}
	for si := range rc.groups {
		g := &replicaGroup{
			replicas: make([]*Store, replicas),
			log:      repllog.New(0),
			epoch:    1,
		}
		rc.groups[si] = g
		for ri := range g.replicas {
			repCfg := cfg
			repCfg.Seed = cfg.Seed + uint64(si*replicas+ri)*0x9E3779B97F4A7C15
			s, err := newClusterStore(repCfg)
			if err != nil {
				rc.Close()
				return nil, err
			}
			g.replicas[ri] = s
		}
	}
	return rc, nil
}

// NumShards returns the number of replica groups.
func (rc *ReplicatedCluster) NumShards() int { return len(rc.groups) }

// NumReplicas returns the replication factor.
func (rc *ReplicatedCluster) NumReplicas() int { return len(rc.groups[0].replicas) }

// index mirrors Cluster's key routing (same hash, same placement).
func (rc *ReplicatedCluster) index(key []byte) int {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return int(h % uint64(len(rc.groups)))
}

func (rc *ReplicatedCluster) group(key []byte) *replicaGroup {
	return rc.groups[rc.index(key)]
}

// Primary returns the shard's current primary store (reads go here).
func (g *replicaGroup) primaryStore() (*Store, error) {
	if g.primary < 0 {
		return nil, fmt.Errorf("kvdirect: replica group has no live replicas")
	}
	return g.replicas[g.primary], nil
}

// mutate sequences req into the group's log and applies it to every
// live replica, returning the primary's response.
func (g *replicaGroup) mutate(req wire.Request) (wire.Response, error) {
	prim, err := g.primaryStore()
	if err != nil {
		return wire.Response{}, err
	}
	e, err := repllog.NewEntry(g.seq+1, g.epoch, req)
	if err != nil {
		return wire.Response{}, err
	}
	if err := g.log.Append(e); err != nil {
		return wire.Response{}, err
	}
	g.seq++
	resp := prim.Apply(req)
	for i, s := range g.replicas {
		if i == g.primary || s == nil || s.Closed() {
			continue
		}
		_ = s.Apply(req) //lint:allow statuserr -- lockstep backup apply; the primary's response is authoritative
	}
	return resp, nil
}

// Get reads key from the owning shard's primary.
func (rc *ReplicatedCluster) Get(key []byte) ([]byte, bool, error) {
	prim, err := rc.group(key).primaryStore()
	if err != nil {
		return nil, false, err
	}
	v, ok := prim.Get(key)
	return v, ok, nil
}

// Put replicates a PUT to every live replica of the owning shard.
func (rc *ReplicatedCluster) Put(key, value []byte) error {
	resp, err := rc.group(key).mutate(wire.Request{Code: wire.OpPut, Key: key, Value: value})
	if err != nil {
		return err
	}
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("kvdirect: replicated put: %s", resp.Value)
	}
	return nil
}

// Delete replicates a DELETE; it reports whether the key existed.
func (rc *ReplicatedCluster) Delete(key []byte) (bool, error) {
	resp, err := rc.group(key).mutate(wire.Request{Code: wire.OpDelete, Key: key})
	if err != nil {
		return false, err
	}
	return resp.Status == wire.StatusOK, nil
}

// Update replicates an atomic scalar update and returns the old value
// from the primary (replicas compute the same result in lockstep).
func (rc *ReplicatedCluster) Update(key []byte, fnID uint8, width int, param uint64) (uint64, error) {
	var p [8]byte
	for i := 0; i < 8; i++ {
		p[i] = byte(param >> (8 * i))
	}
	resp, err := rc.group(key).mutate(wire.Request{
		Code: wire.OpUpdateScalar, Key: key, FuncID: fnID,
		ElemWidth: uint8(width), Param: p[:width],
	})
	if err != nil {
		return 0, err
	}
	if resp.Status != wire.StatusOK {
		return 0, fmt.Errorf("kvdirect: replicated update: %s", resp.Value)
	}
	var old uint64
	for i := 0; i < len(resp.Value) && i < 8; i++ {
		old |= uint64(resp.Value[i]) << (8 * i)
	}
	return old, nil
}

// FailPrimary kills shard i's primary store and promotes the next live
// replica (replicas are in lockstep, so any survivor has every write).
// It returns the id of the new primary, or an error when the group is
// exhausted.
func (rc *ReplicatedCluster) FailPrimary(i int) (int, error) {
	if i < 0 || i >= len(rc.groups) {
		return -1, fmt.Errorf("kvdirect: no shard %d", i)
	}
	g := rc.groups[i]
	if g.primary < 0 {
		return -1, fmt.Errorf("kvdirect: shard %d already has no live replicas", i)
	}
	g.replicas[g.primary].Close()
	g.epoch++
	for ri, s := range g.replicas {
		if s != nil && !s.Closed() {
			g.primary = ri
			return ri, nil
		}
	}
	g.primary = -1
	return -1, fmt.Errorf("kvdirect: shard %d lost its last replica", i)
}

// NumKeys sums the primary key counts across shards.
func (rc *ReplicatedCluster) NumKeys() uint64 {
	var n uint64
	for _, g := range rc.groups {
		if g.primary >= 0 {
			n += g.replicas[g.primary].NumKeys()
		}
	}
	return n
}

// Close releases every replica of every shard. Idempotent; nil slots
// from a failed construction are skipped.
func (rc *ReplicatedCluster) Close() {
	for _, g := range rc.groups {
		if g == nil {
			continue
		}
		for _, s := range g.replicas {
			if s != nil {
				s.Close()
			}
		}
	}
}
