package kvdirect

// ShardOf is the deployment's one placement rule: the index, of n
// shards, that owns key (FNV-1a with a final avalanche). Every router —
// kvnet.Client over sockets, kvrepl.Deployment in-process — goes
// through it, so they agree on where a key lives. It reproduces the
// paper's multi-NIC server (§5.2): each programmable NIC owns a disjoint
// partition of host memory, and ten of them scale near-linearly to 1.22
// billion operations per second.
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

// DoSharded runs one batch across n shards: it splits ops by owning
// shard, hands each shard's sub-batch (in the batch's order) to do, and
// reassembles the results in the original order. Cross-key ordering is
// therefore preserved per shard only — the guarantee a real multi-NIC
// deployment gives, since independent NICs do not synchronize. A batch
// spanning shards calls do once per shard, in shard order, with fewer
// ops than the batch holds; a batch one shard owns outright (always, when
// n is 1) is passed through as it is. The first error stops the batch.
func DoSharded(ops []Op, n int, do func(shard int, sub []Op) ([]Result, error)) ([]Result, error) {
	if n == 1 {
		return do(0, ops)
	}
	idxs := make([][]int, n)
	for i, op := range ops {
		s := ShardOf(op.Key, n)
		idxs[s] = append(idxs[s], i)
	}
	out := make([]Result, len(ops))
	for s, idx := range idxs {
		if len(idx) == 0 {
			continue
		}
		if len(idx) == len(ops) {
			return do(s, ops)
		}
		sub := make([]Op, len(idx))
		for j, i := range idx {
			sub[j] = ops[i]
		}
		res, err := do(s, sub)
		if err != nil {
			return nil, err
		}
		for j, i := range idx {
			out[i] = res[j]
		}
	}
	return out, nil
}
