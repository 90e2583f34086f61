package kvnet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// ShardAddrs names one shard's replica endpoints: Primary is the
// believed write endpoint, Backups are promotion candidates tried when
// the primary stops answering or answers "not primary".
type ShardAddrs struct {
	Primary string
	Backups []string
}

// ShardedClient talks to a multi-NIC KV-Direct deployment (paper §5.2):
// one endpoint per programmable NIC, each owning a disjoint slice of the
// key space. Keys route by kvdirect.ShardOf, the placement rule every
// router in the repository shares.
//
// With replicated shards (kvrepl), each shard is a whole replica group:
// the client tracks every member's address, follows NotPrimary redirect
// hints, rotates to promotion candidates when the primary dies, and
// accepts routing republishes (UpdateShard) from the membership
// coordinator — so a failover is invisible to callers beyond retry
// latency. Non-idempotent batches are never replayed after an ambiguous
// transport failure, exactly as on a single connection; a NotPrimary
// rejection is unambiguous (nothing was applied) and is always retried.
//
// Like Client, it is safe for concurrent use.
type ShardedClient struct {
	shards []*replicaSet
	tel    *telemetry.Registry
}

// DialShards connects to every endpoint (one replica per shard). On
// failure, already-opened connections are closed.
func DialShards(addrs []string) (*ShardedClient, error) {
	shards := make([]ShardAddrs, len(addrs))
	for i, a := range addrs {
		shards[i] = ShardAddrs{Primary: a}
	}
	return DialReplicaShards(shards, Options{})
}

// DialReplicaShards connects to a deployment of replicated shards,
// eagerly dialing each shard's primary. Backup connections are opened
// lazily on first failover.
func DialReplicaShards(shards []ShardAddrs, opts Options) (*ShardedClient, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("kvnet: no shard addresses")
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
		// Propagate the fallback into the per-shard dials too: root
		// spans and per-shard client spans must share one ring or
		// assembled traces lose their middle hops.
		opts.Telemetry = tel
	}
	sc := &ShardedClient{shards: make([]*replicaSet, len(shards)), tel: tel}
	for i, sh := range shards {
		if sh.Primary == "" {
			_ = sc.Close() // best-effort cleanup; the config error is reported
			return nil, fmt.Errorf("kvnet: shard %d has no primary address", i)
		}
		rs := newReplicaSet(sh, opts, tel.Counters())
		if _, _, err := rs.client(); err != nil {
			_ = sc.Close() // best-effort cleanup; the dial error is reported
			return nil, fmt.Errorf("kvnet: shard %d (%s): %w", i, sh.Primary, err)
		}
		sc.shards[i] = rs
	}
	return sc, nil
}

// Counters exposes the registry's counters, where the routing layer
// keeps sharded.redirects (NotPrimary hints followed), sharded.rotations
// (blind failover rotations after transport errors) and
// sharded.route_updates (coordinator republishes applied) beside the
// per-shard connections' client.* counters.
func (sc *ShardedClient) Counters() *telemetry.Counters { return sc.tel.Counters() }

// Telemetry returns the routing layer's registry: when Options.Telemetry
// was set at dial time it is shared with every per-shard connection, so
// sharded-batch root spans and per-shard client spans land in one ring.
func (sc *ShardedClient) Telemetry() *telemetry.Registry { return sc.tel }

// Close closes every shard connection, returning the first error.
func (sc *ShardedClient) Close() error {
	var first error
	for _, rs := range sc.shards {
		if rs == nil {
			continue
		}
		if err := rs.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the number of shards.
func (sc *ShardedClient) NumShards() int { return len(sc.shards) }

// UpdateShard republishes shard i's routing — the coordinator calls this
// after a failover so clients jump straight to the new primary instead
// of discovering it by probing.
func (sc *ShardedClient) UpdateShard(i int, addrs ShardAddrs) error {
	if i < 0 || i >= len(sc.shards) {
		return fmt.Errorf("kvnet: shard %d out of range", i)
	}
	if addrs.Primary == "" {
		return fmt.Errorf("kvnet: shard %d republish has no primary", i)
	}
	sc.shards[i].update(addrs)
	sc.tel.Counters().Add("sharded.route_updates", 1)
	return nil
}

// shard returns the replica set that owns key (kvdirect.ShardOf).
func (sc *ShardedClient) shard(key []byte) doFunc {
	return sc.shards[kvdirect.ShardOf(key, len(sc.shards))].do
}

// Get routes a GET to the owning shard.
func (sc *ShardedClient) Get(key []byte) ([]byte, bool, error) { return sc.shard(key).get(key) }

// Put routes a PUT to the owning shard.
func (sc *ShardedClient) Put(key, value []byte) error { return sc.shard(key).put(key, value) }

// Delete routes a DELETE to the owning shard.
func (sc *ShardedClient) Delete(key []byte) (bool, error) { return sc.shard(key).delete(key) }

// FetchAdd routes an atomic fetch-and-add to the owning shard.
func (sc *ShardedClient) FetchAdd(key []byte, delta uint64) (uint64, error) {
	return sc.shard(key).fetchAdd(key, delta)
}

// ScanPage fetches one globally ordered page: up to limit pairs in
// ascending key order starting at the first key >= start. Keys are
// hash-partitioned, so the scan fans out to every shard (each scan rides
// replicaSet.do — NotPrimary redirects route it to the shard's primary)
// and the per-shard ordered pages are k-way merged. The returned cursor
// is the smallest key not yet returned; resume by passing it as start.
func (sc *ShardedClient) ScanPage(start []byte, limit int) ([]kvdirect.ScanEntry, []byte, error) {
	op, err := kvdirect.ScanOp(start, limit, nil)
	if err != nil {
		return nil, nil, err
	}
	pages := make([][]kvdirect.ScanEntry, len(sc.shards))
	cursors := make([][]byte, len(sc.shards))
	for i, rs := range sc.shards {
		res, err := rs.do([]kvdirect.Op{op})
		if err != nil {
			return nil, nil, fmt.Errorf("kvnet: shard %d scan: %w", i, err)
		}
		entries, cur, err := kvdirect.DecodeScanResult(res[0])
		if err != nil {
			return nil, nil, fmt.Errorf("kvnet: shard %d scan: %w", i, err)
		}
		pages[i] = entries
		cursors[i] = cur
	}
	entries, next := kvdirect.MergeScanPages(pages, cursors, limit)
	return entries, next, nil
}

// Scan fetches up to limit globally ordered pairs starting at start,
// following continuation cursors across as many pages as needed.
func (sc *ShardedClient) Scan(start []byte, limit int) ([]kvdirect.ScanEntry, error) {
	var out []kvdirect.ScanEntry
	cur := start
	for len(out) < limit {
		entries, next, err := sc.ScanPage(cur, limit-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
		if next == nil {
			break
		}
		cur = next
	}
	return out, nil
}

// DoTrace splits a batch by owning shard (kvdirect.DoSharded), issues
// the per-shard sub-batches and reassembles results in the original
// order. Cross-key ordering within the batch is preserved per shard only
// — the same guarantee a real multi-NIC deployment gives, since
// independent NICs do not synchronize.
//
// A sampled tc places the batch in a distributed trace (TraceID 0 starts
// a fresh one): a single-shard batch returns that shard's client span
// directly; a batch spanning shards gets a SHARDED root span with one
// client span per shard parented under it. The zero TraceContext is an
// untraced batch and returns a nil span.
func (sc *ShardedClient) DoTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error) {
	if tc.Sampled && tc.TraceID == 0 {
		tc.TraceID = telemetry.NewTraceID()
	}
	var root, last *telemetry.Span
	out, err := kvdirect.DoSharded(ops, len(sc.shards), func(s int, sub []kvdirect.Op) ([]kvdirect.Result, error) {
		if tc.Sampled && root == nil && len(sub) < len(ops) {
			root = sc.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
			root.SetOp("SHARDED", len(ops))
			tc.Parent = root.SpanID
		}
		res, span, err := sc.shards[s].doTrace(sub, tc)
		last = span
		return res, err
	})
	if root == nil {
		return out, last, err
	}
	root.SetErr(err)
	sc.tel.Tracer().Publish(root)
	if err != nil {
		return nil, last, err
	}
	return out, root, nil
}

// Do is DoTrace untraced.
func (sc *ShardedClient) Do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	return untraced(sc.DoTrace(ops, wire.TraceContext{}))
}

// --- per-shard replica set ---

// replicaSet is one shard's view of its replica group: an ordered
// address list (front = believed primary) and cached connections.
type replicaSet struct {
	opts     Options
	counters *telemetry.Counters

	mu      sync.Mutex
	addrs   []string
	clients map[string]*Client
	backoff *Backoff // retry pacing for every doTrace on this set; drawn from under mu
}

func newReplicaSet(sh ShardAddrs, opts Options, counters *telemetry.Counters) *replicaSet {
	opts = opts.withDefaults()
	return &replicaSet{
		opts:     opts,
		counters: counters,
		addrs:    append([]string{sh.Primary}, sh.Backups...),
		clients:  map[string]*Client{},
		// Clock-seeded like Client's: sets that retry the same attempt
		// after the same failover must not draw the same delays.
		backoff: NewBackoff(opts.RetryBaseDelay, opts.RetryMaxDelay, time.Now().UnixNano()),
	}
}

// client returns a connection to the current front address, dialing it
// if needed; on dial failure the front is rotated so the next attempt
// probes the next candidate.
func (rs *replicaSet) client() (*Client, string, error) {
	rs.mu.Lock()
	addr := rs.addrs[0]
	c := rs.clients[addr]
	rs.mu.Unlock()
	if c != nil {
		return c, addr, nil
	}
	c, err := DialOptions(addr, rs.opts)
	if err != nil {
		rs.rotate(addr)
		return nil, addr, err
	}
	rs.mu.Lock()
	if prev := rs.clients[addr]; prev != nil {
		// Another goroutine dialed concurrently; keep its connection.
		rs.mu.Unlock()
		_ = c.Close() // duplicate connection, deliberately discarded
		return prev, addr, nil
	}
	rs.clients[addr] = c
	rs.mu.Unlock()
	return c, addr, nil
}

// rotate moves addr from the front to the back, if it is still at the
// front (concurrent rotations for the same failure collapse to one).
func (rs *replicaSet) rotate(addr string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.addrs) > 1 && rs.addrs[0] == addr {
		rs.addrs = append(rs.addrs[1:], addr)
		rs.counters.Add("sharded.rotations", 1)
	}
}

// promote moves hint to the front of the address list, learning it if
// the coordinator republished before we ever saw it.
func (rs *replicaSet) promote(hint string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.addrs[0] == hint {
		return
	}
	next := make([]string, 0, len(rs.addrs)+1)
	next = append(next, hint)
	for _, a := range rs.addrs {
		if a != hint {
			next = append(next, a)
		}
	}
	rs.addrs = next
	rs.counters.Add("sharded.redirects", 1)
}

// update applies a coordinator republish: new ordered address list,
// dropping connections to members that left the group.
func (rs *replicaSet) update(sh ShardAddrs) {
	next := append([]string{sh.Primary}, sh.Backups...)
	keep := map[string]bool{}
	for _, a := range next {
		keep[a] = true
	}
	rs.mu.Lock()
	var closing []*Client
	for a, c := range rs.clients {
		if !keep[a] {
			closing = append(closing, c)
			delete(rs.clients, a)
		}
	}
	rs.addrs = next
	rs.mu.Unlock()
	for _, c := range closing {
		_ = c.Close() // member left the group; nothing to report
	}
}

// doTrace issues one batch against the shard's current primary,
// following NotPrimary redirects and rotating across replicas on
// transport failures until the batch lands or the failover budget is
// exhausted. Under a sampled tc a failover leaves the failed attempts'
// client spans in the tree alongside the one that landed. A first
// attempt that lands adds no allocation to the round trip and does not
// touch the backoff's generator.
//
//kvd:hotpath
func (rs *replicaSet) doTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error) {
	// The budget covers one full tour of the group plus the retries a
	// failover needs for the coordinator to detect and promote.
	rs.mu.Lock()
	budget := (len(rs.addrs) + 1) * (rs.opts.MaxRetries + 1)
	rs.mu.Unlock()
	if budget < 4 {
		budget = 4
	}
	var lastErr error
	for attempt := 0; attempt < budget; attempt++ {
		if attempt > 0 {
			rs.mu.Lock()
			d := rs.backoff.Delay(attempt)
			rs.mu.Unlock()
			time.Sleep(d)
		}
		c, addr, err := rs.client() //lint:allow hotalloc -- allocates only to dial an address it holds no connection to
		if err != nil {
			lastErr = err // dial failure: client() already rotated
			continue
		}
		res, span, err := c.DoTrace(ops, tc) //lint:allow hotalloc -- the round trip itself: its response frame, and a span when tc is sampled
		hint, rejected := notPrimaryHint(res)
		if err == nil && !rejected {
			return res, span, nil
		}
		var giveUp bool
		if lastErr, giveUp = rs.reroute(addr, c, ops, hint, err); giveUp { //lint:allow hotalloc -- the attempt failed; re-resolving the route may allocate
			return nil, span, lastErr
		}
	}
	return nil, nil, fmt.Errorf("kvnet: shard unavailable after %d attempts: %w", budget, lastErr) //lint:allow hotalloc -- the budget is spent; the error is the result
}

// do is doTrace untraced: the doFunc a shard's single-key calls ride.
func (rs *replicaSet) do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	return untraced(rs.doTrace(ops, wire.TraceContext{}))
}

// reroute digests an attempt that did not land — a transport error, or
// with err nil a NotPrimary rejection carrying hint — by dropping the
// connection, rotating to the next candidate or following the hint. It
// returns the error to remember, and giveUp when a retry could apply
// the batch twice.
func (rs *replicaSet) reroute(addr string, c *Client, ops []kvdirect.Op, hint []byte, err error) (lastErr error, giveUp bool) {
	if err != nil {
		if errors.Is(err, ErrClosed) {
			// Connection was closed under us by a routing update;
			// re-resolve and retry (nothing was applied... the close
			// happened before the send).
			rs.dropClient(addr, c)
			return err, false
		}
		if !idempotent(ops) {
			// Ambiguous failure of a non-idempotent batch: replaying
			// it elsewhere could apply an update twice. Same contract
			// as Client.Do.
			return err, true
		}
		rs.dropClient(addr, c)
		rs.rotate(addr)
		return err, false
	}
	// Unambiguous rejection: nothing was applied, safe to retry
	// anywhere — follow the hint when the backup knows the primary,
	// otherwise probe the next candidate.
	h := string(hint)
	if h != "" && h != addr {
		rs.promote(h)
	} else {
		rs.rotate(addr)
	}
	return &NotPrimaryError{Hint: h}, false
}

// dropClient forgets a broken cached connection so the next attempt
// redials.
func (rs *replicaSet) dropClient(addr string, c *Client) {
	rs.mu.Lock()
	if rs.clients[addr] == c {
		delete(rs.clients, addr)
	}
	rs.mu.Unlock()
	_ = c.Close() // already broken; nothing to report
}

func (rs *replicaSet) close() error {
	rs.mu.Lock()
	clients := make([]*Client, 0, len(rs.clients))
	for _, c := range rs.clients {
		clients = append(clients, c)
	}
	rs.clients = map[string]*Client{}
	rs.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// notPrimaryHint reports whether the batch was rejected by a non-primary
// replica, returning the redirect hint (empty when the replica did not
// know the primary) as the rejecting result carries it.
func notPrimaryHint(res []kvdirect.Result) ([]byte, bool) {
	for _, r := range res {
		if r.NotPrimary() {
			return r.Value, true
		}
	}
	return nil, false
}
