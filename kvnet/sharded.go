package kvnet

import (
	"errors"
	"fmt"
	"slices"
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

// replicaSet is one shard's view of its replica group: an ordered
// address list (front = believed primary), the conns it holds to them,
// and the client's one retry loop (doTrace).
type replicaSet struct {
	c *Client

	mu      sync.Mutex
	addrs   []string
	conns   map[string]*conn
	closed  bool
	backoff *Backoff // retry pacing for every doTrace on this set; drawn from under mu
}

func newReplicaSet(c *Client, sh ShardAddrs) *replicaSet {
	return &replicaSet{
		c:     c,
		addrs: append([]string{sh.Primary}, sh.Backups...),
		conns: map[string]*conn{},
		// Clock-seeded: sets that retry the same attempt after the same
		// failover must not draw the same delays.
		backoff: NewBackoff(c.opts.RetryBaseDelay, c.opts.RetryMaxDelay, time.Now().UnixNano()),
	}
}

// conn returns the connection to the current front address, dialing it
// if needed; on dial failure the front is rotated so the next attempt
// probes the next candidate. A closed client dials nothing.
func (rs *replicaSet) conn() (*conn, string, error) {
	rs.mu.Lock()
	addr := rs.addrs[0]
	cn, closed := rs.conns[addr], rs.closed
	rs.mu.Unlock()
	if closed {
		return nil, addr, ErrClosed
	}
	if cn != nil {
		return cn, addr, nil
	}
	cn, err := rs.c.dial(addr)
	if err != nil {
		rs.rotate(addr)
		return nil, addr, err
	}
	rs.mu.Lock()
	keep := rs.conns[addr] // non-nil when another goroutine dialed concurrently: keep its connection
	if keep == nil && !rs.closed {
		keep = cn
		rs.conns[addr] = cn
	}
	rs.mu.Unlock()
	if keep != cn {
		_ = cn.Close() // duplicate, or dialed across Close: deliberately discarded
	}
	if keep == nil {
		return nil, addr, ErrClosed
	}
	return keep, addr, nil
}

// rotate moves addr from the front to the back, if it is still at the
// front (concurrent rotations for the same failure collapse to one).
// Rotating among one address is a reconnect, and is counted as one.
func (rs *replicaSet) rotate(addr string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch {
	case rs.addrs[0] != addr:
	case len(rs.addrs) == 1:
		rs.c.counters.Add("client.reconnects", 1)
	default:
		rs.addrs = append(rs.addrs[1:], addr)
		rs.c.counters.Add("sharded.rotations", 1)
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
	rs.c.counters.Add("sharded.redirects", 1)
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
	var closing []*conn
	for a, cn := range rs.conns {
		if !keep[a] {
			closing = append(closing, cn)
			delete(rs.conns, a)
		}
	}
	rs.addrs = next
	rs.mu.Unlock()
	for _, cn := range closing {
		_ = cn.Close() // member left the group; nothing to report
	}
}

// doTrace is the client's one retry loop: it issues one batch against
// the shard's current primary, following NotPrimary redirects,
// redialing, and rotating across replicas on transport failures until
// the batch lands or the budget is exhausted. Every wait is a backoff
// slept outside any connection's lock. Under a sampled tc the failed
// attempts' client spans stay in the tree alongside the one that
// landed. A first attempt that lands adds no allocation to the round
// trip and does not touch the backoff's generator.
//
//kvd:hotpath
func (rs *replicaSet) doTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error) {
	// The budget covers one full tour of the group plus the retries a
	// failover needs for the coordinator to detect and promote.
	rs.mu.Lock()
	budget := (len(rs.addrs) + 1) * (rs.c.opts.MaxRetries + 1)
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
		cn, addr, err := rs.conn() //lint:allow hotalloc -- allocates only to dial an address it holds no connection to
		if errors.Is(err, ErrClosed) {
			return nil, nil, err
		}
		if err != nil {
			lastErr = err // dial failure: nothing was sent, and conn() already rotated
			continue
		}
		res, span, err := cn.doTrace(ops, tc) //lint:allow hotalloc -- the round trip itself: its response frame, and a span when tc is sampled
		hint, rejected := notPrimaryHint(res)
		if err == nil && !rejected {
			return res, span, nil
		}
		var giveUp bool
		if lastErr, giveUp = rs.reroute(addr, cn, ops, hint, err); giveUp { //lint:allow hotalloc -- the attempt failed; re-resolving the route may allocate
			return nil, span, lastErr
		}
	}
	return nil, nil, fmt.Errorf("kvnet: shard unavailable after %d attempts: %w", budget, lastErr) //lint:allow hotalloc -- the budget is spent; the error is the result
}

// one runs a single operation, untraced, and returns its result. what
// names it in the error a refusal becomes: any status but OK — or, for an
// operation whose key mayMiss, NotFound.
func (rs *replicaSet) one(what string, mayMiss bool, op kvdirect.Op) (kvdirect.Result, error) {
	res, _, err := rs.doTrace([]kvdirect.Op{op}, wire.TraceContext{})
	if err != nil {
		return kvdirect.Result{}, err
	}
	if r := res[0]; !r.OK() && !(mayMiss && r.NotFound()) {
		return kvdirect.Result{}, fmt.Errorf("kvnet: %s: %s", what, r.Value)
	}
	return res[0], nil
}

// reroute digests an attempt that did not land — an error from the
// conn, or with err nil a NotPrimary rejection carrying hint — by
// dropping the conn, rotating to the next candidate or following the
// hint. It returns the error to remember, and giveUp when a retry is
// pointless or could apply the batch twice.
func (rs *replicaSet) reroute(addr string, cn *conn, ops []kvdirect.Op, hint []byte, err error) (lastErr error, giveUp bool) {
	switch {
	case errors.Is(err, errBadBatch):
		return err, true
	case err != nil:
		rs.drop(addr, cn)
		if errors.Is(err, errConnClosed) {
			// Closed under us — by a routing update, or by another
			// caller's failed exchange — before anything was sent.
			return err, false
		}
		rs.c.counters.Add("client.broken", 1)
		if rs.c.opts.MaxRetries == 0 || slices.ContainsFunc(ops, func(op kvdirect.Op) bool { return !op.Code.Idempotent() }) {
			// Ambiguous failure: the batch may have been applied, and
			// replaying a non-idempotent op could apply it twice.
			return err, true
		}
		rs.c.counters.Add("client.retries", 1)
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

// drop forgets a dead conn so the next attempt redials.
func (rs *replicaSet) drop(addr string, cn *conn) {
	rs.mu.Lock()
	if rs.conns[addr] == cn {
		delete(rs.conns, addr)
	}
	rs.mu.Unlock()
}

// close closes every conn and marks the set closed: ErrClosed from here on.
func (rs *replicaSet) close() error {
	rs.mu.Lock()
	conns := rs.conns
	rs.conns, rs.closed = map[string]*conn{}, true
	rs.mu.Unlock()
	var first error
	for _, cn := range conns {
		if err := cn.Close(); err != nil && first == nil {
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
