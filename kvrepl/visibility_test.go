package kvrepl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/kvnet"
)

// The visibility rule: a primary's writes overlap their quorum waits, but
// a read never returns a write that is only on the primary. These tests,
// TestOverlapWritesShareQuorumWaits and TestGroupCommitSharesFlushes run
// -count=20 under the race detector in CI, since what overlaps depends on
// the schedule.

// doOne sends one op straight at a replica's client server, below any
// router that would follow a redirect, and returns its one result. It
// may run off the test's goroutine.
func doOne(t *testing.T, r *Replica, op kvdirect.Op) kvdirect.Result {
	t.Helper()
	res, err := r.clientSrv.Do([]kvdirect.Op{op})
	if err != nil {
		t.Error(err)
		return kvdirect.Result{}
	}
	return res[0]
}

func getOp(key string) kvdirect.Op { return kvdirect.Op{Code: kvdirect.OpGet, Key: []byte(key)} }

func putOp(key, value string) kvdirect.Op {
	return kvdirect.Op{Code: kvdirect.OpPut, Key: []byte(key), Value: []byte(value)}
}

// parkPut starts a PUT of key=value on prim's server that cannot reach
// quorum, and returns once it has applied and parked, with the channel
// its result arrives on.
func parkPut(t *testing.T, prim *Replica, key, value string) <-chan kvdirect.Result {
	t.Helper()
	before := prim.LastApplied()
	done := make(chan kvdirect.Result, 1)
	go func() { done <- doOne(t, prim, putOp(key, value)) }()
	waitFor(t, 2*time.Second, "the PUT to apply on the primary", func() bool { return prim.LastApplied() > before })
	return done
}

// TestVisibilityReadWaitsForPendingWrite: with both backups gone, a PUT
// applies on the primary and waits out AckTimeout. A GET of the same key
// must not be answered while that PUT still waits, and once the PUT
// gives up it reads the new value, as a read after a failed quorum
// always has (the write's fate was reported unknown, not undone).
func TestVisibilityReadWaitsForPendingWrite(t *testing.T) {
	opts := fastOpts()
	opts.AckTimeout = 300 * time.Millisecond
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prim := g.Primary()
	if res := doOne(t, prim, putOp("k", "old")); !res.OK() {
		t.Fatalf("PUT k=old: %+v", res)
	}
	for _, r := range g.Replicas {
		if r != prim {
			_ = r.Close() // the scenario: no ack can arrive any more
		}
	}

	put := parkPut(t, prim, "k", "new")
	get := doOne(t, prim, getOp("k"))
	if prim.Counters().Get("repl.quorum_failures") == 0 {
		t.Fatalf("GET answered %q (status %d) while the PUT still waited for its quorum", get.Value, get.Status)
	}
	if !get.OK() || string(get.Value) != "new" {
		t.Fatalf("GET after the PUT gave up: %q (status %d), want \"new\"", get.Value, get.Status)
	}
	if res := <-put; res.OK() {
		t.Fatal("PUT acknowledged without a backup")
	}
}

// TestVisibilityParkedReadRedirectsWhenDeposed: a GET parked behind a
// write that only the primary holds answers NotPrimary when the primary
// is deposed, naming the new primary — where a client's GET reads the
// last acknowledged value, not the one the old primary held alone. The
// primary is deposed the way a partition deposes it: its heartbeats are
// lost, the lease lapses, and the new primary's HELLO fences it.
func TestVisibilityParkedReadRedirectsWhenDeposed(t *testing.T) {
	inj := fault.NewInjector(11)
	opts := fastOpts()
	opts.AckTimeout = 10 * time.Second // the PUT must still be waiting when the term ends
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	g := startPartitionableGroup(t, coord, opts, inj)
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close() // no OnRoute: the deposed primary's NotPrimary hint is what leads it on
	if err := sc.Put([]byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	prim := g.Replicas[0]
	prim.mu.Lock()
	prim.stopPeersLocked() // stop shipping: the next write stays on the primary alone
	prim.mu.Unlock()

	put := parkPut(t, prim, "k", "new")
	got := make(chan kvdirect.Result, 1)
	go func() { got <- doOne(t, prim, getOp("k")) }()
	select {
	case res := <-got:
		t.Fatalf("GET answered %q (status %d) while the PUT still waited for its quorum", res.Value, res.Status)
	case <-time.After(50 * time.Millisecond):
	}
	inj.Set(fault.ReplPartitionPrimary, 1) // the lease lapses; a backup takes over and fences prim
	var res kvdirect.Result
	select {
	case res = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the parked GET outlived its primary's term")
	}
	neu := g.Primary()
	if neu == nil || neu == prim {
		t.Fatal("no backup took over")
	}
	if !res.NotPrimary() || string(res.Value) != neu.ClientAddr() {
		t.Fatalf("parked GET on the deposed primary answered %q (status %d), want NotPrimary naming %s", res.Value, res.Status, neu.ClientAddr())
	}
	if res := <-put; res.OK() {
		t.Fatal("PUT acknowledged without a backup")
	}
	v, ok, err := sc.Get([]byte("k"))
	if err != nil || !ok || string(v) != "old" {
		t.Fatalf("GET through the client after the deposition: %q, %v, %v; want the acknowledged \"old\"", v, ok, err)
	}
}

// TestVisibilityPromotedPrimaryReadsAtOnce: a backup promoted with no
// peer to ack anything answers a read of what it already holds at once.
func TestVisibilityPromotedPrimaryReadsAtOnce(t *testing.T) {
	r, err := NewReplica(0, 1, 3, testConfig(), "127.0.0.1:0", "127.0.0.1:0", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, _ := dialRepl(t, r, 1)
	c.send(appendMsg(t, 1), appendMsg(t, 2), appendMsg(t, 3))
	waitFor(t, 2*time.Second, "the backup to apply 3 entries", func() bool { return r.LastApplied() == 3 })

	r.promote(2, nil)
	got := make(chan kvdirect.Result, 1)
	go func() { got <- doOne(t, r, getOp("k0003")) }()
	select {
	case res := <-got:
		if !res.OK() || string(res.Value) != "v0003" {
			t.Fatalf("GET on the promoted primary: %q (status %d), want \"v0003\"", res.Value, res.Status)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a freshly promoted primary parked a read of what it holds")
	}
}

// TestOverlapWritesShareQuorumWaits: 8 writers on 8 connections against
// a 1×3 group whose backups stall every apply. A primary that held a
// lock across the quorum wait would have one batch waiting at a time;
// this one has several, and every acknowledged write is still on every
// replica afterwards.
func TestOverlapWritesShareQuorumWaits(t *testing.T) {
	inj := fault.NewInjector(9)
	inj.Set(fault.ReplStallBackup, 1)
	opts := fastOpts()
	opts.Faults = inj
	g, _ := startGroupAndClient(t, opts)
	const writers, each = 8, 25
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]string{}
	)
	for w := 0; w < writers; w++ {
		c, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k, v := fmt.Sprintf("ovl-%d-%03d", w, i), fmt.Sprintf("v-%d-%03d", w, i)
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					t.Errorf("writer %d: put %s: %v", w, k, err)
					return
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := g.Primary().Telemetry().Histogram("repl.inflight_batches").Max(); got < 2 {
		t.Fatalf("at most %d batch waited for quorum at a time: writes did not overlap", got)
	}
	inj.DisableAll()
	expectConverged(t, g, acked)
}
