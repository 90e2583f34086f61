package kvrepl

import (
	"fmt"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/kvnet"
)

func testConfig() kvdirect.Config {
	return kvdirect.Config{MemoryBytes: 4 << 20}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", timeout, what)
}

// fastOpts keeps test failovers in the tens of milliseconds.
func fastOpts() Options {
	return Options{
		Quorum:         2,
		HeartbeatEvery: 5 * time.Millisecond,
		StreamTimeout:  500 * time.Millisecond,
		AckTimeout:     2 * time.Second,
		Seed:           1,
	}
}

// fastCoord is for failover drills, the tests that wait for a lease to
// lapse: a primary that misses 60 ms of heartbeats is deposed.
func fastCoord() CoordOptions {
	return CoordOptions{LeaseTimeout: 60 * time.Millisecond, CheckEvery: 10 * time.Millisecond}
}

// steadyCoord is for every other test. A -race or loaded-machine stall
// can starve a primary's heartbeats past fastCoord's 60 ms lease; the
// coordinator then promotes a backup, and the write the old primary was
// waiting on fails with "replication quorum not reached". Its 5 s lease
// outlasts such stalls, so no failover happens unless a test drills one.
func steadyCoord() CoordOptions { return CoordOptions{LeaseTimeout: 5 * time.Second} }

func TestReplicationBasic(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const n = 50
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if err := sc.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	prim := g.Primary()
	if prim == nil {
		t.Fatal("no primary")
	}
	want := prim.LastApplied()
	if want < n {
		t.Fatalf("primary applied %d < %d writes", want, n)
	}
	// With quorum 2 of 3, one backup may trail the ack; both must
	// converge shortly after.
	for _, r := range g.Replicas {
		r := r
		waitFor(t, 2*time.Second, fmt.Sprintf("replica %d to reach seq %d", r.ID(), want),
			func() bool { return r.LastApplied() >= want })
	}
	for _, r := range g.Replicas {
		if r == prim {
			continue
		}
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%03d", i)
			v, ok := r.Store().Get([]byte(k))
			if !ok || string(v) != "v-"+k {
				t.Fatalf("replica %d: key %s = %q, %v", r.ID(), k, v, ok)
			}
		}
	}
	// Mutations sent to a backup are rejected with a redirect naming the
	// primary (which a client then follows).
	var backup *Replica
	for _, r := range g.Replicas {
		if r != prim {
			backup = r
			break
		}
	}
	hint, rejected := rejection(t, backup, kvdirect.Op{Code: kvdirect.OpPut, Key: []byte("direct"), Value: []byte("x")})
	if !rejected {
		t.Fatal("backup accepted a put")
	}
	if hint != prim.ClientAddr() {
		t.Fatalf("redirect hint = %q, want %q", hint, prim.ClientAddr())
	}
}

// TestFilterIsNotShipped: FILTER only reads (core.Store.Filter), so a
// primary answers it as it answers a GET — no sequence number, nothing
// logged or shipped.
func TestFilterIsNotShipped(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prim := g.Primary()
	if prim == nil {
		t.Fatal("no primary")
	}
	vec := []byte{0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0, 0} // four u32 elements: 0 7 0 9
	if res := doOne(t, prim, kvdirect.Op{Code: kvdirect.OpPut, Key: []byte("vec"), Value: vec}); !res.OK() {
		t.Fatalf("put: %+v", res)
	}
	seq := prim.LastApplied()
	shipped := func() uint64 { return prim.Counters().Get("repl.entries_shipped") }
	waitFor(t, 2*time.Second, "the put to reach both backups", func() bool { return shipped() >= 2*seq })
	before := shipped()

	res := doOne(t, prim, kvdirect.Op{Code: kvdirect.OpFilter, Key: []byte("vec"), FuncID: kvdirect.FilterNonZero, ElemWidth: 4})
	if want := []byte{7, 0, 0, 0, 9, 0, 0, 0}; !res.OK() || string(res.Value) != string(want) {
		t.Fatalf("filter = %+v, want %v", res, want)
	}
	time.Sleep(50 * time.Millisecond) // ten heartbeats: time for a shipping loop to pick up an entry
	if got := shipped(); got != before {
		t.Fatalf("repl.entries_shipped %d → %d after a filter", before, got)
	}
	if got := prim.LastApplied(); got != seq {
		t.Fatalf("the filter was sequenced: last applied %d → %d", seq, got)
	}
}

// rejection sends op straight at one replica's client server, below any
// router that would follow the redirect, and reports whether the replica
// refused it as not-primary and the hint the refusal carried.
func rejection(t *testing.T, r *Replica, op kvdirect.Op) (hint string, rejected bool) {
	t.Helper()
	res := doOne(t, r, op)
	return string(res.Value), res.NotPrimary()
}

func TestSnapshotCatchup(t *testing.T) {
	opts := fastOpts()
	opts.Quorum = 1
	opts.LogWindow = 8
	prim, err := NewReplica(0, 0, 2, testConfig(), "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	back, err := NewReplica(0, 1, 2, testConfig(), "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()

	// Lead alone first: 100 writes blow far past the 8-entry window.
	prim.promote(1, nil)
	c, err := kvnet.Dial(prim.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 100
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("snap-%03d", i)
		if err := c.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}

	// Now attach the backup; log replay is impossible, so it must catch
	// up by snapshot and then track the stream.
	prim.promote(2, map[int]string{1: back.ReplAddr()})
	waitFor(t, 5*time.Second, "backup snapshot catch-up",
		func() bool { return back.LastApplied() >= uint64(n) })
	if got := back.Counters().Get("repl.snapshots_installed"); got == 0 {
		t.Fatal("backup caught up without installing a snapshot")
	}
	// The primary counts the send only after the backup's ack lands, a
	// beat after the install becomes visible.
	waitFor(t, 2*time.Second, "primary snapshot-send ack",
		func() bool { return prim.Counters().Get("repl.snapshots_sent") > 0 })
	if got := prim.Counters().Get("repl.catchup_bytes"); got == 0 {
		t.Fatal("primary recorded no catch-up bytes")
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("snap-%03d", i)
		if v, ok := back.Store().Get([]byte(k)); !ok || string(v) != "v-"+k {
			t.Fatalf("backup key %s = %q, %v", k, v, ok)
		}
	}

	// Post-snapshot writes replicate by plain log replay.
	if err := c.Put([]byte("after"), []byte("snap")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "post-snapshot replication",
		func() bool { return back.LastApplied() >= uint64(n)+1 })
	if v, ok := back.Store().Get([]byte("after")); !ok || string(v) != "snap" {
		t.Fatalf("post-snapshot key = %q, %v", v, ok)
	}
}

func TestFailoverPromotesBackup(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
		_ = sc.UpdateShard(shard, addrs) //lint:allow statuserr -- route churn mid-failover is the scenario; a stale route self-heals on retry
	})

	const n = 30
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("pre-%03d", i)
		if err := sc.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	old := g.Primary()
	if old == nil {
		t.Fatal("no primary")
	}
	if err := old.Close(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}

	waitFor(t, 3*time.Second, "failover to a backup", func() bool {
		p := g.Primary()
		return p != nil && p != old
	})
	neu := g.Primary()
	if neu.Epoch() < 2 {
		t.Fatalf("new primary epoch = %d, want >= 2", neu.Epoch())
	}
	if got := coord.Counters().Get("repl.failovers"); got == 0 {
		t.Fatal("coordinator recorded no failover")
	}

	// Every acked write survives on the new primary, readable through
	// the redirected client.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("pre-%03d", i)
		v, ok, err := sc.Get([]byte(k))
		if err != nil || !ok || string(v) != "v-"+k {
			t.Fatalf("get %s after failover: %q, %v, %v", k, v, ok, err)
		}
	}
	// And new writes reach quorum on the surviving pair.
	if err := sc.Put([]byte("post"), []byte("failover")); err != nil {
		t.Fatalf("post-failover put: %v", err)
	}
}

// startPartitionableGroup registers a 1×3 group led by replica 0, the
// only replica armed with inj: a ReplPartitionPrimary there eats the
// first primary's heartbeats and no successor's.
func startPartitionableGroup(t *testing.T, coord *Coordinator, opts Options, inj *fault.Injector) *Group {
	t.Helper()
	g := &Group{Shard: 0}
	t.Cleanup(func() { _ = g.Close() })
	for id := 0; id < 3; id++ {
		o := opts
		if id == 0 {
			o.Faults = inj
		}
		r, err := NewReplica(0, id, 3, testConfig(), "127.0.0.1:0", "127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		g.Replicas = append(g.Replicas, r)
	}
	if err := coord.Register(0, g.Members(), 0); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPartitionedPrimaryIsFenced(t *testing.T) {
	// Only replica 0 gets the partition injector: its coordinator
	// heartbeats are all eaten, but its data path still works — the
	// classic partitioned-primary hazard.
	inj := fault.NewInjector(7)
	inj.Set(fault.ReplPartitionPrimary, 1.0)

	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	g := startPartitionableGroup(t, coord, fastOpts(), inj)
	r0 := g.Replicas[0]

	// The lease can never be renewed, so a backup takes over...
	waitFor(t, 3*time.Second, "failover away from the partitioned primary", func() bool {
		p := g.Primary()
		return p != nil && p != r0 && p.Epoch() >= 2
	})
	// ...and the old primary is fenced by the higher epoch the moment
	// the new primary's stream reaches it.
	waitFor(t, 3*time.Second, "old primary demoted by epoch fencing", func() bool {
		return r0.Role() == RoleBackup && r0.Epoch() >= 2
	})
	if got := r0.Counters().Get("repl.demotions"); got == 0 {
		t.Fatal("old primary recorded no demotion")
	}

	// Clients talking to the deposed primary get a redirect, not stale
	// acks.
	if _, rejected := rejection(t, r0, kvdirect.Op{Code: kvdirect.OpPut, Key: []byte("fenced"), Value: []byte("x")}); !rejected {
		t.Fatal("deposed primary accepted a put")
	}
}

func TestDropEntryResync(t *testing.T) {
	inj := fault.NewInjector(11)
	inj.Set(fault.ReplDropEntry, 0.2)
	opts := fastOpts()
	opts.Faults = inj

	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	const n = 150
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("drop-%03d", i)
		if err := sc.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	prim := g.Primary()
	if prim.Counters().Get("repl.entries_dropped") == 0 {
		t.Skip("fault schedule dropped nothing at p=0.2; seed needs revisiting")
	}
	// Every drop opened a gap; every gap forced a resync; despite that,
	// all writes reached quorum and both backups converge losslessly.
	want := prim.LastApplied()
	for _, r := range g.Replicas {
		r := r
		waitFor(t, 5*time.Second, fmt.Sprintf("replica %d convergence", r.ID()),
			func() bool { return r.LastApplied() >= want })
	}
	resyncs := uint64(0)
	for _, r := range g.Replicas {
		resyncs += r.Counters().Get("repl.gap_resyncs")
	}
	if resyncs == 0 {
		t.Fatal("entries were dropped but no resync was recorded")
	}
	for _, r := range g.Replicas {
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("drop-%03d", i)
			if v, ok := r.Store().Get([]byte(k)); !ok || string(v) != "v-"+k {
				t.Fatalf("replica %d key %s = %q, %v", r.ID(), k, v, ok)
			}
		}
	}
}

func TestStatsExposesReplicationSection(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 2, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := kvnet.Dial(g.Primary().ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"repl_role=primary", "repl_epoch=", "repl_seq="} {
		if !contains(text, want) {
			t.Fatalf("stats missing %q:\n%s", want, text)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
