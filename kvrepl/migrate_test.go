package kvrepl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/kvnet"
)

// startMigrationPair builds a registered 3-replica source group with
// writes applied, plus an unregistered destination group, and a sharded
// client wired to the coordinator's routes.
func startMigrationPair(t *testing.T, coord *Coordinator, opts Options, writes int) (*Group, *Group, *kvnet.Client) {
	t.Helper()
	src, err := StartGroup(coord, 0, 3, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = src.Close() })

	destCfg := testConfig()
	destCfg.Seed = 7777
	destOpts := opts
	destOpts.Seed = opts.Seed + 100
	dest, err := newGroup(0, 3, destCfg, destOpts, "127.0.0.1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dest.Close() })

	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{src.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) { _ = sc.UpdateShard(shard, addrs) }) //lint:allow statuserr -- route churn mid-failover is the scenario; a stale route self-heals on retry

	for i := 0; i < writes; i++ {
		k := fmt.Sprintf("mig-%04d", i)
		if err := sc.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
	return src, dest, sc
}

func TestMigrateShardBasic(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	opts := fastOpts()
	opts.LogWindow = 64 // writes outrun the window: the transfer must snapshot first
	const writes = 300
	src, dest, sc := startMigrationPair(t, coord, opts, writes)

	oldPrim := src.Primary()
	if oldPrim == nil {
		t.Fatal("no source primary")
	}
	frontier := oldPrim.LastApplied()

	mig, err := coord.MigrateShard(0, dest.Target())
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatalf("migration failed: %v", err)
	}

	st := mig.Status()
	if st.State != "done" {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.SnapshotBytes == 0 {
		t.Fatal("expected a snapshot transfer with LogWindow < writes")
	}
	if st.DestSeq < frontier {
		t.Fatalf("destination frontier %d < source frontier %d", st.DestSeq, frontier)
	}
	if st.CutoverEpoch != 2 {
		t.Fatalf("cutover epoch = %d, want 2", st.CutoverEpoch)
	}

	newPrim := dest.Primary()
	if newPrim == nil {
		t.Fatal("destination has no primary after cutover")
	}
	if newPrim.Epoch() != 2 {
		t.Fatalf("new primary epoch = %d, want 2", newPrim.Epoch())
	}

	// The fenced old primary redirects straggler clients to the new one.
	hint, rejected := rejection(t, oldPrim, kvdirect.Op{Code: kvdirect.OpPut, Key: []byte("stale-route"), Value: []byte("x")})
	if !rejected {
		t.Fatal("fenced source accepted a write")
	}
	if hint != newPrim.ClientAddr() {
		t.Fatalf("fence hint = %q, want new primary %q", hint, newPrim.ClientAddr())
	}

	// Every write survives the move, via the (re-routed) client and on
	// the new primary's own store.
	for i := 0; i < writes; i++ {
		k := fmt.Sprintf("mig-%04d", i)
		v, found, err := sc.Get([]byte(k))
		if err != nil || !found || string(v) != "v-"+k {
			t.Fatalf("key %s after migration: %q found=%v err=%v", k, v, found, err)
		}
		if v, ok := newPrim.Store().Get([]byte(k)); !ok || string(v) != "v-"+k {
			t.Fatalf("new primary missing key %s (got %q, %v)", k, v, ok)
		}
	}

	// Writes keep flowing — onto the new group, not the old one.
	if err := sc.Put([]byte("post-migration"), []byte("y")); err != nil {
		t.Fatalf("post-migration put: %v", err)
	}
	if _, ok := newPrim.Store().Get([]byte("post-migration")); !ok {
		t.Fatal("post-migration write did not land on the new group")
	}
	if _, ok := oldPrim.Store().Get([]byte("post-migration")); ok {
		t.Fatal("post-migration write leaked to the fenced old group")
	}

	if got := coord.Counters().Get("repl.migrations_completed"); got != 1 {
		t.Fatalf("repl.migrations_completed = %d, want 1", got)
	}
	migs := coord.Migrations()
	if len(migs) != 1 || migs[0].Shard != 0 || migs[0].State != "done" {
		t.Fatalf("Migrations() = %+v, want one done entry for shard 0", migs)
	}
	if migs[0].DurationNs <= 0 {
		t.Fatal("migration duration not recorded")
	}
}

func TestMigrateShardUnderLoad(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	_, dest, sc := startMigrationPair(t, coord, fastOpts(), 50)

	// Writers hammer the shard while it moves; every acked version must
	// survive on the destination.
	const workers, perWorker = 3, 150
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]int{}
	)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("load-%d-%d", w, i%10)
				version := i/10 + 1
				deadline := time.Now().Add(5 * time.Second)
				for {
					if err := sc.Put([]byte(key), []byte(fmt.Sprintf("v%d", version))); err == nil {
						break
					} else if time.Now().After(deadline) {
						t.Errorf("worker %d: put %s v%d never landed: %v", w, key, version, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
				mu.Lock()
				if acked[key] < version {
					acked[key] = version
				}
				mu.Unlock()
				select {
				case <-stop:
				default:
					time.Sleep(200 * time.Microsecond) // keep the tail alive during the transfer
				}
			}
		}(w)
	}

	mig, err := coord.MigrateShard(0, dest.Target())
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatalf("migration under load failed: %v", err)
	}
	close(stop)
	wg.Wait()

	newPrim := dest.Primary()
	if newPrim == nil {
		t.Fatal("destination has no primary")
	}
	for key, version := range acked {
		want := fmt.Sprintf("v%d", version)
		v, found, err := sc.Get([]byte(key))
		if err != nil || !found {
			t.Fatalf("acked key %s lost in migration (found=%v err=%v)", key, found, err)
		}
		got := 0
		if _, err := fmt.Sscanf(string(v), "v%d", &got); err != nil || got < version {
			t.Fatalf("key %s: read %q, acked through %s", key, v, want)
		}
		if _, ok := newPrim.Store().Get([]byte(key)); !ok {
			t.Fatalf("new primary missing acked key %s", key)
		}
	}
}

func TestMigrateShardValidation(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	src, dest, _ := startMigrationPair(t, coord, fastOpts(), 5)

	if _, err := coord.MigrateShard(9, dest.Target()); err == nil {
		t.Fatal("migrating an unregistered shard must fail")
	}
	if _, err := coord.MigrateShard(0, MigrationTarget{}); err == nil {
		t.Fatal("empty target must fail")
	}
	if _, err := coord.MigrateShard(0, MigrationTarget{Members: dest.Members(), Primary: 99}); err == nil {
		t.Fatal("target primary outside the member set must fail")
	}
	overlap := dest.Members()
	overlap[50] = src.Replicas[1] // already serves the shard
	if _, err := coord.MigrateShard(0, MigrationTarget{Members: overlap, Primary: 0}); err == nil {
		t.Fatal("target overlapping the current group must fail")
	}
}

// TestMembershipRejectsUnknownShard: a membership change — a migration's
// cutover is the only one a caller starts — on a shard the coordinator
// does not serve, or on a closed coordinator, is an error.
func TestMembershipRejectsUnknownShard(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	src, err := StartGroup(coord, 0, 1, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dest, err := newGroup(0, 1, testConfig(), fastOpts(), "127.0.0.1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dest.Close()
	if _, err := coord.MigrateShard(5, dest.Target()); err == nil {
		t.Fatal("MigrateShard on an unregistered shard succeeded")
	}
	coord.Close()
	if _, err := coord.MigrateShard(0, dest.Target()); err == nil {
		t.Fatal("MigrateShard on a closed coordinator succeeded")
	}
}

// TestBackupWindowEvictionSnapshotFallback pins down the catch-up
// contract when the log window has already evicted the tail a lagging
// backup needs: the primary falls back to a snapshot install instead of
// stalling, counts it, and the backup still converges.
func TestBackupWindowEvictionSnapshotFallback(t *testing.T) {
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

	prim.promote(1, nil)
	c, err := kvnet.Dial(prim.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50 // blows far past the 8-entry window before the backup joins
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	prim.promote(2, map[int]string{1: back.ReplAddr()}) // a new term with the backup in it
	waitFor(t, 2*time.Second, "lagging backup to converge via snapshot",
		func() bool { return back.LastApplied() >= prim.LastApplied() })
	if got := prim.Counters().Get("repl.snapshot_fallbacks"); got == 0 {
		t.Fatal("window eviction did not count a repl.snapshot_fallbacks")
	}
	if v, ok := back.Store().Get([]byte("k000")); !ok || string(v) != "v" {
		t.Fatalf("backup missing evicted-window key (got %q, %v)", v, ok)
	}

	// And the stream is live afterwards: new writes arrive as plain tail.
	// (Poll the frontier, not the store — Store is not safe to read
	// concurrently with the backup's apply loop.)
	if err := c.Put([]byte("post-snap"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "backup to apply post-snapshot tail",
		func() bool { return back.LastApplied() >= prim.LastApplied() })
	if _, ok := back.Store().Get([]byte("post-snap")); !ok {
		t.Fatal("backup missing post-snapshot write")
	}
}

// TestLearnerAckNeverMakesWriteDurable: a migration destination is a
// learner of the source primary, caught up by the loop that feeds its
// backups, but its acks never count toward a write's quorum. A 1×3
// source at Quorum 2 with both backups closed keeps migrating; PUTs
// parked on it while the learner ships the tail must each fail their
// quorum wait or, once the source is fenced, be redirected — and the
// source folds no ack into its quorum state (repl.acks) meanwhile.
func TestLearnerAckNeverMakesWriteDurable(t *testing.T) {
	inj := fault.NewInjector(5)
	opts := fastOpts()
	opts.SnapshotChunk = 256
	opts.Faults = inj
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	src, dest, _ := startMigrationPair(t, coord, opts, 100)
	prim := src.Primary()
	for _, r := range src.Replicas {
		if r != prim {
			_ = r.Close() // no voting ack can arrive any more
		}
	}

	const writers = 4
	var wg sync.WaitGroup
	var tries, oks atomic.Int64
	before := prim.LastApplied()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				res := doOne(t, prim, putOp(fmt.Sprintf("learner-%d-%d", w, i), "v"))
				tries.Add(1)
				if res.OK() {
					oks.Add(1)
				}
				if res.NotPrimary() {
					return // fenced: the source takes no more writes
				}
			}
		}(w)
	}
	waitFor(t, 2*time.Second, "every writer's PUT to park", func() bool { return prim.LastApplied() >= before+writers })
	acks := prim.Counters().Get("repl.acks")

	inj.Set(fault.ReplMigrateStall, 1) // 2 ms per learner message: the parked PUTs ride the snapshot and tail
	mig, err := coord.MigrateShard(0, dest.Target())
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatalf("migration failed: %v", err)
	}
	wg.Wait()
	if n := oks.Load(); n > 0 {
		t.Fatalf("%d of %d PUTs on a source without backups were acknowledged: a learner ack counted toward quorum", n, tries.Load())
	}
	if got := prim.Counters().Get("repl.acks"); got != acks {
		t.Fatalf("repl.acks moved %d → %d with no backup left: learner acks reached the quorum state", acks, got)
	}
	if st := mig.Status(); st.DestSeq < before+writers {
		t.Fatalf("destination frontier %d: the parked PUTs never reached the learner", st.DestSeq)
	}
}

// TestLearnerResyncsUnderDestCrash: the destination drops the learner's
// stream mid-apply now and then. The ordinary peerSync redial resumes
// from the frontier that survived, so Status().DestSeq only moves
// forward, and every redial is counted in Resyncs.
func TestLearnerResyncsUnderDestCrash(t *testing.T) {
	inj := fault.NewInjector(21)
	opts := fastOpts()
	opts.Faults = inj
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	src, dest, _ := startMigrationPair(t, coord, opts, 300) // all in the log: 300 entries on one stream
	frontier := src.Primary().LastApplied()

	inj.Set(fault.ReplDestCrash, 0.05)
	mig, err := coord.MigrateShard(0, dest.Target())
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for done := false; !done; {
		select {
		case <-mig.Done():
			done = true
		case <-time.After(time.Millisecond):
		}
		seq := mig.Status().DestSeq
		if seq < last {
			t.Fatalf("destination frontier went back from %d to %d", last, seq)
		}
		last = seq
	}
	inj.DisableAll()
	st := mig.Status()
	if err := mig.Err(); err != nil {
		t.Fatalf("migration failed: %v (status %+v)", err, st)
	}
	if st.DestSeq < frontier {
		t.Fatalf("destination frontier %d < source frontier %d", st.DestSeq, frontier)
	}
	if st.Resyncs == 0 {
		t.Fatalf("%d stream crashes injected, no learner redial counted", inj.Injected(fault.ReplDestCrash))
	}
	t.Logf("%d learner redials, %d crashes injected across every stream", st.Resyncs, inj.Injected(fault.ReplDestCrash))
}

// TestDoubleLeaseExpiryOneEpochBump is the coordinator double-failover
// race regression: two lease scans observing the same expired shard
// (e.g. a slow scan overlapping the next tick) must produce exactly one
// epoch bump and one route publish, not two competing promotions.
func TestDoubleLeaseExpiryOneEpochBump(t *testing.T) {
	// Park the background monitor so the test's explicit scans are the
	// only ones racing.
	coord := NewCoordinator(CoordOptions{LeaseTimeout: 30 * time.Millisecond, CheckEvery: time.Hour})
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var publishes atomic.Int64
	coord.OnRoute(func(int, kvnet.ShardAddrs) { publishes.Add(1) })
	publishes.Store(0) // OnRoute replays current routes; count only post-kill publishes

	prim := g.Primary()
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // let the lease lapse

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coord.checkLeases()
		}()
	}
	wg.Wait()

	if got := coord.Counters().Get("repl.failovers"); got != 1 {
		t.Fatalf("repl.failovers = %d, want exactly 1", got)
	}
	if got := publishes.Load(); got != 1 {
		t.Fatalf("route publishes = %d, want exactly 1", got)
	}
	newPrim := g.Primary()
	if newPrim == nil {
		t.Fatal("no new primary after double scan")
	}
	if newPrim.Epoch() != 2 {
		t.Fatalf("epoch = %d, want exactly 2 (one bump)", newPrim.Epoch())
	}
}

// TestAdoptPreservesEpoch covers coordinator replacement: the successor
// adopts the live primary's epoch instead of resetting it, so fencing
// keeps rejecting pre-restart stragglers.
func TestAdoptPreservesEpoch(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		coord.Close()
		t.Fatal(err)
	}
	defer g.Close()

	// Drive the group to epoch 2 via one failover, then lose the
	// coordinator.
	first := g.Primary()
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "failover to epoch 2",
		func() bool { p := g.Primary(); return p != nil && p.Epoch() == 2 })
	coord.Close()

	prim := g.Primary()
	members := map[int]*Replica{}
	for _, r := range g.Replicas {
		if r.Alive() {
			members[r.ID()] = r
		}
	}
	succ := NewCoordinator(fastCoord())
	defer succ.Close()
	if err := succ.Adopt(0, members, prim.ID()); err != nil {
		t.Fatal(err)
	}
	// Next failover continues the epoch sequence from the adopted value.
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "post-adopt failover to epoch 3",
		func() bool { p := g.Primary(); return p != nil && p != prim && p.Epoch() == 3 })
}
