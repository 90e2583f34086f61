// Failover chaos: a 3-replica group (quorum 2) loses its primary in
// the middle of a concurrent write load. The contract under test:
//
//   - zero acked writes lost — every Put acknowledged before, during or
//     after the kill is readable afterwards, at its exact version;
//   - clients resume within the retry budget — after the coordinator
//     promotes a backup and republishes routes, every worker's next
//     write lands without the caller doing anything;
//   - the surviving replicas converge to identical applied frontiers.
//
// The file lives in package kvnet_test because it drives kvrepl, which
// itself imports kvnet.
package kvnet_test

import (
	"encoding/binary"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// failoverValue embeds the version redundantly so a torn or stale read
// is distinguishable from a lost one.
func failoverValue(v uint64) []byte {
	out := make([]byte, 16)
	binary.LittleEndian.PutUint64(out, v)
	binary.LittleEndian.PutUint64(out[8:], ^v)
	return out
}

func parseFailoverValue(val []byte) (uint64, error) {
	if len(val) != 16 {
		return 0, fmt.Errorf("length %d, want 16", len(val))
	}
	v := binary.LittleEndian.Uint64(val)
	if binary.LittleEndian.Uint64(val[8:]) != ^v {
		return 0, fmt.Errorf("redundant copy mismatch for version %d", v)
	}
	return v, nil
}

func TestChaosFailoverNoAckedWriteLost(t *testing.T) {
	coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{
		LeaseTimeout: 80 * time.Millisecond,
		CheckEvery:   15 * time.Millisecond,
	})
	defer coord.Close()
	g, err := kvrepl.StartGroup(coord, 0, 3, kvdirect.Config{MemoryBytes: 8 << 20}, kvrepl.Options{
		Quorum:         2,
		HeartbeatEvery: 5 * time.Millisecond,
		StreamTimeout:  500 * time.Millisecond,
		AckTimeout:     2 * time.Second,
		Seed:           42,
	})
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

	oldPrimary := g.Primary()
	if oldPrimary == nil {
		t.Fatal("no initial primary")
	}

	const (
		workers         = 4
		keysPerWorker   = 8
		writesPerWorker = 100
	)
	var (
		wg        sync.WaitGroup
		totalPuts atomic.Uint64
		mu        sync.Mutex
		acked     = map[string]uint64{} // key -> highest acknowledged version
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writesPerWorker; i++ {
				key := fmt.Sprintf("fw-%d-%d", w, i%keysPerWorker)
				version := uint64(i/keysPerWorker + 1)
				// A Put that dies with the primary is ambiguous (the kill
				// can race the quorum ack); Puts are idempotent, so the
				// worker retries the same version until it is truly acked.
				// Only then does it count — that is the ack the test must
				// never lose.
				deadline := time.Now().Add(5 * time.Second)
				for {
					err := sc.Put([]byte(key), failoverValue(version))
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("worker %d: put %s v%d never landed: %v", w, key, version, err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
				mu.Lock()
				if acked[key] < version {
					acked[key] = version
				}
				mu.Unlock()
				totalPuts.Add(1)
			}
		}(w)
	}

	// Kill the primary once the load is well underway.
	killAt := uint64(workers * writesPerWorker / 3)
	for totalPuts.Load() < killAt {
		time.Sleep(time.Millisecond)
	}
	if err := oldPrimary.Close(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}
	wg.Wait()

	if coord.Counters().Get("repl.failovers") == 0 {
		t.Fatal("coordinator never failed over")
	}
	newPrimary := g.Primary()
	if newPrimary == nil || newPrimary == oldPrimary {
		t.Fatal("no new primary after the kill")
	}
	if newPrimary.Epoch() < 2 {
		t.Fatalf("new primary epoch = %d, want >= 2", newPrimary.Epoch())
	}

	// Reads converge: the surviving pair reaches the same applied
	// frontier...
	want := newPrimary.LastApplied()
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, r := range g.Replicas {
			if r.Alive() && r.LastApplied() < want {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("surviving replicas did not converge")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// ...and zero acked writes were lost: every key reads back at
	// exactly its highest acknowledged version, through the client and
	// on every surviving replica.
	for key, version := range acked {
		val, found, err := sc.Get([]byte(key))
		if err != nil || !found {
			t.Fatalf("acked key %s lost after failover (found=%v err=%v)", key, found, err)
		}
		got, perr := parseFailoverValue(val)
		if perr != nil {
			t.Fatalf("key %s: corrupt value: %v", key, perr)
		}
		if got != version {
			t.Fatalf("key %s: read version %d, acked through %d", key, got, version)
		}
		for _, r := range g.Replicas {
			if !r.Alive() {
				continue
			}
			rv, ok := r.Store().Get([]byte(key))
			if !ok {
				t.Fatalf("replica %d: acked key %s missing", r.ID(), key)
			}
			if gv, gerr := parseFailoverValue(rv); gerr != nil || gv != version {
				t.Fatalf("replica %d: key %s version %d (%v), acked %d", r.ID(), key, gv, gerr, version)
			}
		}
	}

	// Clients keep working after the dust settles.
	if err := sc.Put([]byte("post-failover"), failoverValue(1)); err != nil {
		t.Fatalf("post-failover put: %v", err)
	}
}

// TestShardedRoutingCountersReachTheScrape: the routing layer's
// counters live in the registry the client hands out, so a NotPrimary
// redirect and a coordinator republish are visible in the snapshot and
// on /metrics — nothing is counted where a scrape cannot see it.
func TestShardedRoutingCountersReachTheScrape(t *testing.T) {
	coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{})
	defer coord.Close()
	g, err := kvrepl.StartGroup(coord, 0, 3, kvdirect.Config{MemoryBytes: 4 << 20}, kvrepl.Options{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	// Routing that starts at a backup: the first write is rejected with
	// a hint and follows it to the primary. The backup learns the hint
	// from the primary's stream hello, so wait until it has one.
	addrs := g.ShardAddrs()
	backup, err := kvnet.Dial(addrs.Backups[0])
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		// A table of one follows the hint like any other: the first call
		// that lands is the first the backup answered with one.
		if _, _, err := backup.Get([]byte("k")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup never learned its primary's address")
		}
	}
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{{
		Primary: addrs.Backups[0],
		Backups: append([]string{addrs.Primary}, addrs.Backups[1:]...),
	}}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if err := sc.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := sc.UpdateShard(0, addrs); err != nil {
		t.Fatal(err)
	}

	snap := sc.Telemetry().Snapshot()
	rec := httptest.NewRecorder()
	kvnet.NewTelemetrySourcesHandler(kvnet.RegistrySource(sc.Telemetry())).
		ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, name := range []string{"sharded.redirects", "sharded.route_updates"} {
		if snap.Counters[name] == 0 {
			t.Errorf("%s missing from the client's snapshot: %v", name, snap.Counters)
		}
		prom := "kvd_" + strings.ReplaceAll(name, ".", "_") + " 1\n"
		if !strings.Contains(rec.Body.String(), prom) {
			t.Errorf("/metrics lacks %q:\n%s", prom, rec.Body)
		}
	}
}
