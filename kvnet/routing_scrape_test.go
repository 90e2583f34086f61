// Package kvnet_test, because the test drives kvrepl, which imports kvnet.
package kvnet_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

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
