package kvrepl

import (
	"fmt"
	"testing"

	"kvdirect"
	"kvdirect/kvnet"
)

// TestScanRoutesToPrimary: in a replica group, backups reject scans with
// NotPrimary, and the client follows the redirect so scans always land on
// the primary.
func TestScanRoutesToPrimary(t *testing.T) {
	coord := NewCoordinator(CoordOptions{})
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, kvdirect.Config{MemoryBytes: 8 << 20}, Options{Quorum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	addrs := g.ShardAddrs()

	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{addrs}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i := 0; i < 20; i++ {
		if err := sc.Put([]byte(fmt.Sprintf("rp-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// A scan sent straight at a backup is rejected, not served stale.
	scan, err := kvdirect.ScanOp([]byte("rp-"), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Replicas {
		if _, rejected := rejection(t, r, scan); rejected == (r == g.Primary()) {
			t.Fatalf("replica %d (primary: %v): scan rejected = %v", r.ID(), r == g.Primary(), rejected)
		}
	}

	// A client whose routing *starts* at a backup must redirect
	// and still produce the full ordered result.
	misrouted, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{{
		Primary: addrs.Backups[0],
		Backups: append([]string{addrs.Primary}, addrs.Backups[1:]...),
	}}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer misrouted.Close()
	entries, err := misrouted.Scan([]byte("rp-"), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 20 {
		t.Fatalf("redirected scan returned %d entries, want 20", len(entries))
	}
	for i, e := range entries {
		if string(e.Key) != fmt.Sprintf("rp-%02d", i) {
			t.Fatalf("redirected scan out of order at %d: %q", i, e.Key)
		}
	}
	if misrouted.Counters().Get("sharded.redirects")+misrouted.Counters().Get("sharded.rotations") == 0 {
		t.Fatal("scan reached the primary without any redirect — misroute test vacuous")
	}
}
