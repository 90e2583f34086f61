package kvgw

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// TestTenantKeyIsolation: two tenants using byte-identical keys never
// observe each other's values, CAS tokens, deletes or counters.
func TestTenantKeyIsolation(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})

	a := rawDial(t, fx.gateway.Addr())
	a.mustAuth("acme", "s3cret")
	b := rawDial(t, fx.gateway.Addr())
	b.mustAuth("globex", "")

	// Same key, different values per tenant.
	setA := a.roundTrip(frame(0x01, 1, 0, storeExtras(1), []byte("shared"), []byte("from-acme")))
	setB := b.roundTrip(frame(0x01, 1, 0, storeExtras(2), []byte("shared"), []byte("from-globex")))
	if setA.status != 0 || setB.status != 0 {
		t.Fatalf("sets: %#04x %#04x", setA.status, setB.status)
	}
	getA := a.roundTrip(frame(0x00, 2, 0, nil, []byte("shared"), nil))
	getB := b.roundTrip(frame(0x00, 2, 0, nil, []byte("shared"), nil))
	if string(getA.value) != "from-acme" || string(getB.value) != "from-globex" {
		t.Fatalf("cross-tenant bleed: %q / %q", getA.value, getB.value)
	}

	// A's CAS token must not authorize a write in B's namespace.
	if resp := b.roundTrip(frame(0x01, 3, getA.cas+1000, storeExtras(0), []byte("shared"), []byte("hijack"))); resp.status == 0 {
		t.Fatal("stale foreign CAS accepted")
	}

	// Deleting A's key leaves B's intact.
	if resp := a.roundTrip(frame(0x04, 4, 0, nil, []byte("shared"), nil)); resp.status != 0 {
		t.Fatalf("delete: %#04x", resp.status)
	}
	if resp := b.roundTrip(frame(0x00, 5, 0, nil, []byte("shared"), nil)); string(resp.value) != "from-globex" {
		t.Fatalf("neighbor delete leaked: %+v", resp)
	}

	// Counters with the same name advance independently.
	a.roundTrip(frame(0x05, 6, 0, counterExtras(0, 10, 0), []byte("ctr"), nil))
	b.roundTrip(frame(0x05, 6, 0, counterExtras(0, 500, 0), []byte("ctr"), nil))
	incA := a.roundTrip(frame(0x05, 7, 0, counterExtras(1, 0, 0), []byte("ctr"), nil))
	if got := bigU64(incA.value); got != 11 {
		t.Fatalf("acme counter = %d, want 11", got)
	}
	incB := b.roundTrip(frame(0x05, 7, 0, counterExtras(1, 0, 0), []byte("ctr"), nil))
	if got := bigU64(incB.value); got != 501 {
		t.Fatalf("globex counter = %d, want 501", got)
	}
}

func bigU64(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// TestTenantScanBounding: a tenant's ordered scan is bounded to its
// prefix — it starts at the namespace floor and stops at the namespace
// edge even when neighbors sort immediately before and after it.
func TestTenantScanBounding(t *testing.T) {
	// Names chosen so the middle tenant's namespace is lexicographically
	// wedged between the other two ("aa/" < "ab/" < "ac/").
	cfg := RegistryConfig{Tenants: []TenantConfig{
		{Name: "aa"}, {Name: "ab"}, {Name: "ac"},
	}}
	fx := startGateway(t, cfg, Options{})

	for _, name := range []string{"aa", "ab", "ac"} {
		rc := rawDial(t, fx.gateway.Addr())
		rc.mustAuth(name, "")
		for i := 0; i < 8; i++ {
			key := []byte(fmt.Sprintf("k%02d", i))
			val := []byte(name)
			if resp := rc.roundTrip(frame(0x01, uint32(i), 0, storeExtras(0), key, val)); resp.status != 0 {
				t.Fatalf("%s set %d: %#04x", name, i, resp.status)
			}
		}
	}

	mid, _ := fx.gateway.Tenants().Lookup("ab")
	// Page size 3 forces the scan across page boundaries, including the
	// final page whose cursor crosses out of the namespace into "ac/".
	entries, err := tenantScan(fx.server, mid, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("scan saw %d entries, want 8", len(entries))
	}
	for i, e := range entries {
		if want := fmt.Sprintf("k%02d", i); string(e.Key) != want {
			t.Fatalf("entry %d key = %q, want %q (prefix leak?)", i, e.Key, want)
		}
		if string(kvdirect.DecodeGwItem(e.Value).Payload) != "ab" {
			t.Fatalf("entry %d carries a foreign value", i)
		}
	}

	// A scan from past the last key returns nothing rather than walking
	// into the next tenant.
	entries, err = tenantScan(fx.server, mid, []byte("zzz"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("scan past namespace end returned %d entries", len(entries))
	}
}

// tenantScan enumerates a tenant's namespace from start over the native
// protocol, pageSize entries per ordered SCAN, with the tenant prefix
// stripped from each key. A page or cursor that walks past the prefix
// ends the scan rather than leaking into the next tenant.
func tenantScan(backend Backend, tenant *Tenant, start []byte, pageSize int) ([]kvdirect.ScanEntry, error) {
	prefix := tenant.Prefix()
	var out []kvdirect.ScanEntry
	for {
		op, err := kvdirect.ScanOp(tenant.Namespace(start), pageSize, nil)
		if err != nil {
			return nil, err
		}
		res, _, err := backend.DoTrace([]kvdirect.Op{op}, wire.TraceContext{})
		if err != nil {
			return nil, err
		}
		entries, cursor, err := kvdirect.DecodeScanResult(res[0])
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !bytes.HasPrefix(e.Key, prefix) {
				return out, nil
			}
			out = append(out, kvdirect.ScanEntry{Key: e.Key[len(prefix):], Value: e.Value})
		}
		if len(cursor) == 0 || !bytes.HasPrefix(cursor, prefix) {
			return out, nil
		}
		start = cursor[len(prefix):]
	}
}

// TestGatewayReplicaFailover: a gateway fronting a replicated shard
// keeps serving both tenants after the primary dies — at worst a brief
// window of TEMPORARY_FAILURE while the coordinator promotes a backup,
// and no tenant's data crosses into the other's namespace.
func TestGatewayReplicaFailover(t *testing.T) {
	coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{
		LeaseTimeout: 60 * time.Millisecond,
		CheckEvery:   10 * time.Millisecond,
	})
	defer coord.Close()
	opts := kvrepl.Options{
		Quorum:         2,
		HeartbeatEvery: 5 * time.Millisecond,
		StreamTimeout:  500 * time.Millisecond,
		AckTimeout:     2 * time.Second,
		Seed:           1,
	}
	g, err := kvrepl.StartGroup(coord, 0, 3, kvdirect.Config{MemoryBytes: 16 << 20}, opts)
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
		_ = sc.UpdateShard(shard, addrs) //lint:allow statuserr -- best-effort route refresh; stale routes retry
	})

	reg, err := NewRegistry(twoTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := Serve(sc, reg, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	a := rawDial(t, gw.Addr())
	a.mustAuth("acme", "s3cret")
	b := rawDial(t, gw.Addr())
	b.mustAuth("globex", "")

	if resp := a.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("acme-before"))); resp.status != 0 {
		t.Fatalf("pre-failover set: %#04x", resp.status)
	}
	if resp := b.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("globex-before"))); resp.status != 0 {
		t.Fatalf("pre-failover set: %#04x", resp.status)
	}

	// Kill the primary and drive writes until a backup takes over. A
	// stock memcache client treats TEMPORARY_FAILURE as retryable, so
	// the harness does too.
	old := g.Primary()
	_ = old.Close()
	deadline := time.Now().Add(5 * time.Second)
	opaque := uint32(100)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no successful write within 5s of primary death")
		}
		opaque++
		resp := a.roundTrip(frame(0x01, opaque, 0, storeExtras(0), []byte("k"), []byte("acme-after")))
		if resp.status == 0 {
			break
		}
		if resp.status != 0x0086 {
			t.Fatalf("failover window returned %#04x, want TEMPORARY_FAILURE", resp.status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if p := g.Primary(); p == nil || p == old {
		t.Fatal("write succeeded but no backup was promoted")
	}

	// Both tenants read their own post-failover state from the new
	// primary: replication carried the namespaced writes, isolated.
	getA := a.roundTrip(frame(0x00, 900, 0, nil, []byte("k"), nil))
	if string(getA.value) != "acme-after" {
		t.Fatalf("acme after failover: %q (status %#04x)", getA.value, getA.status)
	}
	getB := b.roundTrip(frame(0x00, 900, 0, nil, []byte("k"), nil))
	if string(getB.value) != "globex-before" {
		t.Fatalf("globex after failover: %q (status %#04x)", getB.value, getB.status)
	}
	// And a fresh write through the promoted primary still versions
	// deterministically: CAS from the read authorizes the next write.
	casSet := b.roundTrip(frame(0x01, 901, getB.cas, storeExtras(0), []byte("k"), []byte("globex-after")))
	if casSet.status != 0 {
		t.Fatalf("CAS on promoted primary: %#04x", casSet.status)
	}
}
