package kvnet

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/workload"
)

// startScanShards brings up n independent single-store servers (one per
// simulated NIC) and returns a sharded client over them.
func startScanShards(t *testing.T, n int) ([]*kvdirect.Store, *Client) {
	t.Helper()
	stores := make([]*kvdirect.Store, n)
	addrs := make([]string, n)
	for i := range stores {
		s, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve(s, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		stores[i] = s
		addrs[i] = srv.Addr()
	}
	sc, err := DialShards(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	return stores, sc
}

// TestScanSingleClient: ordered scans and cursor paging through one
// networked client.
func TestScanSingleClient(t *testing.T) {
	s, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 40
	for i := 0; i < n; i++ {
		if err := c.Put([]byte(fmt.Sprintf("net-%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	entries, cursor, err := c.ScanPage([]byte("net-"), 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 15 || string(cursor) != "net-15" {
		t.Fatalf("page: %d entries, cursor %q", len(entries), cursor)
	}
	all, err := c.Scan([]byte("net-"), n+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("full scan returned %d, want %d", len(all), n)
	}
	for i, e := range all {
		want := fmt.Sprintf("net-%02d", i)
		if string(e.Key) != want || string(e.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("entry %d: %q=%q, want %q", i, e.Key, e.Value, want)
		}
	}
}

// scanModelCheck verifies one sharded scan page against the model: keys
// globally sorted, values exact, no phantoms, no misses in range.
func scanModelCheck(t *testing.T, model map[string]string, start string, limit int,
	entries []kvdirect.ScanEntry, cursor []byte) {
	t.Helper()
	var want []string
	for k := range model {
		if k >= start {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	wantCursor := ""
	if len(want) > limit {
		wantCursor = want[limit]
		want = want[:limit]
	}
	if len(entries) != len(want) {
		t.Fatalf("scan(%q,%d): %d entries, want %d", start, limit, len(entries), len(want))
	}
	for i, e := range entries {
		if string(e.Key) != want[i] {
			t.Fatalf("scan(%q,%d): entry %d is %q, want %q", start, limit, i, e.Key, want[i])
		}
		if string(e.Value) != model[want[i]] {
			t.Fatalf("scan(%q,%d): %q = %q, want %q", start, limit, e.Key, e.Value, model[want[i]])
		}
	}
	if string(cursor) != wantCursor {
		t.Fatalf("scan(%q,%d): cursor %q, want %q", start, limit, cursor, wantCursor)
	}
}

// TestScanDifferentialSharded: the differential property test through
// the sharded networked client — keys hash-partitioned across 3 shards,
// scans k-way merged back into one globally ordered stream.
func TestScanDifferentialSharded(t *testing.T) {
	_, sc := startScanShards(t, 3)
	rng := rand.New(rand.NewSource(23))
	model := map[string]string{}
	key := func() string { return fmt.Sprintf("sd-%03d", rng.Intn(300)) }

	for i := 0; i < 1200; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // put
			k, v := key(), fmt.Sprintf("val-%d", i)
			if err := sc.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 4, 5: // delete
			k := key()
			if _, err := sc.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		default: // one merged page
			start, limit := key(), 1+rng.Intn(30)
			entries, cursor, err := sc.ScanPage([]byte(start), limit)
			if err != nil {
				t.Fatal(err)
			}
			scanModelCheck(t, model, start, limit, entries, cursor)
		}
	}

	// Full paged walk: the cursor loop must reproduce the whole model.
	all, err := sc.Scan(nil, len(model)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(model) {
		t.Fatalf("full walk: %d keys, want %d", len(all), len(model))
	}
	for i := 1; i < len(all); i++ {
		if bytes.Compare(all[i-1].Key, all[i].Key) >= 0 {
			t.Fatalf("merged walk out of order: %q then %q", all[i-1].Key, all[i].Key)
		}
	}
}

// TestChaosScanDifferential: the same differential contract with network
// faults injected on every shard. Scans are idempotent, so the client's
// retry machinery must absorb resets, truncations and corrupt frames
// without ever surfacing an unordered, phantom or short page.
func TestChaosScanDifferential(t *testing.T) {
	const nShards = 2
	stores := make([]*kvdirect.Store, nShards)
	injs := make([]*fault.Injector, nShards)
	addrs := make([]string, nShards)
	for i := range stores {
		inj := fault.NewInjector(int64(301 + i))
		s, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := ServeOptions(s, "127.0.0.1:0", ServerOptions{
			ReadIdleTimeout: 30 * time.Second,
			WriteTimeout:    2 * time.Second,
			Faults:          inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		stores[i], injs[i], addrs[i] = s, inj, srv.Addr()
	}
	shardAddrs := make([]ShardAddrs, nShards)
	for i, a := range addrs {
		shardAddrs[i] = ShardAddrs{Primary: a}
	}
	sc, err := DialReplicaShards(shardAddrs, Options{
		ReadTimeout:    2 * time.Second,
		WriteTimeout:   2 * time.Second,
		MaxRetries:     8,
		RetryBaseDelay: time.Millisecond,
		RetryMaxDelay:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })

	// Preload before the faults so the write path stays deterministic.
	rng := rand.New(rand.NewSource(29))
	model := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("cs-%03d", i)
		v := fmt.Sprintf("val-%d", i)
		if err := sc.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[k] = v
	}
	for _, inj := range injs {
		inj.Set(fault.NetReset, 0.02).
			Set(fault.NetTruncateFrame, 0.02).
			Set(fault.NetCorruptFrame, 0.03)
	}
	for i := 0; i < 150; i++ {
		start := fmt.Sprintf("cs-%03d", rng.Intn(220))
		limit := 1 + rng.Intn(25)
		entries, cursor, err := sc.ScanPage([]byte(start), limit)
		if err != nil {
			t.Fatal(err) // retries exhausted — the schedule is survivable by design
		}
		scanModelCheck(t, model, start, limit, entries, cursor)
	}
	var injected uint64
	for _, inj := range injs {
		injected += inj.Total()
	}
	if injected == 0 {
		t.Fatal("fault schedule fired nothing — chaos scan test vacuous")
	}
}

// TestYCSBEEndToEnd: the real YCSB-E mix (95% ordered scans of uniform
// 1..100 length, 5% inserts) through the wire protocol, concurrent
// clients included, with index accesses charged to the model.
func TestYCSBEEndToEnd(t *testing.T) {
	s, err := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		initialKeys = 400
		clients     = 3
		opsPerCl    = 300
		keySize     = 16
	)
	// Preload ids [0, initialKeys) the way kvdload does.
	loader, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	pre := workload.New(workload.Config{Keys: initialKeys, KeySize: keySize, ValSize: 32, Seed: 1})
	for i := uint64(0); i < initialKeys; i++ {
		if err := loader.Put(pre.KeyBytes(i)[:keySize], pre.ValueBytes(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := loader.Close(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	var mu sync.Mutex
	scans, scanned := 0, 0
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			pg := workload.NewPreset(workload.YCSBE, initialKeys, workload.Config{
				KeySize: keySize, ValSize: 32, Seed: int64(100 + cl),
			})
			gen := pg.Generator()
			localScans, localScanned := 0, 0
			for i := 0; i < opsPerCl; i++ {
				op := pg.Next()
				key := gen.KeyBytes(op.KeyID)[:keySize]
				switch op.Kind {
				case workload.Insert:
					if err := c.Put(key, gen.ValueBytes(op.KeyID, 1)); err != nil {
						errCh <- err
						return
					}
				case workload.Scan:
					if op.ScanLen < 1 || op.ScanLen > 100 {
						errCh <- fmt.Errorf("scan length %d outside [1,100]", op.ScanLen)
						return
					}
					entries, err := c.Scan(key, op.ScanLen)
					if err != nil {
						errCh <- err
						return
					}
					for j := 1; j < len(entries); j++ {
						if bytes.Compare(entries[j-1].Key, entries[j].Key) >= 0 {
							errCh <- fmt.Errorf("YCSB-E scan unordered at %d", j)
							return
						}
					}
					localScans++
					localScanned += len(entries)
				default:
					errCh <- fmt.Errorf("unexpected op kind %d in YCSB-E", op.Kind)
					return
				}
			}
			mu.Lock()
			scans += localScans
			scanned += localScanned
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if scans == 0 || scanned == 0 {
		t.Fatalf("YCSB-E ran no scans (scans=%d entries=%d)", scans, scanned)
	}
	st := s.Stats()
	if st.Ordered.Seeks == 0 || st.Ordered.Visited == 0 {
		t.Fatalf("index accesses not charged: %+v", st.Ordered)
	}
	t.Logf("YCSB-E: %d scans returned %d entries; index: %d seeks, %d visited",
		scans, scanned, st.Ordered.Seeks, st.Ordered.Visited)
}
