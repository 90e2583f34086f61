package kvnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"kvdirect"
	"kvdirect/internal/workload"
)

// TestScanSingleClient: ordered scans and cursor paging through one
// networked client.
func TestScanSingleClient(t *testing.T) {
	s, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
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

// TestYCSBEEndToEnd: the real YCSB-E mix (95% ordered scans of uniform
// 1..100 length, 5% inserts) through the wire protocol, concurrent
// clients included, with index accesses charged to the model.
func TestYCSBEEndToEnd(t *testing.T) {
	s, err := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
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
	// The first scan built the index; the inserts after it were mirrored.
	st := s.Stats()
	if st.Ordered.Seeks == 0 || st.Ordered.Visited == 0 || st.Ordered.Keys != st.Keys {
		t.Fatalf("index accesses not charged, or the index missed a key (table holds %d): %+v", st.Keys, st.Ordered)
	}
	t.Logf("YCSB-E: %d scans returned %d entries; index: %d seeks, %d visited",
		scans, scanned, st.Ordered.Seeks, st.Ordered.Visited)
}
