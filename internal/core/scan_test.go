package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvdirect/internal/wire"
)

func newScanStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestScanCursorResume pages through the whole store and demands the
// concatenation equal one unbounded ordered walk, with no duplicates and
// no gaps across page boundaries.
func TestScanCursorResume(t *testing.T) {
	s := newScanStore(t)
	const n = 500
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("page-%04d", i*7%n)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var paged []string
	cursor := []byte(nil)
	pages := 0
	for {
		start := cursor
		entries, next, err := s.Scan(start, 33)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			paged = append(paged, string(e.Key))
		}
		pages++
		if next == nil {
			break
		}
		cursor = next
	}
	if pages < 2 {
		t.Fatalf("expected multiple pages, got %d", pages)
	}
	if len(paged) != n {
		t.Fatalf("paged walk returned %d keys, want %d", len(paged), n)
	}
	for i := 1; i < len(paged); i++ {
		if paged[i-1] >= paged[i] {
			t.Fatalf("page boundary broke order: %q then %q", paged[i-1], paged[i])
		}
	}
}

// TestScanSeesPipelinedWrites: scans flush the out-of-order engine, so
// writes submitted before the scan — including deferred atomic
// write-backs — are visible.
func TestScanSeesPipelinedWrites(t *testing.T) {
	s := newScanStore(t)
	for i := 0; i < 32; i++ {
		s.SubmitPut([]byte(fmt.Sprintf("pipe-%02d", i)), []byte("w"), nil)
	}
	entries, _, err := s.Scan([]byte("pipe-"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 32 {
		t.Fatalf("scan saw %d in-flight writes, want 32", len(entries))
	}
}

// TestScanChargesAccesses: a scan must cost counted index DMAs — seeks
// and node visits show up in the ordered stats and the memory counters.
func TestScanChargesAccesses(t *testing.T) {
	s := newScanStore(t)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("chg-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Ordered.Keys != 100 || st.Ordered.Inserts != 100 {
		t.Fatalf("index not tracking inserts: %+v", st.Ordered)
	}
	memBefore := s.Stats().Mem
	if _, _, err := s.Scan([]byte("chg-"), 50); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Ordered.Visited < 50 {
		t.Fatalf("scan visited %d nodes, want >= 50", after.Ordered.Visited)
	}
	if after.Mem.Reads <= memBefore.Reads {
		t.Fatal("scan issued no counted memory reads")
	}
}

// TestScanIndexCoherentWithDeletes: deletes (direct and via wire Apply)
// remove keys from the index too — no phantom keys in later scans.
func TestScanIndexCoherentWithDeletes(t *testing.T) {
	s := newScanStore(t)
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("coh-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i += 2 {
		resp := s.Apply(wire.Request{Code: wire.OpDelete, Key: []byte(fmt.Sprintf("coh-%02d", i))})
		if resp.Status != wire.StatusOK {
			t.Fatalf("wire delete failed: %d", resp.Status)
		}
	}
	entries, _, err := s.Scan([]byte("coh-"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("scan found %d keys after deletes, want 10", len(entries))
	}
	for _, e := range entries {
		var i int
		fmt.Sscanf(string(e.Key), "coh-%02d", &i)
		if i%2 == 0 {
			t.Fatalf("phantom deleted key %q in scan", e.Key)
		}
	}
	st := s.Stats()
	if st.Ordered.Keys != uint64(s.NumKeys()) {
		t.Fatalf("index has %d keys, table has %d", st.Ordered.Keys, s.NumKeys())
	}
}

// TestScanWireApply: the full OpScan wire path — parameter decode, paged
// response encode, cursor continuation.
func TestScanWireApply(t *testing.T) {
	s := newScanStore(t)
	for i := 0; i < 30; i++ {
		if err := s.Put([]byte(fmt.Sprintf("wire-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	param, err := wire.EncodeScanParam(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.Apply(wire.Request{Code: wire.OpScan, Key: []byte("wire-"), Value: param})
	if resp.Status != wire.StatusOK {
		t.Fatalf("scan failed: %s", resp.Value)
	}
	entries, cursor, err := wire.DecodeScanPage(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 12 {
		t.Fatalf("page has %d entries, want 12", len(entries))
	}
	if string(cursor) != "wire-12" {
		t.Fatalf("cursor %q, want %q", cursor, "wire-12")
	}
	// Resume from the cursor: the param cursor overrides the start key.
	param, err = wire.EncodeScanParam(100, cursor)
	if err != nil {
		t.Fatal(err)
	}
	resp = s.Apply(wire.Request{Code: wire.OpScan, Key: []byte("wire-"), Value: param})
	if resp.Status != wire.StatusOK {
		t.Fatalf("resume failed: %s", resp.Value)
	}
	rest, cursor, err := wire.DecodeScanPage(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 18 || cursor != nil {
		t.Fatalf("resume page has %d entries (cursor %q), want 18 exhausted", len(rest), cursor)
	}
	if string(rest[0].Key) != "wire-12" {
		t.Fatalf("resume started at %q, want wire-12", rest[0].Key)
	}
	// Malformed parameter is an error, not a panic.
	resp = s.Apply(wire.Request{Code: wire.OpScan, Key: []byte("wire-")})
	if resp.Status != wire.StatusError {
		t.Fatalf("empty scan param: status %d, want error", resp.Status)
	}
}

// TestScanAfterDumpLoad: Load replays PUTs through the indexed executor,
// so a restored snapshot has a fully rebuilt ordered index.
func TestScanAfterDumpLoad(t *testing.T) {
	src := newScanStore(t)
	for i := 0; i < 64; i++ {
		if err := src.Put([]byte(fmt.Sprintf("snap-%02d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := src.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	dst := newScanStore(t)
	if _, err := dst.Load(&buf); err != nil {
		t.Fatal(err)
	}
	entries, _, err := dst.Scan([]byte("snap-"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 64 {
		t.Fatalf("restored store scans %d keys, want 64", len(entries))
	}
	for i, e := range entries {
		if string(e.Key) != fmt.Sprintf("snap-%02d", i) {
			t.Fatalf("restored scan out of order at %d: %q", i, e.Key)
		}
	}
}

// TestScanBadLimit: non-positive limits are rejected.
func TestScanBadLimit(t *testing.T) {
	s := newScanStore(t)
	if _, _, err := s.Scan(nil, 0); err != ErrBadScanLimit {
		t.Fatalf("limit 0: %v", err)
	}
}

// TestScanDisabledIndex: NoOrderedIndex restores the paper's hash-only
// data path — writes pay no index DMAs and scans fail explicitly.
func TestScanDisabledIndex(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 16 << 20, NoOrderedIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Scan(nil, 10); err != ErrNoOrderedIndex {
		t.Fatalf("scan on disabled index: %v", err)
	}
	st := s.Stats()
	if st.Ordered.Inserts != 0 || st.Ordered.Keys != 0 {
		t.Fatalf("disabled index tracked writes: %+v", st.Ordered)
	}
	// The wire path degrades to a status error, not a panic.
	param, err := wire.EncodeScanParam(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.Apply(wire.Request{Code: wire.OpScan, Value: param})
	if resp.Status != wire.StatusError {
		t.Fatalf("wire scan on disabled index: status %d", resp.Status)
	}
}
