package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kvdirect/internal/ordered"
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

// scanOnce scans s once, which builds its ordered index: from then on
// creates and deletes are mirrored into it.
func scanOnce(t *testing.T, s *Store) {
	t.Helper()
	if _, _, err := s.Scan(nil, 1); err != nil {
		t.Fatalf("first scan: %v", err)
	}
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
	scanOnce(t, s)
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
	scanOnce(t, s)
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

// TestScanAfterDumpLoad: Load restores the pairs without an index, and the
// restored store's first scan builds it from them.
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

// TestNoIndexUntilFirstScan: a store builds its ordered index on its
// first scan. Until then a create pays the hash table alone — an inline
// pair costs one bucket read and one bucket write, and no slab — and the
// index counters stay zero. The first scan returns every key; from then
// on creates and deletes are mirrored into the index.
func TestNoIndexUntilFirstScan(t *testing.T) {
	s := newScanStore(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("lazy-%03d", i)) }
	for i := 0; i < 100; i++ {
		mustPut(t, s, key(i), []byte("v"))
	}
	dmas := func(st Stats) (reads, writes uint64) {
		return st.Dispatch.DirectReads + st.Dispatch.CachedReads, st.Dispatch.DirectWrites + st.Dispatch.CachedWrites
	}
	before := s.Stats()
	mustPut(t, s, key(100), []byte("v"))
	after := s.Stats()
	r0, w0 := dmas(before)
	r1, w1 := dmas(after)
	if r1-r0 != 1 || w1-w0 != 1 || after.Slab.Allocs != before.Slab.Allocs {
		t.Errorf("unscanned inline create: %d reads, %d writes, %d slab allocs; want 1, 1, 0",
			r1-r0, w1-w0, after.Slab.Allocs-before.Slab.Allocs)
	}
	if after.Ordered != (ordered.Stats{}) {
		t.Errorf("unscanned store has index counters %+v", after.Ordered)
	}

	// The first scan goes through the wire path, which builds the index
	// the same way.
	param, err := wire.EncodeScanParam(200, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.Apply(wire.Request{Code: wire.OpScan, Value: param})
	if resp.Status != wire.StatusOK {
		t.Fatalf("first wire scan: status %d %s", resp.Status, resp.Value)
	}
	entries, cursor, err := wire.DecodeScanPage(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 101 || cursor != nil {
		t.Fatalf("first scan: %d entries, cursor %q; want 101, nil", len(entries), cursor)
	}
	for i, e := range entries {
		if !bytes.Equal(e.Key, key(i)) || string(e.Value) != "v" {
			t.Fatalf("entry %d: %q=%q, want %q", i, e.Key, e.Value, key(i))
		}
	}
	if st := s.Stats().Ordered; st.Keys != 101 || st.Inserts != 101 {
		t.Fatalf("built index: %+v, want 101 keys", st)
	}

	mustPut(t, s, []byte("lazy-050a"), []byte("v"))
	if !s.Delete(key(7)) {
		t.Fatal("Delete missed")
	}
	if st := s.Stats().Ordered; st.Keys != 101 || st.Inserts != 102 || st.Deletes != 1 {
		t.Errorf("index after a create and a delete: %+v", st)
	}
	page, _, err := s.Scan(key(5), 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range page {
		got = append(got, string(e.Key))
	}
	if want := "[lazy-005 lazy-006 lazy-008 lazy-009]"; fmt.Sprint(got) != want {
		t.Errorf("scan after mirrored ops: %v, want %s", got, want)
	}
}

// TestScanBuildOnFullStore: a store that never scanned is filled until
// creates fail. Its first scan cannot place the index and answers
// ErrFull (StatusFull on the wire), handing back every node it placed:
// free slab bytes are unchanged and the store stays unindexed. Once
// deletes make room, a scan builds the index and returns every key.
func TestScanBuildOnFullStore(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 1 << 20, HashIndexRatio: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	key := func(i int) []byte { return []byte(fmt.Sprintf("full-%06d", i)) }
	value := bytes.Repeat([]byte{'x'}, 40) // slab-held: past the inline threshold
	n := 0
	for failures := 0; failures < 64; n++ {
		if n > 1<<20 {
			t.Fatal("store never filled")
		}
		if err := s.Put(key(n), value); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("fill: %v", err)
			}
			failures++
		} else {
			failures = 0
		}
	}
	// Deleting one run of keys in 64 leaves room for the head and some
	// nodes, so the build places nodes before it runs out.
	for i := 0; i < n; i++ {
		if i%64 < 4 {
			s.Delete(key(i))
		}
	}
	free, allocs := s.alloc.FreeBytes(), s.Stats().Slab.Allocs
	if _, _, err := s.Scan(nil, 10); !errors.Is(err, ErrFull) {
		t.Fatalf("first scan of a full store: %v, want ErrFull", err)
	}
	param, err := wire.EncodeScanParam(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp := s.Apply(wire.Request{Code: wire.OpScan, Value: param}); resp.Status != wire.StatusFull {
		t.Fatalf("wire scan of a full store: status %d, want StatusFull", resp.Status)
	}
	if got := s.alloc.FreeBytes(); got != free {
		t.Errorf("free slab bytes %d after the failed builds, want %d", got, free)
	}
	if placed := s.Stats().Slab.Allocs - allocs; placed < 100 {
		t.Errorf("the failed builds placed %d nodes: the test wants a build that runs out partway", placed)
	}
	if st := s.Stats(); st.Ordered.Keys != 0 {
		t.Errorf("a failed build left %d index keys", st.Ordered.Keys)
	}

	want := map[string]bool{}
	for i := 0; i < n; i++ {
		if i%4 != 1 {
			s.Delete(key(i))
		} else if _, ok := s.Get(key(i)); ok {
			want[string(key(i))] = true
		}
	}
	entries, cursor, err := s.Scan(nil, n)
	if err != nil {
		t.Fatalf("scan after deletes: %v", err)
	}
	if len(entries) != len(want) || cursor != nil {
		t.Fatalf("scan after deletes: %d entries, cursor %q; want %d", len(entries), cursor, len(want))
	}
	for i, e := range entries {
		if !want[string(e.Key)] || (i > 0 && bytes.Compare(entries[i-1].Key, e.Key) >= 0) {
			t.Fatalf("entry %d: %q out of order or not stored", i, e.Key)
		}
	}
	if st := s.Stats(); st.Ordered.Keys != s.NumKeys() {
		t.Errorf("index holds %d keys, table %d", st.Ordered.Keys, s.NumKeys())
	}
	if err := s.Verify(); err != nil {
		t.Error(err)
	}
}
