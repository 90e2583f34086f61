package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"kvdirect/internal/hashtable"
	"kvdirect/internal/ooo"
	"kvdirect/internal/ordered"
	"kvdirect/internal/wire"
)

// TestIndexUpkeepOnlyOnCreateAndDelete pins what each mutation charges the
// ordered index once a scan has built it: nothing for an overwrite or an
// atomic's write-back onto an existing key, one insert (and its seek) for
// a create, one seek for a delete.
func TestIndexUpkeepOnlyOnCreateAndDelete(t *testing.T) {
	s := newScanStore(t)
	scanOnce(t, s)
	key, ctr := []byte("upkeep-key"), []byte("upkeep-ctr")
	step := func(name string, op func(), wantSeeks, wantInserts, wantDeletes uint64) {
		t.Helper()
		before := s.Stats().Ordered
		op()
		after := s.Stats().Ordered
		if got := after.Seeks - before.Seeks; got != wantSeeks {
			t.Errorf("%s: %d index seeks, want %d", name, got, wantSeeks)
		}
		if got := after.Inserts - before.Inserts; got != wantInserts {
			t.Errorf("%s: %d index inserts, want %d", name, got, wantInserts)
		}
		if got := after.Deletes - before.Deletes; got != wantDeletes {
			t.Errorf("%s: %d index deletes, want %d", name, got, wantDeletes)
		}
	}
	step("create", func() { mustPut(t, s, key, []byte("v1")) }, 1, 1, 0)
	step("overwrite, same footprint", func() { mustPut(t, s, key, []byte("v2")) }, 0, 0, 0)
	step("overwrite, inline to slab", func() { mustPut(t, s, key, bytes.Repeat([]byte{7}, 100)) }, 0, 0, 0)
	step("atomic create", func() {
		if _, err := s.Update(ctr, FnAdd, 8, 5); err != nil {
			t.Fatal(err)
		}
	}, 1, 1, 0)
	step("atomic write-back onto existing key", func() {
		if old, err := s.Update(ctr, FnAdd, 8, 1); err != nil || old != 5 {
			t.Fatalf("Update = %d, %v", old, err)
		}
	}, 0, 0, 0)
	step("pipelined overwrites merged into one write-back", func() {
		for i := 0; i < 8; i++ {
			s.SubmitPut(key, []byte{byte(i)}, nil)
		}
		s.Flush()
	}, 0, 0, 0)
	step("delete", func() {
		if !s.Delete(key) {
			t.Fatal("Delete missed")
		}
	}, 1, 0, 1)
	step("delete of an absent key", func() { s.Delete(key) }, 0, 0, 0)
}

// parentOrderExec is the executor as it was before PUTs became
// table-first: every PUT walks the index, inserting ahead of the table and
// rolling the index back if the table refuses. Kept here as the reference
// the new ordering must be indistinguishable from.
type parentOrderExec struct {
	table *hashtable.Table
	idx   *ordered.Index
}

func (e parentOrderExec) Get(key []byte) ([]byte, bool) { return e.table.Get(key) }

func (e parentOrderExec) Put(key, value []byte) error {
	inserted, err := e.idx.Insert(key)
	if err != nil {
		return err
	}
	if _, err := e.table.Put(key, value); err != nil {
		if inserted {
			e.idx.Delete(key)
		}
		return err
	}
	return nil
}

func (e parentOrderExec) Delete(key []byte) bool {
	ok := e.table.Delete(key)
	if ok {
		e.idx.Delete(key)
	}
	return ok
}

// TestTableFirstPutReplaysLikeIndexFirst feeds one 20 000-op stream of
// creates, overwrites of every footprint, deletes and atomics to a store
// at the new ordering and to one running the parent's index-first
// executor. Logical contents (Dump bytes), key order and the skip list's
// shape must match — a replica replaying a primary's log lands in the same
// state whichever ordering either side ran — while the new ordering seeks
// the index far less. Both stores scan once first, so both keep an index.
func TestTableFirstPutReplaysLikeIndexFirst(t *testing.T) {
	cfg := Config{MemoryBytes: 8 << 20, HashIndexRatio: 0.05, Seed: 21}
	newer, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(newer.Close)
	ref, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	scanOnce(t, newer)
	scanOnce(t, ref)
	ref.engine = ooo.NewEngine(parentOrderExec{table: ref.table, idx: ref.exec.idx}, 0, 0)

	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 20000; i++ {
		key := []byte(fmt.Sprintf("rk-%04d", rng.Intn(1500)))
		switch r := rng.Intn(10); {
		case r < 6:
			sizes := []int{3, 3, 40, 40, 200, 700}
			v := make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(v)
			e1, e2 := newer.Put(key, v), ref.Put(key, v)
			if e1 != nil || e2 != nil {
				t.Fatalf("op %d: Put errors %v / %v", i, e1, e2)
			}
		case r < 8:
			if d1, d2 := newer.Delete(key), ref.Delete(key); d1 != d2 {
				t.Fatalf("op %d: Delete %v / %v", i, d1, d2)
			}
		default:
			ctr := []byte(fmt.Sprintf("rc-%02d", rng.Intn(40)))
			o1, e1 := newer.Update(ctr, FnAdd, 8, uint64(i))
			o2, e2 := ref.Update(ctr, FnAdd, 8, uint64(i))
			if o1 != o2 || e1 != nil || e2 != nil {
				t.Fatalf("op %d: Update %d,%v / %d,%v", i, o1, e1, o2, e2)
			}
		}
	}

	var d1, d2 bytes.Buffer
	n1, err1 := newer.Dump(&d1)
	n2, err2 := ref.Dump(&d2)
	if err1 != nil || err2 != nil || n1 != n2 {
		t.Fatalf("Dump: %d,%v / %d,%v", n1, err1, n2, err2)
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Error("Dump bytes differ between the two orderings")
	}
	visit := func(s *Store) []string {
		var keys []string
		if err := s.exec.idx.Visit(nil, func(k []byte) bool {
			keys = append(keys, string(k))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	k1, k2 := visit(newer), visit(ref)
	if len(k1) != n1 || fmt.Sprint(k1) != fmt.Sprint(k2) {
		t.Errorf("Visit order differs: %d / %d keys, %d dumped", len(k1), len(k2), n1)
	}
	o1, o2 := newer.Stats().Ordered, ref.Stats().Ordered
	if o1.Keys != o2.Keys || o1.Inserts != o2.Inserts || o1.Deletes != o2.Deletes || o1.NodeBytes != o2.NodeBytes {
		t.Errorf("skip lists differ: %+v / %+v", o1, o2)
	}
	if o1.Seeks*2 > o2.Seeks {
		t.Errorf("table-first PUTs made %d index seeks, index-first %d: expected under half", o1.Seeks, o2.Seeks)
	}
	if err := newer.Verify(); err != nil {
		t.Error(err)
	}
}

// TestPutRollsBackTableWhenIndexNodeCannotBeAllocated exhausts the slabs
// of a store whose index a scan has built, then creates an inline key:
// the table takes it without a slab, the index node allocation fails, and
// the create must be undone everywhere.
func TestPutRollsBackTableWhenIndexNodeCannotBeAllocated(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 1 << 20, HashIndexRatio: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	scanOnce(t, s)
	// Fill with 32 B-class entries until 64 creates in a row fail: a lone
	// failure may be a tall index node wanting a larger slab class.
	for i, failures := 0, 0; failures < 64; i++ {
		if i > 1<<20 {
			t.Fatal("store never filled")
		}
		if err := s.Put([]byte(fmt.Sprintf("fill-%07d", i)), []byte("0123456789")); err != nil {
			if !errors.Is(err, ErrFull) {
				t.Fatalf("fill: %v", err)
			}
			failures++
		} else {
			failures = 0
		}
	}
	// A failed slab-backed create hands its data slab back, so a few slabs
	// are still free; inline creates take them for index nodes until one
	// finds none left.
	var key []byte
	var keys uint64
	var before Stats
	for i := 0; ; i++ {
		if i > 1000 {
			t.Fatal("inline creates never ran out of index nodes")
		}
		key = []byte(fmt.Sprintf("tiny-%03d", i))
		keys, before = s.NumKeys(), s.Stats()
		err := s.Put(key, []byte("v"))
		if errors.Is(err, ErrFull) {
			break
		}
		if err != nil {
			t.Fatalf("inline create: %v", err)
		}
	}
	after := s.Stats()
	if after.Ordered.Seeks != before.Ordered.Seeks+1 || after.Ordered.Inserts != before.Ordered.Inserts {
		t.Fatalf("the failure was not the index node allocation after a table insert: ordered %+v -> %+v",
			before.Ordered, after.Ordered)
	}
	if s.NumKeys() != keys {
		t.Errorf("NumKeys = %d after the failed create, want %d", s.NumKeys(), keys)
	}
	if _, ok := s.Get(key); ok {
		t.Error("Get finds the key whose create failed")
	}
	entries, _, err := s.Scan(key, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 0 && bytes.Equal(entries[0].Key, key) {
		t.Error("Scan returns the key whose create failed")
	}
	if err := s.Verify(); err != nil {
		t.Error(err)
	}
	// Overwrites need neither a slab nor an index node: they still work.
	if err := s.Put([]byte("fill-0000000"), []byte("9876543210")); err != nil {
		t.Errorf("same-footprint overwrite on a full store: %v", err)
	}
}

// TestCorruptIndexLinkDegradesStore damages one level-0 link of the
// ordered index in host memory. A create whose index walk crosses it
// must fail with the index's corruption error, not ErrFull, and leave
// the key in neither structure; a scan across it must fail; Health must
// report the damage. Ops that never walk the index keep working. The
// store scans once first, so it has an index to damage.
func TestCorruptIndexLinkDegradesStore(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 1 << 20, DisableCache: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	scanOnce(t, s)
	key := func(i int) []byte { return []byte(fmt.Sprintf("c-%03d", i)) }
	for i := 0; i < 200; i++ {
		mustPut(t, s, key(i), []byte("v"))
	}

	// Find c-100's index node in the slab region: its header — level,
	// key length, two zero bytes — sits 4 + 8·level bytes before its key.
	slabs := s.alloc.Region()
	raw := make([]byte, slabs.Size)
	s.mem.Peek(slabs.Base, raw)
	victim := key(100)
	node := -1
	for from := 0; node < 0; {
		i := bytes.Index(raw[from:], victim)
		if i < 0 {
			t.Fatal("c-100's index node not found")
		}
		q := from + i
		for level := 1; level <= ordered.MaxLevel && node < 0; level++ {
			h := q - 4 - 8*level
			if h >= 0 && raw[h] == byte(level) && raw[h+1] == byte(len(victim)) && raw[h+2] == 0 && raw[h+3] == 0 {
				node = h
			}
		}
		from = q + 1
	}
	// Its level-0 link becomes level 1, key length 1, at an address far
	// past the store.
	s.mem.Poke(slabs.Base+uint64(node)+4, bytes.Repeat([]byte{1}, 8))

	created := []byte("c-100a")
	if err := s.Put(created, []byte("v")); !errors.Is(err, ordered.ErrCorrupt) || errors.Is(err, ErrFull) {
		t.Fatalf("create across the damage: %v, want ordered.ErrCorrupt", err)
	}
	if _, ok := s.Get(created); ok {
		t.Error("the refused create is readable")
	}
	if resp := s.Apply(wire.Request{Code: wire.OpPut, Key: created, Value: []byte("v")}); resp.Status != wire.StatusError {
		t.Errorf("wire create across the damage: status %d, want StatusError", resp.Status)
	}
	if _, _, err := s.Scan(key(95), 20); !errors.Is(err, ordered.ErrCorrupt) {
		t.Errorf("scan across the damage: %v, want ordered.ErrCorrupt", err)
	}
	if h := s.Health(); h.OK() || h.CorruptChains != 3 {
		t.Errorf("Health = %v, want degraded with 3 corrupt walks", h)
	}
	mustPut(t, s, key(100), []byte("w"))
	if v, ok := s.Get(key(100)); !ok || string(v) != "w" {
		t.Errorf("overwrite of c-100: Get = %q, %v", v, ok)
	}
	if s.NumKeys() != 200 {
		t.Errorf("NumKeys = %d, want 200", s.NumKeys())
	}
}
