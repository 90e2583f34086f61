package kvdirect_test

// Integration tests: cross-module behaviour through the public API —
// store + wire + network + workload generator together, including
// failure injection (store exhaustion) and long random op sequences
// checked against an oracle.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"kvdirect"
	"kvdirect/kvnet"
)

func u64b(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestEndToEndMixedBatchOverTCP(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := kvnet.Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := kvnet.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	vec := make([]byte, 16)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], uint32(i+1))
	}
	p := make([]byte, 4)
	binary.LittleEndian.PutUint32(p, 10)
	res, err := c.Do([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("vec"), Value: vec},
		{Code: kvdirect.OpUpdateS2V, Key: []byte("vec"), FuncID: kvdirect.FnAdd, ElemWidth: 4, Param: p},
		{Code: kvdirect.OpReduce, Key: []byte("vec"), FuncID: kvdirect.FnAdd, ElemWidth: 4, Param: make([]byte, 4)},
		{Code: kvdirect.OpUpdateScalar, Key: []byte("ctr"), FuncID: kvdirect.FnAdd, ElemWidth: 8, Param: u64b(5)},
		{Code: kvdirect.OpFilter, Key: []byte("vec"), FuncID: kvdirect.FilterOdd, ElemWidth: 4},
		{Code: kvdirect.OpDelete, Key: []byte("vec")},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("op %d failed: status %d %q", i, r.Status, r.Value)
		}
	}
	// reduce: (1+2+3+4) + 4*10 = 50.
	if got := binary.LittleEndian.Uint64(res[2].Value); got != 50 {
		t.Errorf("reduce = %d, want 50", got)
	}
	// filter of 11,12,13,14 → 11,13.
	if len(res[4].Value) != 8 {
		t.Errorf("filter returned %d bytes", len(res[4].Value))
	}
}

func TestStoreExhaustionAndRecovery(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 1 << 20, InlineThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	// Fill until full.
	var keys [][]byte
	var i int
	for ; ; i++ {
		k := []byte(fmt.Sprintf("full-%06d", i))
		if err := store.Put(k, bytes.Repeat([]byte{1}, 400)); err != nil {
			if err != kvdirect.ErrFull {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		t.Fatal("no keys inserted before exhaustion")
	}
	// All stored keys still readable after a failed insert.
	for _, k := range keys {
		if _, ok := store.Get(k); !ok {
			t.Fatalf("key %s lost after exhaustion", k)
		}
	}
	// Delete a third, then inserts succeed again.
	for j := 0; j < len(keys)/3; j++ {
		if !store.Delete(keys[j]) {
			t.Fatalf("delete %d failed", j)
		}
	}
	recovered := 0
	for j := 0; j < len(keys)/4; j++ {
		k := []byte(fmt.Sprintf("recov-%06d", j))
		if err := store.Put(k, bytes.Repeat([]byte{2}, 400)); err == nil {
			recovered++
		}
	}
	if recovered < len(keys)/5 {
		t.Errorf("only %d inserts succeeded after freeing %d slots", recovered, len(keys)/3)
	}
}

func TestFailedUpdateKeepsOldValue(t *testing.T) {
	// Fill the slab region, then attempt a size-growing update: it must
	// fail with ErrFull and the old value must remain intact (the
	// insert-before-remove discipline in the hash table).
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 1 << 20, InlineThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	victim := []byte("victim")
	small := bytes.Repeat([]byte{7}, 30)
	if err := store.Put(victim, small); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if err := store.Put([]byte(fmt.Sprintf("fill-%06d", i)),
			bytes.Repeat([]byte{1}, 400)); err != nil {
			break
		}
	}
	// Growing the victim needs a fresh (larger) slab: should fail full.
	if err := store.Put(victim, bytes.Repeat([]byte{9}, 400)); err != kvdirect.ErrFull {
		t.Fatalf("growing update on full store: %v, want ErrFull", err)
	}
	v, ok := store.Get(victim)
	if !ok || !bytes.Equal(v, small) {
		t.Fatalf("old value corrupted after failed update: ok=%v len=%d", ok, len(v))
	}
}

func TestLongRandomRunAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	rng := rand.New(rand.NewSource(2024))
	oracle := map[string][]byte{}
	nKeys := 500
	key := func(i int) string { return fmt.Sprintf("long-%04d", i) }

	for op := 0; op < 30000; op++ {
		k := key(rng.Intn(nKeys))
		switch rng.Intn(5) {
		case 0, 1: // put (random size across inline/slab/chained regimes)
			n := rng.Intn(700)
			v := make([]byte, n)
			rng.Read(v)
			if err := store.Put([]byte(k), v); err != nil {
				t.Fatalf("op %d put: %v", op, err)
			}
			oracle[k] = v
		case 2: // get
			got, ok := store.Get([]byte(k))
			want, wantOK := oracle[k]
			if ok != wantOK || (ok && !bytes.Equal(got, want)) {
				t.Fatalf("op %d get mismatch for %s", op, k)
			}
		case 3: // delete
			got := store.Delete([]byte(k))
			_, want := oracle[k]
			if got != want {
				t.Fatalf("op %d delete mismatch for %s", op, k)
			}
			delete(oracle, k)
		case 4: // atomic add on a disjoint counter key space
			ck := "ctr-" + k
			if _, err := store.Update([]byte(ck), kvdirect.FnAdd, 8, 1); err != nil {
				t.Fatalf("op %d update: %v", op, err)
			}
			cur := uint64(0)
			if old, ok := oracle[ck]; ok {
				cur = binary.LittleEndian.Uint64(old)
			}
			oracle[ck] = u64b(cur + 1)
		}
	}
	// Full verification sweep.
	for k, want := range oracle {
		got, ok := store.Get([]byte(k))
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("final sweep mismatch for %s", k)
		}
	}
	if store.NumKeys() != uint64(len(oracle)) {
		t.Fatalf("NumKeys = %d, oracle %d", store.NumKeys(), len(oracle))
	}
	// Internal consistency: no write-back failures, sane counters.
	st := store.Stats()
	if st.Engine.WritebackErrors != 0 {
		t.Errorf("write-back errors: %d", st.Engine.WritebackErrors)
	}
}

func TestWorkloadDrivenPipelineConsistency(t *testing.T) {
	// Zipf-hammered pipelined atomics: the sum of all counters must equal
	// the number of increments even with heavy merging.
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	rng := rand.New(rand.NewSource(7))
	z := rand.NewZipf(rng, 1.3, 1, 99)
	const n = 50000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("zipf-%02d", z.Uint64()))
		store.SubmitUpdate(k, kvdirect.FnAdd, 8, 1, nil)
	}
	store.Flush()
	total := uint64(0)
	for i := 0; i < 100; i++ {
		if v, ok := store.Get([]byte(fmt.Sprintf("zipf-%02d", i))); ok {
			total += binary.LittleEndian.Uint64(v)
		}
	}
	if total != n {
		t.Fatalf("counter sum = %d, want %d", total, n)
	}
	if mr := store.Stats().Engine.MergeRatio(); mr < 0.2 {
		t.Errorf("merge ratio %.2f suspiciously low for zipf atomics", mr)
	}
}
