package hashtable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"kvdirect/internal/memory"
	"kvdirect/internal/slab"
)

// testTable builds a table over a fresh simulated memory.
func testTable(t *testing.T, memBytes uint64, ratio float64, inlineThreshold int) (*Table, *memory.Memory, *slab.Allocator) {
	t.Helper()
	mem := memory.New(memBytes)
	idx, slabs := memory.Split(memBytes, ratio)
	alloc := slab.New(slabs, slab.Options{})
	tbl, err := New(mem, alloc, Config{Index: idx, InlineThreshold: inlineThreshold, Seed: 12345})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, mem, alloc
}

func TestPutGetDelete(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	key, val := []byte("hello"), []byte("world")
	if _, err := tbl.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q,%v", got, ok)
	}
	if tbl.NumKeys() != 1 {
		t.Errorf("NumKeys = %d", tbl.NumKeys())
	}
	if !tbl.Delete(key) {
		t.Fatal("Delete returned false")
	}
	if _, ok := tbl.Get(key); ok {
		t.Error("Get after Delete succeeded")
	}
	if tbl.NumKeys() != 0 || tbl.PayloadBytes() != 0 {
		t.Errorf("post-delete keys=%d payload=%d", tbl.NumKeys(), tbl.PayloadBytes())
	}
}

func TestGetMissing(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	if _, ok := tbl.Get([]byte("nope")); ok {
		t.Error("Get on empty table succeeded")
	}
	if tbl.Delete([]byte("nope")) {
		t.Error("Delete on empty table succeeded")
	}
}

func TestUpdateInPlace(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	key := []byte("k1")
	if created, err := tbl.Put(key, []byte("aaaa")); err != nil || !created {
		t.Fatalf("first Put = created %v, %v", created, err)
	}
	if created, err := tbl.Put(key, []byte("bbbb")); err != nil || created {
		t.Fatalf("overwrite = created %v, %v", created, err)
	}
	got, _ := tbl.Get(key)
	if string(got) != "bbbb" {
		t.Errorf("updated value = %q", got)
	}
	if tbl.NumKeys() != 1 {
		t.Errorf("NumKeys after update = %d", tbl.NumKeys())
	}
}

func TestUpdateChangesSize(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	key := []byte("grow")
	sizes := []int{2, 10, 100, 300, 5, 700, 3}
	for _, n := range sizes {
		val := bytes.Repeat([]byte{byte(n)}, n)
		if _, err := tbl.Put(key, val); err != nil {
			t.Fatalf("size %d: %v", n, err)
		}
		got, ok := tbl.Get(key)
		if !ok || !bytes.Equal(got, val) {
			t.Fatalf("size %d: got %d bytes, ok=%v", n, len(got), ok)
		}
	}
	if tbl.NumKeys() != 1 {
		t.Errorf("NumKeys = %d after size-changing updates", tbl.NumKeys())
	}
}

func TestInlineVsNonInlinePlacement(t *testing.T) {
	tbl, _, alloc := testTable(t, 1<<20, 0.5, 15)
	// k+v = 8 <= 15: inline, no slab allocation.
	if _, err := tbl.Put([]byte("tiny"), []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if alloc.Stats().Allocs != 0 {
		t.Error("small KV should not touch the slab allocator")
	}
	// k+v = 54 > 15: slab-allocated.
	if _, err := tbl.Put([]byte("bigger"), bytes.Repeat([]byte{7}, 48)); err != nil {
		t.Fatal(err)
	}
	if alloc.Stats().Allocs == 0 {
		t.Error("large KV should be slab-allocated")
	}
}

func TestZeroInlineThresholdNeverInlines(t *testing.T) {
	tbl, _, alloc := testTable(t, 1<<20, 0.5, 0)
	if _, err := tbl.Put([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if alloc.Stats().Allocs == 0 {
		t.Error("offline mode should slab-allocate even tiny KVs")
	}
	got, ok := tbl.Get([]byte("a"))
	if !ok || string(got) != "b" {
		t.Errorf("offline Get = %q,%v", got, ok)
	}
}

func TestLargeValueChainsAcrossSlabs(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.3, 20)
	val := make([]byte, 3000) // needs ~6 chained 512 B slabs
	for i := range val {
		val[i] = byte(i * 31)
	}
	if _, err := tbl.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get([]byte("big"))
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("chained value corrupted: ok=%v len=%d", ok, len(got))
	}
	// Overwrite with same size: in-place rewrite.
	for i := range val {
		val[i] = byte(i * 7)
	}
	if _, err := tbl.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Get([]byte("big"))
	if !bytes.Equal(got, val) {
		t.Fatal("chained rewrite corrupted value")
	}
}

func TestDeleteFreesSlabMemory(t *testing.T) {
	tbl, _, alloc := testTable(t, 1<<20, 0.5, 10)
	before := alloc.FreeBytes()
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		if _, err := tbl.Put(keys[i], bytes.Repeat([]byte{1}, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	if alloc.FreeBytes() >= before {
		t.Fatal("allocations did not consume slab memory")
	}
	for _, k := range keys {
		if !tbl.Delete(k) {
			t.Fatalf("delete %q failed", k)
		}
	}
	if alloc.FreeBytes() != before {
		t.Errorf("slab memory leaked: %d -> %d", before, alloc.FreeBytes())
	}
}

func TestCollisionChaining(t *testing.T) {
	// One bucket: every key collides; chaining must still hold them all.
	mem := memory.New(1 << 16)
	idx := memory.Partition{Base: 0, Size: 64} // a single bucket
	alloc := slab.New(memory.Partition{Base: 64, Size: 1<<16 - 64}, slab.Options{})
	tbl, err := New(mem, alloc, Config{Index: idx, InlineThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := tbl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)}); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if tbl.ChainBuckets() == 0 {
		t.Error("expected chained buckets with a single primary bucket")
	}
	for i := 0; i < n; i++ {
		v, ok := tbl.Get([]byte(fmt.Sprintf("k%03d", i)))
		if !ok || v[0] != byte(i) {
			t.Fatalf("get %d: %v %v", i, v, ok)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	if _, err := tbl.Put(nil, []byte("v")); err != ErrEmptyKey {
		t.Errorf("empty key: %v", err)
	}
	if _, err := tbl.Put(bytes.Repeat([]byte{1}, 256), []byte("v")); err != ErrKeyTooLarge {
		t.Errorf("long key: %v", err)
	}
	if _, err := tbl.Put([]byte("k"), make([]byte, 64<<10)); err != ErrValueTooLarge {
		t.Errorf("huge value: %v", err)
	}
}

func TestTableFull(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<14, 0.25, 0) // 16 KiB total, tiny slab area
	var err error
	for i := 0; err == nil && i < 10000; i++ {
		_, err = tbl.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte{2}, 200))
	}
	if err != ErrFull {
		t.Fatalf("expected ErrFull, got %v", err)
	}
	// The table must still serve reads after filling up.
	if _, ok := tbl.Get([]byte("key-00000")); !ok {
		t.Error("Get failed after table filled")
	}
}

func TestGetAccessCountInline(t *testing.T) {
	// Paper: close to 1 memory access per GET for inline KVs under
	// non-extreme utilization.
	tbl, mem, _ := testTable(t, 1<<22, 0.6, 13)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tbl.Put(key10(i), val10(i)); err != nil {
			t.Fatal(err)
		}
	}
	mem.ResetStats()
	for i := 0; i < n; i++ {
		if _, ok := tbl.Get(key10(i)); !ok {
			t.Fatal("miss")
		}
	}
	per := float64(mem.Stats().Accesses()) / n
	if per > 1.15 {
		t.Errorf("inline GET = %.2f accesses/op, want ~1", per)
	}
}

func TestPutAccessCountInline(t *testing.T) {
	// Paper: close to 2 memory accesses per PUT (bucket read + write).
	tbl, mem, _ := testTable(t, 1<<22, 0.6, 13)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tbl.Put(key10(i), val10(i)); err != nil {
			t.Fatal(err)
		}
	}
	mem.ResetStats()
	for i := 0; i < n; i++ {
		if _, err := tbl.Put(key10(i), val10(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	per := float64(mem.Stats().Accesses()) / n
	if per > 2.3 {
		t.Errorf("inline PUT = %.2f accesses/op, want ~2", per)
	}
}

func TestNonInlineOneExtraAccess(t *testing.T) {
	// Paper: GET and PUT for non-inline KVs have one additional access.
	tbl, mem, _ := testTable(t, 1<<22, 0.3, 0)
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := tbl.Put(key10(i), bytes.Repeat([]byte{byte(i)}, 54)); err != nil {
			t.Fatal(err)
		}
	}
	mem.ResetStats()
	for i := 0; i < n; i++ {
		tbl.Get(key10(i))
	}
	perGet := float64(mem.Stats().Accesses()) / n
	if perGet > 2.2 {
		t.Errorf("non-inline GET = %.2f accesses/op, want ~2", perGet)
	}
	mem.ResetStats()
	for i := 0; i < n; i++ {
		if _, err := tbl.Put(key10(i), bytes.Repeat([]byte{byte(i + 1)}, 54)); err != nil {
			t.Fatal(err)
		}
	}
	perPut := float64(mem.Stats().Accesses()) / n
	// Same-footprint update: bucket read + data read (verify) + data write.
	if perPut > 3.3 {
		t.Errorf("non-inline PUT = %.2f accesses/op, want ~3", perPut)
	}
}

func key10(i int) []byte { return []byte(fmt.Sprintf("k%05d", i)) }      // 6 B key
func val10(i int) []byte { return []byte(fmt.Sprintf("v%03d", i%1000)) } // 4 B value

func TestAccessCountGrowsWithUtilization(t *testing.T) {
	// Figure 9b: memory accesses grow with utilization (more collisions).
	var lowUtil, highUtil float64
	for _, fill := range []struct {
		n    int
		dest *float64
	}{{500, &lowUtil}, {20000, &highUtil}} {
		tbl, mem, _ := testTable(t, 1<<20, 0.5, 13)
		for i := 0; i < fill.n; i++ {
			if _, err := tbl.Put(key10(i), val10(i)); err != nil {
				break
			}
		}
		mem.ResetStats()
		probes := fill.n
		if probes > 2000 {
			probes = 2000
		}
		for i := 0; i < probes; i++ {
			tbl.Get(key10(i))
		}
		*fill.dest = float64(mem.Stats().Accesses()) / float64(probes)
	}
	if highUtil <= lowUtil {
		t.Errorf("accesses should grow with utilization: low=%.2f high=%.2f",
			lowUtil, highUtil)
	}
}

func TestOracleProperty(t *testing.T) {
	// Random op sequences agree with a map oracle.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
		oracle := map[string][]byte{}
		keys := make([]string, 50)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", i)
		}
		for op := 0; op < 1000; op++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0: // put with random size (inline, slab, or chained)
				n := rng.Intn(600)
				v := make([]byte, n)
				rng.Read(v)
				if _, err := tbl.Put([]byte(k), v); err != nil {
					return false
				}
				oracle[k] = v
			case 1: // get
				got, ok := tbl.Get([]byte(k))
				want, wantOK := oracle[k]
				if ok != wantOK || (ok && !bytes.Equal(got, want)) {
					return false
				}
			case 2: // delete
				got := tbl.Delete([]byte(k))
				_, want := oracle[k]
				if got != want {
					return false
				}
				delete(oracle, k)
			}
		}
		// Final sweep.
		for k, want := range oracle {
			got, ok := tbl.Get([]byte(k))
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		if tbl.NumKeys() != uint64(len(oracle)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPayloadAccounting(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	for _, kv := range []struct{ k, v []byte }{
		{[]byte("ab"), []byte("cdef")},               // 6 payload bytes
		{[]byte("xy"), bytes.Repeat([]byte{1}, 100)}, // 102
	} {
		if _, err := tbl.Put(kv.k, kv.v); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.PayloadBytes() != 108 {
		t.Errorf("payload = %d, want 108", tbl.PayloadBytes())
	}
	if _, err := tbl.Put([]byte("ab"), []byte("c")); err != nil { // 6 -> 3
		t.Fatal(err)
	}
	if tbl.PayloadBytes() != 105 {
		t.Errorf("payload after shrink = %d, want 105", tbl.PayloadBytes())
	}
	util := tbl.Utilization(1 << 20)
	if util != 105.0/(1<<20) {
		t.Errorf("utilization = %g", util)
	}
}

// TestModify walks one key through each Modify outcome: the callback
// sees what is stored, and a store, a keep or a remove leaves the table
// — keys, payload bytes, contents — as Put and Delete would, each in one
// bucket read where Put and Delete make one.
func TestModify(t *testing.T) {
	tbl, mem, _ := testTable(t, 1<<20, 0.5, 20)
	key := []byte("mod")
	step := func(name string, want []byte, edit Edit, value []byte, created, deleted bool) {
		t.Helper()
		before := mem.Stats()
		c, d, err := tbl.Modify(key, func(old []byte, found bool) ([]byte, Edit) {
			if found != (want != nil) || !bytes.Equal(old, want) {
				t.Errorf("%s: callback saw %q (found %v), want %q", name, old, found, want)
			}
			return value, edit
		})
		if err != nil || c != created || d != deleted {
			t.Fatalf("%s: Modify = created %v, deleted %v, %v", name, c, d, err)
		}
		if reads := mem.Stats().Reads - before.Reads; reads != 1 {
			t.Errorf("%s: %d reads, want the one bucket", name, reads)
		}
	}
	step("remove of an absent key", nil, Remove, nil, false, false)
	step("create", nil, Store, []byte("v1"), true, false)
	step("keep", []byte("v1"), Keep, nil, false, false)
	step("overwrite", []byte("v1"), Store, []byte("v2"), false, false)
	if tbl.NumKeys() != 1 || tbl.PayloadBytes() != 5 {
		t.Errorf("after overwrite: %d keys, %d payload bytes", tbl.NumKeys(), tbl.PayloadBytes())
	}
	step("remove", []byte("v2"), Remove, nil, false, true)
	if _, ok := tbl.Get(key); ok || tbl.NumKeys() != 0 || tbl.PayloadBytes() != 0 {
		t.Errorf("after remove: present %v, %d keys, %d payload bytes", ok, tbl.NumKeys(), tbl.PayloadBytes())
	}
	// A key Get could never find reads as absent; storing under it fails
	// as Put does.
	_, _, err := tbl.Modify(nil, func(old []byte, found bool) ([]byte, Edit) {
		if found {
			t.Error("empty key found")
		}
		return []byte("v"), Store
	})
	if err != ErrEmptyKey {
		t.Errorf("store under an empty key: %v", err)
	}
}

func TestSecondaryHashFalsePositiveSafety(t *testing.T) {
	// Keys are always compared even when secondary hashes collide, so no
	// wrong value can ever be returned. Brute-force many keys through a
	// tiny index to force secondary-hash collisions within buckets.
	mem := memory.New(1 << 18)
	idx := memory.Partition{Base: 0, Size: 128} // 2 buckets
	alloc := slab.New(memory.Partition{Base: 128, Size: 1<<18 - 128}, slab.Options{})
	tbl, _ := New(mem, alloc, Config{Index: idx, InlineThreshold: 0})
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := tbl.Put(key10(i), []byte(fmt.Sprintf("val-%05d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok := tbl.Get(key10(i))
		if !ok || string(v) != fmt.Sprintf("val-%05d", i) {
			t.Fatalf("key %d returned %q,%v", i, v, ok)
		}
	}
}

func TestNewRejectsTinyIndex(t *testing.T) {
	mem := memory.New(64)
	if _, err := New(mem, nil, Config{Index: memory.Partition{Size: 10}}); err == nil {
		t.Error("expected error for sub-bucket index")
	}
}

func TestInlineThresholdClamped(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 1000)
	if tbl.cfg.InlineThreshold != MaxInlineData-2 {
		t.Errorf("threshold = %d, want clamped to %d", tbl.cfg.InlineThreshold, MaxInlineData-2)
	}
	// A 48-byte payload fits exactly in 10 slots.
	key := []byte("12345678")
	val := bytes.Repeat([]byte{9}, 40)
	if _, err := tbl.Put(key, val); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Error("max-size inline entry corrupted")
	}
}

// --- wall-clock micro-benchmarks of the table itself ---

func benchTable(b *testing.B, threshold, valSize int) (*Table, [][]byte) {
	b.Helper()
	mem := memory.New(64 << 20)
	idx, slabs := memory.Split(64<<20, 0.5)
	alloc := slab.New(slabs, slab.Options{})
	tbl, err := New(mem, alloc, Config{Index: idx, InlineThreshold: threshold, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, 50000)
	val := bytes.Repeat([]byte{7}, valSize)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-%06d", i))
		if _, err := tbl.Put(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, keys
}

func BenchmarkGetInline(b *testing.B) {
	tbl, keys := benchTable(b, 20, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkGetSlab(b *testing.B) {
	tbl, keys := benchTable(b, 0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Get(keys[i%len(keys)]); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkPutUpdateInline(b *testing.B) {
	tbl, keys := benchTable(b, 20, 4)
	val := []byte{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutUpdateSlab(b *testing.B) {
	tbl, keys := benchTable(b, 0, 100)
	val := bytes.Repeat([]byte{9}, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Put(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanAll(b *testing.B) {
	tbl, _ := benchTable(b, 20, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tbl.Scan(func(_, _ []byte) bool { n++; return true })
		if n != 50000 {
			b.Fatalf("scan found %d", n)
		}
	}
}

// TestChainPointerPastMemoryIsCorruptNotPanic: a bucket's chain field
// smashed to point past the end of memory (what an undetected fault can
// leave) ends the walk as a counted corrupt chain and a miss — the
// hop-bound policy — instead of an out-of-range load that panics.
func TestChainPointerPastMemoryIsCorruptNotPanic(t *testing.T) {
	const memBytes = 1 << 20
	tbl, mem, _ := testTable(t, memBytes, 0.5, 20)
	key := []byte("lost")
	bucket := tbl.cfg.Index.Base + tbl.bucketIndex(tbl.hash(key))*BucketBytes
	var field [4]byte
	binary.LittleEndian.PutUint32(field[:], chainField(2*memBytes))
	mem.Write(bucket+offChain, field[:])

	if _, ok := tbl.Get(key); ok {
		t.Fatal("Get through a smashed chain hit")
	}
	if n := tbl.CorruptChains(); n != 1 {
		t.Fatalf("CorruptChains = %d, want 1", n)
	}
}
