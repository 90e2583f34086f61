package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"
	"testing/quick"

	"kvdirect/internal/wire"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(Config{MemoryBytes: 4 << 20, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func u64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// mustPut seeds a key, failing the test on error so later assertions
// never run against a store missing its fixture data.
func mustPut(t *testing.T, s *Store, key, value []byte) {
	t.Helper()
	if err := s.Put(key, value); err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func TestBasicOps(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if !s.Delete([]byte("k")) {
		t.Fatal("Delete failed")
	}
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("Get after Delete")
	}
	if s.Delete([]byte("k")) {
		t.Fatal("double Delete succeeded")
	}
}

func TestAtomicUpdateScalar(t *testing.T) {
	s := newStore(t)
	// Missing key initializes from zero.
	old, err := s.Update([]byte("ctr"), FnAdd, 8, 5)
	if err != nil || old != 0 {
		t.Fatalf("first update: old=%d err=%v", old, err)
	}
	old, err = s.Update([]byte("ctr"), FnAdd, 8, 3)
	if err != nil || old != 5 {
		t.Fatalf("second update: old=%d err=%v", old, err)
	}
	v, _ := s.Get([]byte("ctr"))
	if binary.LittleEndian.Uint64(v) != 8 {
		t.Fatalf("final counter = %d", binary.LittleEndian.Uint64(v))
	}
}

func TestAtomicSwapAndMax(t *testing.T) {
	s := newStore(t)
	mustPut(t, s, []byte("x"), u64(10))
	if old, _ := s.Update([]byte("x"), FnSwap, 8, 99); old != 10 {
		t.Errorf("swap old = %d", old)
	}
	if old, _ := s.Update([]byte("x"), FnMax, 8, 50); old != 99 {
		t.Errorf("max old = %d", old)
	}
	v, _ := s.Get([]byte("x"))
	if binary.LittleEndian.Uint64(v) != 99 {
		t.Errorf("max(99,50) stored %d", binary.LittleEndian.Uint64(v))
	}
}

func TestUpdateWrongScalarWidth(t *testing.T) {
	s := newStore(t)
	mustPut(t, s, []byte("s"), []byte("not8bytes"))
	if _, err := s.Update([]byte("s"), FnAdd, 8, 1); err != ErrBadScalar {
		t.Errorf("expected ErrBadScalar, got %v", err)
	}
	if _, err := s.Update([]byte("s"), FnAdd, 3, 1); err != ErrBadWidth {
		t.Errorf("expected ErrBadWidth, got %v", err)
	}
	if _, err := s.Update([]byte("s"), 200, 8, 1); err != ErrUnknownFn {
		t.Errorf("expected ErrUnknownFn, got %v", err)
	}
}

func TestVectorScalarUpdate(t *testing.T) {
	s := newStore(t)
	vec := make([]byte, 8*4) // 8 x uint32
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], uint32(i))
	}
	mustPut(t, s, []byte("vec"), vec)
	orig, err := s.UpdateScalarToVector([]byte("vec"), FnAdd, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, vec) {
		t.Error("update should return the original vector")
	}
	now, _ := s.Get([]byte("vec"))
	for i := 0; i < 8; i++ {
		if got := binary.LittleEndian.Uint32(now[i*4:]); got != uint32(i+100) {
			t.Fatalf("elem %d = %d, want %d", i, got, i+100)
		}
	}
}

func TestVectorVectorUpdate(t *testing.T) {
	s := newStore(t)
	vec := make([]byte, 4*4)
	params := make([]byte, 4*4)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], uint32(10*i))
		binary.LittleEndian.PutUint32(params[i*4:], uint32(i+1))
	}
	mustPut(t, s, []byte("v"), vec)
	if _, err := s.UpdateVectorToVector([]byte("v"), FnAdd, 4, params); err != nil {
		t.Fatal(err)
	}
	now, _ := s.Get([]byte("v"))
	for i := 0; i < 4; i++ {
		want := uint32(10*i + i + 1)
		if got := binary.LittleEndian.Uint32(now[i*4:]); got != want {
			t.Fatalf("elem %d = %d, want %d", i, got, want)
		}
	}
	// Mismatched element count fails and leaves the vector unchanged.
	if _, err := s.UpdateVectorToVector([]byte("v"), FnAdd, 4, params[:8]); err != ErrParamWidth {
		t.Errorf("expected ErrParamWidth, got %v", err)
	}
	after, _ := s.Get([]byte("v"))
	if !bytes.Equal(after, now) {
		t.Error("failed V2V update mutated the value")
	}
}

func TestReduceSum(t *testing.T) {
	s := newStore(t)
	vec := make([]byte, 8*10)
	for i := 0; i < 10; i++ {
		binary.LittleEndian.PutUint64(vec[i*8:], uint64(i+1))
	}
	mustPut(t, s, []byte("v"), vec)
	sum, err := s.Reduce([]byte("v"), FnAdd, 8, 0)
	if err != nil || sum != 55 {
		t.Fatalf("reduce sum = %d err=%v, want 55", sum, err)
	}
	mx, err := s.Reduce([]byte("v"), FnMax, 8, 0)
	if err != nil || mx != 10 {
		t.Fatalf("reduce max = %d err=%v", mx, err)
	}
	if _, err := s.Reduce([]byte("missing"), FnAdd, 8, 0); err != ErrNotFound {
		t.Errorf("missing key reduce: %v", err)
	}
}

func TestFilterNonZero(t *testing.T) {
	s := newStore(t)
	vec := make([]byte, 4*6)
	vals := []uint32{0, 5, 0, 7, 9, 0}
	for i, v := range vals {
		binary.LittleEndian.PutUint32(vec[i*4:], v)
	}
	mustPut(t, s, []byte("sparse"), vec)
	out, err := s.Filter([]byte("sparse"), FilterNonZero, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 {
		t.Fatalf("filtered %d bytes, want 12", len(out))
	}
	want := []uint32{5, 7, 9}
	for i, w := range want {
		if got := binary.LittleEndian.Uint32(out[i*4:]); got != w {
			t.Errorf("filtered[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestCustomUpdateFunction(t *testing.T) {
	s := newStore(t)
	const fnScale uint8 = 100
	s.RegisterUpdateFunc(fnScale, func(e, p uint64) uint64 { return e * p })
	mustPut(t, s, []byte("x"), u64(6))
	if _, err := s.Update([]byte("x"), fnScale, 8, 7); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get([]byte("x"))
	if binary.LittleEndian.Uint64(v) != 42 {
		t.Errorf("custom fn result = %d", binary.LittleEndian.Uint64(v))
	}
}

func TestVectorOnMissingKey(t *testing.T) {
	s := newStore(t)
	if _, err := s.UpdateScalarToVector([]byte("nope"), FnAdd, 4, 1); err != ErrNotFound {
		t.Errorf("S2V on missing: %v", err)
	}
	if _, err := s.Filter([]byte("nope"), FilterNonZero, 4); err != ErrNotFound {
		t.Errorf("filter on missing: %v", err)
	}
}

func TestBadVectorLength(t *testing.T) {
	s := newStore(t)
	mustPut(t, s, []byte("odd"), []byte{1, 2, 3}) // not a multiple of 4
	if _, err := s.UpdateScalarToVector([]byte("odd"), FnAdd, 4, 1); err != ErrBadVector {
		t.Errorf("expected ErrBadVector, got %v", err)
	}
	if _, err := s.Reduce([]byte("odd"), FnAdd, 4, 0); err != ErrBadVector {
		t.Errorf("reduce: expected ErrBadVector, got %v", err)
	}
}

func TestPipelinedMixedOpsOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewStore(Config{MemoryBytes: 4 << 20, Seed: uint64(seed)})
		if err != nil {
			return false
		}
		defer s.Close()
		oracle := map[string][]byte{}
		keys := make([]string, 20)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", i)
		}
		good := true
		for i := 0; i < 400; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(4) {
			case 0:
				v := make([]byte, rng.Intn(300))
				rng.Read(v)
				s.SubmitPut([]byte(k), v, nil)
				oracle[k] = v
			case 1:
				want, wantOK := oracle[k]
				wc := append([]byte(nil), want...)
				s.SubmitGet([]byte(k), func(v []byte, ok bool, _ error) {
					if ok != wantOK || (ok && !bytes.Equal(v, wc)) {
						good = false
					}
				})
			case 2:
				s.SubmitDelete([]byte(k), nil)
				delete(oracle, k)
			case 3:
				// Atomic add on an 8-byte counter key space.
				ck := "ctr-" + k
				s.SubmitUpdate([]byte(ck), FnAdd, 8, 1, nil)
				cur := uint64(0)
				if old, ok := oracle[ck]; ok {
					cur = binary.LittleEndian.Uint64(old)
				}
				oracle[ck] = u64(cur + 1)
			}
		}
		s.Flush()
		if !good {
			return false
		}
		for k, want := range oracle {
			v, ok := s.Get([]byte(k))
			if !ok || !bytes.Equal(v, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestDisableOoOStillCorrect(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 4 << 20, DisableOoO: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 100; i++ {
		s.SubmitUpdate([]byte("ctr"), FnAdd, 8, 1, nil)
	}
	s.Flush()
	v, _ := s.Get([]byte("ctr"))
	if binary.LittleEndian.Uint64(v) != 100 {
		t.Errorf("counter = %d, want 100", binary.LittleEndian.Uint64(v))
	}
	if s.Stats().Engine.Forwarded != 0 {
		t.Error("stall mode forwarded operations")
	}
}

func TestDisableCacheBaseline(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 4 << 20, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	mustPut(t, s, []byte("k"), []byte("v"))
	if got := s.Stats().Dispatch; got.CachedReads+got.CachedWrites != 0 {
		t.Errorf("baseline store used NIC DRAM: %+v", got)
	}
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Error("baseline store broken")
	}
}

func TestStatsAndCounters(t *testing.T) {
	s := newStore(t)
	mustPut(t, s, []byte("a"), []byte("1"))
	st := s.Stats()
	if st.Keys != 1 || st.PayloadBytes != 2 {
		t.Errorf("stats keys/payload = %d/%d", st.Keys, st.PayloadBytes)
	}
	if st.Mem.Accesses() == 0 {
		t.Error("no memory accesses recorded")
	}
	s.ResetCounters()
	if s.Stats().Mem.Accesses() != 0 {
		t.Error("ResetCounters did not reset memory stats")
	}
	if s.Stats().Keys != 1 {
		t.Error("ResetCounters dropped data stats")
	}
}

func TestForwardingVisibleInStats(t *testing.T) {
	s := newStore(t)
	// Pipelined dependent atomics: most should forward.
	for i := 0; i < 200; i++ {
		s.SubmitUpdate([]byte("hot"), FnAdd, 8, 1, nil)
	}
	s.Flush()
	if mr := s.Stats().Engine.MergeRatio(); mr < 0.5 {
		t.Errorf("merge ratio = %.2f, want most ops forwarded", mr)
	}
	v, _ := s.Get([]byte("hot"))
	if binary.LittleEndian.Uint64(v) != 200 {
		t.Errorf("hot counter = %d", binary.LittleEndian.Uint64(v))
	}
}

func TestApplyWireOps(t *testing.T) {
	s := newStore(t)
	resps := s.ApplyBatch([]wire.Request{
		{Code: wire.OpPut, Key: []byte("k"), Value: []byte("v1")},
		{Code: wire.OpGet, Key: []byte("k")},
		{Code: wire.OpUpdateScalar, Key: []byte("n"), FuncID: FnAdd, ElemWidth: 8,
			Param: u64(7)},
		{Code: wire.OpGet, Key: []byte("n")},
		{Code: wire.OpDelete, Key: []byte("k")},
		{Code: wire.OpGet, Key: []byte("k")},
	})
	if resps[0].Status != wire.StatusOK {
		t.Errorf("put: %+v", resps[0])
	}
	if resps[1].Status != wire.StatusOK || string(resps[1].Value) != "v1" {
		t.Errorf("get: %+v", resps[1])
	}
	if resps[2].Status != wire.StatusOK || binary.LittleEndian.Uint64(resps[2].Value) != 0 {
		t.Errorf("update old: %+v", resps[2])
	}
	if binary.LittleEndian.Uint64(resps[3].Value) != 7 {
		t.Errorf("counter after update: %+v", resps[3])
	}
	if resps[4].Status != wire.StatusOK {
		t.Errorf("delete: %+v", resps[4])
	}
	if resps[5].Status != wire.StatusNotFound {
		t.Errorf("get after delete: %+v", resps[5])
	}
}

func TestApplyVectorOps(t *testing.T) {
	s := newStore(t)
	vec := make([]byte, 16)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], uint32(i+1))
	}
	p4 := make([]byte, 4)
	binary.LittleEndian.PutUint32(p4, 10)
	init := make([]byte, 8)
	resps := s.ApplyBatch([]wire.Request{
		{Code: wire.OpPut, Key: []byte("v"), Value: vec},
		{Code: wire.OpUpdateS2V, Key: []byte("v"), FuncID: FnAdd, ElemWidth: 4, Param: p4},
		{Code: wire.OpReduce, Key: []byte("v"), FuncID: FnAdd, ElemWidth: 4, Param: init[:4]},
		{Code: wire.OpFilter, Key: []byte("v"), FuncID: FilterOdd, ElemWidth: 4},
	})
	for i, r := range resps {
		if r.Status != wire.StatusOK {
			t.Fatalf("resp %d: %+v", i, r)
		}
	}
	// After +10: 11,12,13,14. Sum = 50.
	if got := binary.LittleEndian.Uint64(resps[2].Value); got != 50 {
		t.Errorf("reduce = %d, want 50", got)
	}
	// Odd elements: 11, 13.
	if len(resps[3].Value) != 8 {
		t.Errorf("filter returned %d bytes", len(resps[3].Value))
	}
}

func TestApplyErrors(t *testing.T) {
	s := newStore(t)
	r := s.Apply(wire.Request{Code: wire.OpGet, Key: []byte("missing")})
	if r.Status != wire.StatusNotFound {
		t.Errorf("missing get: %+v", r)
	}
	r = s.Apply(wire.Request{Code: wire.OpCode(77), Key: []byte("k")})
	if r.Status != wire.StatusError {
		t.Errorf("bad opcode: %+v", r)
	}
	r = s.Apply(wire.Request{Code: wire.OpUpdateScalar, Key: []byte("k"),
		FuncID: FnAdd, ElemWidth: 8, Param: []byte{1}})
	if r.Status != wire.StatusError {
		t.Errorf("short param: %+v", r)
	}
}

// TestStoreUseAfterClose: Close unmaps the simulated DRAM, and an op
// applied afterwards fails the emptied array's bounds check — a panic
// ApplyRun answers as that op's error, not a fault on unmapped pages.
func TestStoreUseAfterClose(t *testing.T) {
	s := newStore(t)
	key := []byte("before-close")
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	reqs := []wire.Request{
		{Code: wire.OpGet, Key: key},
		{Code: wire.OpPut, Key: []byte("after-close"), Value: []byte("v")},
	}
	out := make([]wire.Response, len(reqs))
	if panics := s.ApplyRun(reqs, out, nil); panics != len(reqs) {
		t.Errorf("ApplyRun after Close contained %d panics, want %d", panics, len(reqs))
	}
	for i, r := range out {
		if r.Status != wire.StatusError || !strings.Contains(string(r.Value), "out of range") {
			t.Errorf("%s after Close answered %+v, want an out-of-range error", reqs[i].Code, r)
		}
	}
	s.Close() // idempotent
}

// TestStoreDRAMOffHeap: a 256 MiB store's host memory and NIC DRAM are
// mapped outside the Go heap — writing keys across its whole hash index
// grows the heap's live objects by a few MiB of metadata, not by the
// store's size — and Close unmaps them.
func TestStoreDRAMOffHeap(t *testing.T) {
	heapObjects := func() uint64 {
		runtime.GC()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	before := heapObjects()
	s, err := NewStore(Config{MemoryBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	for i := 0; i < 1<<14; i++ {
		if err := s.Put(fmt.Appendf(nil, "k%05d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if grew := int64(heapObjects()) - int64(before); grew >= 8<<20 {
		t.Errorf("a 256 MiB store grew the heap's objects by %d MiB, want < 8", grew>>20)
	}
	runtime.KeepAlive(s)
	s.Close()
	if n := s.mem.Size(); n != 0 {
		t.Errorf("host memory still %d bytes after Close, want 0", n)
	}
}

func TestConfigDefaults(t *testing.T) {
	s, err := NewStore(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	cfg := s.Config()
	if cfg.MemoryBytes != 256<<20 || cfg.HashIndexRatio != 0.5 ||
		cfg.InlineThreshold != 13 || cfg.NICCacheBytes != 16<<20 ||
		cfg.LoadDispatchRatio != 0.5 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
	// -1 disables inlining.
	s2, _ := NewStore(Config{MemoryBytes: 1 << 20, InlineThreshold: -1})
	t.Cleanup(s2.Close)
	if s2.Config().InlineThreshold != 0 {
		t.Error("InlineThreshold -1 should become 0")
	}
}

func TestStoreScanAndVerify(t *testing.T) {
	s := newStore(t)
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("sv-%03d", i)
		v := fmt.Sprintf("val-%03d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Pipelined writes still in flight must be visible to Walk (it
	// flushes first).
	s.SubmitPut([]byte("inflight"), []byte("yes"), nil)
	got := map[string]string{}
	s.Walk(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if got["inflight"] != "yes" {
		t.Error("Walk missed in-flight write")
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan mismatch for %s", k)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	rep, err := s.Fsck()
	if err != nil || rep.Keys != s.NumKeys() {
		t.Fatalf("Fsck: %v keys=%d", err, rep.Keys)
	}
}

func TestVerifyAfterHeavyChurn(t *testing.T) {
	s := newStore(t)
	rng := rand.New(rand.NewSource(5))
	for op := 0; op < 5000; op++ {
		k := []byte(fmt.Sprintf("churn-%03d", rng.Intn(300)))
		switch rng.Intn(3) {
		case 0:
			v := make([]byte, rng.Intn(600))
			rng.Read(v)
			s.SubmitPut(k, v, nil)
		case 1:
			s.SubmitGet(k, nil)
		case 2:
			s.SubmitDelete(k, nil)
		}
	}
	s.Flush()
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify after churn: %v", err)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	src := newStore(t)
	rng := rand.New(rand.NewSource(9))
	want := map[string][]byte{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("dump-%04d", i)
		v := make([]byte, rng.Intn(600))
		rng.Read(v)
		if err := src.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	var buf bytes.Buffer
	n, err := src.Dump(&buf)
	if err != nil || n != 500 {
		t.Fatalf("Dump: %d, %v", n, err)
	}

	// Restore into a differently configured store.
	dst, err := NewStore(Config{MemoryBytes: 8 << 20, InlineThreshold: -1, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dst.Close)
	m, err := dst.Load(&buf)
	if err != nil || m != 500 {
		t.Fatalf("Load: %d, %v", m, err)
	}
	for k, v := range want {
		got, ok := dst.Get([]byte(k))
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("restored store differs at %s", k)
		}
	}
	if err := dst.Verify(); err != nil {
		t.Fatalf("restored store fails fsck: %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	s := newStore(t)
	if _, err := s.Load(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("garbage dump accepted")
	}
	if _, err := s.Load(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestDumpEmptyStore(t *testing.T) {
	s := newStore(t)
	var buf bytes.Buffer
	n, err := s.Dump(&buf)
	if err != nil || n != 0 {
		t.Fatalf("empty dump: %d, %v", n, err)
	}
	m, err := s.Load(&buf)
	if err != nil || m != 0 {
		t.Fatalf("empty load: %d, %v", m, err)
	}
}
