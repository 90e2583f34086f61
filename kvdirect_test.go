package kvdirect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFacadeBasics(t *testing.T) {
	s := newStore(t)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get([]byte("k"))
	if !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	old, err := s.Update([]byte("n"), FnAdd, 8, 7)
	if err != nil || old != 0 {
		t.Fatalf("Update = %d,%v", old, err)
	}
}

func TestExecuteBatch(t *testing.T) {
	s := newStore(t)
	res := Execute(s, []Op{
		{Code: OpPut, Key: []byte("a"), Value: []byte("1")},
		{Code: OpGet, Key: []byte("a")},
		{Code: OpGet, Key: []byte("missing")},
	})
	if !res[0].OK() || !res[1].OK() || string(res[1].Value) != "1" {
		t.Errorf("batch results wrong: %+v", res[:2])
	}
	if !res[2].NotFound() {
		t.Errorf("missing key result: %+v", res[2])
	}
}

func TestEncodeDecodeBatchRoundTrip(t *testing.T) {
	ops := []Op{
		{Code: OpPut, Key: []byte("x"), Value: []byte("y")},
		{Code: OpGet, Key: []byte("x")},
	}
	pkt, err := EncodeBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) == 0 {
		t.Fatal("empty packet")
	}
	// Responses decode via DecodeResults (exercised through a store).
	s := newStore(t)
	res := Execute(s, ops)
	if len(res) != 2 {
		t.Fatalf("results = %d", len(res))
	}
}

func TestCompareAndSwap(t *testing.T) {
	s := newStore(t)
	// CAS on a missing key fails with ErrNotFound.
	if _, _, err := s.CompareAndSwap([]byte("cas"), 8, 0, 1); err != ErrNotFound {
		t.Fatalf("missing-key CAS err = %v", err)
	}
	mustPutU64(t, s, "cas", 10)
	old, swapped, err := s.CompareAndSwap([]byte("cas"), 8, 10, 20)
	if err != nil || !swapped || old != 10 {
		t.Fatalf("CAS(10->20) = %d,%v,%v", old, swapped, err)
	}
	old, swapped, err = s.CompareAndSwap([]byte("cas"), 8, 10, 30)
	if err != nil || swapped || old != 20 {
		t.Fatalf("failed CAS = %d,%v,%v (want observe 20, no swap)", old, swapped, err)
	}
	v, _ := s.Get([]byte("cas"))
	if binary.LittleEndian.Uint64(v) != 20 {
		t.Errorf("value after failed CAS = %d", binary.LittleEndian.Uint64(v))
	}
	// Width validation.
	if _, _, err := s.CompareAndSwap([]byte("cas"), 3, 0, 1); err != ErrBadWidth {
		t.Errorf("bad width: %v", err)
	}
	if err := s.Put([]byte("str"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CompareAndSwap([]byte("str"), 8, 0, 1); err != ErrBadScalar {
		t.Errorf("non-scalar CAS: %v", err)
	}
}

func TestCASLockSemantics(t *testing.T) {
	// A spin-lock built on CAS: repeated acquire/release cycles.
	s := newStore(t)
	mustPutU64(t, s, "lock", 0)
	for i := 0; i < 50; i++ {
		_, acquired, err := s.CompareAndSwap([]byte("lock"), 8, 0, 1)
		if err != nil || !acquired {
			t.Fatalf("acquire %d failed: %v %v", i, acquired, err)
		}
		// Second acquire must fail while held.
		if _, again, _ := s.CompareAndSwap([]byte("lock"), 8, 0, 1); again {
			t.Fatal("lock acquired twice")
		}
		if _, released, _ := s.CompareAndSwap([]byte("lock"), 8, 1, 0); !released {
			t.Fatal("release failed")
		}
	}
}

func mustPutU64(t *testing.T, s *Store, key string, v uint64) {
	t.Helper()
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	if err := s.Put([]byte(key), b); err != nil {
		t.Fatal(err)
	}
}

func TestClusterShardsAndRoutes(t *testing.T) {
	c, err := NewCluster(4, Config{MemoryBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 4 {
		t.Fatalf("NumShards = %d", c.NumShards())
	}
	const n = 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("cluster-key-%05d", i))
		if err := c.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumKeys() != n {
		t.Fatalf("NumKeys = %d, want %d", c.NumKeys(), n)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("cluster-key-%05d", i))
		v, ok := c.Get(k)
		if !ok || !bytes.Equal(v, k) {
			t.Fatalf("key %d lost or corrupted", i)
		}
	}
	// Shards stay balanced (hash routing): no shard more than 2x the mean.
	counts := c.ShardKeyCounts()
	for i, cnt := range counts {
		if math.Abs(float64(cnt)-n/4.0) > n/8.0 {
			t.Errorf("shard %d has %d keys, want ~%d", i, cnt, n/4)
		}
	}
	// Deletes route correctly.
	if !c.Delete([]byte("cluster-key-00000")) {
		t.Error("delete failed")
	}
	if _, ok := c.Get([]byte("cluster-key-00000")); ok {
		t.Error("key survived delete")
	}
}

func TestClusterAtomicsIndependentPerShard(t *testing.T) {
	c, err := NewCluster(3, Config{MemoryBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		key := []byte(fmt.Sprintf("ctr-%d", i%30))
		if _, err := c.Update(key, FnAdd, 8, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	total := uint64(0)
	for i := 0; i < 30; i++ {
		v, ok := c.Get([]byte(fmt.Sprintf("ctr-%d", i)))
		if !ok {
			t.Fatalf("counter %d missing", i)
		}
		total += binary.LittleEndian.Uint64(v)
	}
	if total != 300 {
		t.Errorf("counters sum to %d, want 300", total)
	}
}

func TestClusterRouteStable(t *testing.T) {
	c, _ := NewCluster(5, Config{MemoryBytes: 4 << 20})
	f := func(key []byte) bool {
		if len(key) == 0 {
			return true
		}
		return c.Shard(key) == c.Shard(key)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClusterRejectsZeroShards(t *testing.T) {
	if _, err := NewCluster(0, Config{}); err == nil {
		t.Error("zero-shard cluster accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	if !(Result{Status: StatusOK}).OK() || (Result{Status: StatusOK}).NotFound() {
		t.Error("OK result helpers wrong")
	}
	if !(Result{Status: StatusNotFound}).NotFound() || (Result{Status: StatusNotFound}).OK() {
		t.Error("NotFound result helpers wrong")
	}
}

// TestNewClusterClosesStoresOnError is the regression test for the
// constructor leak: a mid-loop failure used to abandon the stores
// already built without closing them.
func TestNewClusterClosesStoresOnError(t *testing.T) {
	orig := newClusterStore
	defer func() { newClusterStore = orig }()
	var built []*Store
	calls := 0
	newClusterStore = func(cfg Config) (*Store, error) {
		calls++
		if calls == 3 {
			return nil, fmt.Errorf("injected construction failure")
		}
		s, err := New(cfg)
		if err == nil {
			built = append(built, s)
		}
		return s, err
	}
	if _, err := NewCluster(4, Config{MemoryBytes: 4 << 20}); err == nil {
		t.Fatal("NewCluster succeeded despite injected failure")
	}
	if len(built) != 2 {
		t.Fatalf("expected 2 stores built before the failure, got %d", len(built))
	}
	for i, s := range built {
		if !s.Closed() {
			t.Errorf("store %d leaked: not closed after constructor error", i)
		}
	}
}
