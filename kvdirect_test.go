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
	t.Cleanup(s.Close)
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

// TestExecuteIsolatesPanickingOp: a registered λ that panics is
// answered as its own op's error, as a served batch's is, and the ops
// on either side of it apply.
func TestExecuteIsolatesPanickingOp(t *testing.T) {
	s := newStore(t)
	s.RegisterUpdateFunc(100, func(e, p uint64) uint64 { return e / (p - p) })
	res := Execute(s, []Op{
		{Code: OpPut, Key: []byte("before"), Value: []byte("1")},
		{Code: OpUpdateScalar, Key: []byte("boom"), FuncID: 100, ElemWidth: 8, Param: make([]byte, 8)},
		{Code: OpPut, Key: []byte("after"), Value: []byte("2")},
	})
	if len(res) != 3 || res[1].Status != StatusError {
		t.Fatalf("results %+v, want the λ op answered StatusError", res)
	}
	for key, want := range map[string]string{"before": "1", "after": "2"} {
		if v, ok := s.Get([]byte(key)); !ok || string(v) != want {
			t.Errorf("GET %s = %q (found %v), want %q", key, v, ok, want)
		}
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

// TestShardOfBalancedAndBounded: placement is a pure function of the
// key that spreads keys evenly and never leaves [0, n).
func TestShardOfBalancedAndBounded(t *testing.T) {
	const n, shards = 2000, 4
	counts := make([]int, shards)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("cluster-key-%05d", i))
		s := ShardOf(k, shards)
		if s != ShardOf(k, shards) {
			t.Fatalf("key %q placed twice differently", k)
		}
		counts[s]++
	}
	for i, cnt := range counts {
		if math.Abs(float64(cnt)-n/shards) > n/(2*shards) {
			t.Errorf("shard %d owns %d keys, want ~%d", i, cnt, n/shards)
		}
	}
	f := func(key []byte, n uint8) bool {
		shards := int(n)%16 + 1
		s := ShardOf(key, shards)
		return s >= 0 && s < shards
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDoSharded: every op reaches the shard that owns its key, each
// shard sees its ops in batch order, results come back in batch order,
// and a batch one shard owns is handed over as it is.
func TestDoSharded(t *testing.T) {
	const shards = 3
	ops := make([]Op, 40)
	for i := range ops {
		ops[i] = Op{Code: OpGet, Key: []byte(fmt.Sprintf("k%02d", i))}
	}
	calls := 0
	echo := func(s int, sub []Op) ([]Result, error) {
		calls++
		res := make([]Result, len(sub))
		for j, op := range sub {
			if ShardOf(op.Key, shards) != s {
				t.Errorf("op %q handed to shard %d", op.Key, s)
			}
			if j > 0 && bytes.Compare(sub[j-1].Key, op.Key) >= 0 {
				t.Errorf("shard %d sees %q after %q", s, op.Key, sub[j-1].Key)
			}
			res[j] = Result{Status: StatusOK, Value: op.Key}
		}
		return res, nil
	}
	res, err := DoSharded(ops, shards, echo)
	if err != nil || len(res) != len(ops) || calls != shards {
		t.Fatalf("DoSharded: %d results, %d calls, err %v", len(res), calls, err)
	}
	for i, r := range res {
		if !bytes.Equal(r.Value, ops[i].Key) {
			t.Fatalf("result %d answers %q, want %q", i, r.Value, ops[i].Key)
		}
	}
	// One owner: the batch itself goes through, for any n.
	for _, n := range []int{1, shards} {
		one := []Op{ops[0], ops[0]}
		_, err := DoSharded(one, n, func(s int, sub []Op) ([]Result, error) {
			if &sub[0] != &one[0] {
				t.Errorf("n=%d: single-owner batch was copied", n)
			}
			return make([]Result, len(sub)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The first failing shard fails the batch.
	boom := fmt.Errorf("shard down")
	if _, err := DoSharded(ops, shards, func(int, []Op) ([]Result, error) { return nil, boom }); err != boom {
		t.Fatalf("err = %v, want the shard's error", err)
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
