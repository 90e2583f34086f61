package ooo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// mapExec is a trivial Executor over a Go map, counting pipeline calls.
type mapExec struct {
	m     map[string][]byte
	calls int
}

func newMapExec() *mapExec { return &mapExec{m: map[string][]byte{}} }

func (e *mapExec) Get(key []byte) ([]byte, bool) {
	e.calls++
	v, ok := e.m[string(key)]
	return v, ok
}

func (e *mapExec) Put(key, value []byte) error {
	e.calls++
	e.m[string(key)] = append([]byte(nil), value...)
	return nil
}

func (e *mapExec) Delete(key []byte) bool {
	e.calls++
	_, ok := e.m[string(key)]
	delete(e.m, string(key))
	return ok
}

func hashOf(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func submitGet(e *Engine, key string, done func(v []byte, ok bool)) {
	e.Submit(&Op{Kind: Get, Key: []byte(key), KeyHash: hashOf([]byte(key)),
		Done: func(v []byte, ok bool, _ error) { done(v, ok) }})
}

func submitPut(e *Engine, key, val string) {
	e.Submit(&Op{Kind: Put, Key: []byte(key), KeyHash: hashOf([]byte(key)),
		Value: []byte(val)})
}

func TestGetAfterPutSameKeyConsistent(t *testing.T) {
	// A GET following an in-flight PUT on the same key must return the
	// new value (the paper's data-hazard example).
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	submitPut(e, "k", "v1")
	var got []byte
	var ok bool
	submitGet(e, "k", func(v []byte, o bool) { got, ok = v, o })
	e.Flush()
	if !ok || string(got) != "v1" {
		t.Fatalf("GET after in-flight PUT = %q,%v, want v1", got, ok)
	}
	// The GET must have been forwarded, not issued to the pipeline.
	if e.Stats().Forwarded != 1 {
		t.Errorf("forwarded = %d, want 1", e.Stats().Forwarded)
	}
}

func TestChainedPutsLastWins(t *testing.T) {
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	for i := 0; i < 10; i++ {
		submitPut(e, "k", fmt.Sprintf("v%d", i))
	}
	e.Flush()
	if v := ex.m["k"]; string(v) != "v9" {
		t.Fatalf("final value = %q, want v9", v)
	}
}

func TestAtomicFetchAddSingleKey(t *testing.T) {
	// Dependent atomics on one key: each returns the previous value and
	// all but the first are forwarded.
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	add1 := func(old []byte) []byte {
		var v uint64
		if len(old) == 8 {
			v = binary.LittleEndian.Uint64(old)
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, v+1)
		return out
	}
	var observed []uint64
	const n = 100
	for i := 0; i < n; i++ {
		e.Submit(&Op{Kind: Atomic, Key: []byte("ctr"), KeyHash: hashOf([]byte("ctr")),
			Fn: add1, Done: func(v []byte, ok bool, _ error) {
				var x uint64
				if len(v) == 8 {
					x = binary.LittleEndian.Uint64(v)
				}
				observed = append(observed, x)
			}})
	}
	e.Flush()
	if len(observed) != n {
		t.Fatalf("%d completions, want %d", len(observed), n)
	}
	for i, x := range observed {
		if x != uint64(i) {
			t.Fatalf("atomic %d returned old=%d, want %d", i, x, i)
		}
	}
	final := ex.m["ctr"]
	if binary.LittleEndian.Uint64(final) != n {
		t.Errorf("final counter = %d, want %d", binary.LittleEndian.Uint64(final), n)
	}
	if got := e.Stats().Forwarded; got < n-2 {
		t.Errorf("forwarded = %d, want >= %d", got, n-2)
	}
}

func TestDeleteInChain(t *testing.T) {
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	submitPut(e, "k", "v")
	e.Submit(&Op{Kind: Delete, Key: []byte("k"), KeyHash: hashOf([]byte("k"))})
	var ok bool
	submitGet(e, "k", func(_ []byte, o bool) { ok = o })
	e.Flush()
	if ok {
		t.Error("GET after chained DELETE found the key")
	}
	if _, present := ex.m["k"]; present {
		t.Error("key survived chained DELETE")
	}
}

func TestHashCollisionFalsePositiveStillCorrect(t *testing.T) {
	// Two different keys in the same reservation-station slot are treated
	// as dependent but must both execute correctly.
	ex := newMapExec()
	e := NewEngine(ex, 1, 0) // 1 RS slot: every pair of keys collides
	submitPut(e, "alpha", "A")
	submitPut(e, "beta", "B")
	var va, vb []byte
	submitGet(e, "alpha", func(v []byte, _ bool) { va = v })
	submitGet(e, "beta", func(v []byte, _ bool) { vb = v })
	e.Flush()
	if string(va) != "A" || string(vb) != "B" {
		t.Fatalf("collision handling wrong: alpha=%q beta=%q", va, vb)
	}
}

func TestWindowBoundsInflight(t *testing.T) {
	ex := newMapExec()
	e := NewEngine(ex, 0, 8)
	for i := 0; i < 100; i++ {
		submitPut(e, fmt.Sprintf("k%d", i), "v")
	}
	if e.InFlight() > 8 {
		t.Errorf("in-flight = %d, window 8", e.InFlight())
	}
	e.Flush()
	if e.InFlight() != 0 {
		t.Errorf("in-flight after flush = %d", e.InFlight())
	}
	if len(ex.m) != 100 {
		t.Errorf("stored %d keys, want 100", len(ex.m))
	}
}

func TestStallModeFunctionallyEquivalent(t *testing.T) {
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	e.Stall = true
	submitPut(e, "k", "v1")
	var got []byte
	submitGet(e, "k", func(v []byte, _ bool) { got = v })
	e.Flush()
	if string(got) != "v1" {
		t.Fatalf("stall-mode GET = %q", got)
	}
	if e.Stats().Forwarded != 0 {
		t.Error("stall mode should not forward")
	}
}

func TestEngineMatchesOracleProperty(t *testing.T) {
	// Random interleavings of ops through the engine produce the same
	// final state and GET results as sequential execution on a map.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ex := newMapExec()
		e := NewEngine(ex, 64, 16) // small RS + window: heavy chaining
		oracle := map[string][]byte{}
		keys := []string{"a", "b", "c", "d", "e"}
		okAll := true
		for i := 0; i < 500; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(3) {
			case 0:
				v := fmt.Sprintf("v%d", i)
				submitPut(e, k, v)
				oracle[k] = []byte(v)
			case 1:
				want, wantOK := oracle[k]
				wantCopy := append([]byte(nil), want...)
				submitGet(e, k, func(v []byte, ok bool) {
					if ok != wantOK || (ok && !bytes.Equal(v, wantCopy)) {
						okAll = false
					}
				})
			case 2:
				e.Submit(&Op{Kind: Delete, Key: []byte(k), KeyHash: hashOf([]byte(k))})
				delete(oracle, k)
			}
		}
		e.Flush()
		if !okAll {
			return false
		}
		if len(ex.m) != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if !bytes.Equal(ex.m[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestForwardingSavesPipelineCalls(t *testing.T) {
	// 1 head + N-1 forwarded GETs should cost ~1 executor call, not N.
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	submitPut(e, "hot", "x")
	for i := 0; i < 50; i++ {
		submitGet(e, "hot", func([]byte, bool) {})
	}
	e.Flush()
	if ex.calls > 3 {
		t.Errorf("executor calls = %d, want <= 3 (put + maybe writeback)", ex.calls)
	}
}

func TestMergeRatio(t *testing.T) {
	var s Stats
	if s.MergeRatio() != 0 {
		t.Error("zero stats merge ratio")
	}
	s.Submitted, s.Forwarded = 10, 4
	if s.MergeRatio() != 0.4 {
		t.Errorf("merge ratio = %g", s.MergeRatio())
	}
}

// --- timing simulator ---

func TestSimSingleKeyAtomicsMatchesPaper(t *testing.T) {
	// Figure 13a: without OoO, single-key atomics run at ~0.95 Mops
	// (one memory latency per op); with OoO they reach the 180 Mops
	// clock bound — a ~191x improvement.
	ops := make([]SimOp, 200000)
	for i := range ops {
		ops[i] = SimOp{Key: 42, Write: true}
	}
	stall := DefaultSimConfig(false).Simulate(ops)
	if stall.OpsPerSec < 0.8e6 || stall.OpsPerSec > 1.1e6 {
		t.Errorf("stall single-key atomics = %.2f Mops, want ~0.95", stall.OpsPerSec/1e6)
	}
	oooRes := DefaultSimConfig(true).Simulate(ops)
	if oooRes.OpsPerSec < 170e6 {
		t.Errorf("OoO single-key atomics = %.1f Mops, want ~180", oooRes.OpsPerSec/1e6)
	}
	improvement := oooRes.OpsPerSec / stall.OpsPerSec
	if improvement < 150 || improvement > 230 {
		t.Errorf("OoO improvement = %.0fx, paper reports 191x", improvement)
	}
}

func TestSimStallScalesLinearlyWithKeys(t *testing.T) {
	// Figure 13a: without OoO, atomics throughput grows linearly with the
	// number of independent keys.
	rate := func(nKeys int) float64 {
		rng := rand.New(rand.NewSource(7))
		ops := make([]SimOp, 100000)
		for i := range ops {
			ops[i] = SimOp{Key: uint64(rng.Intn(nKeys)), Write: true}
		}
		return DefaultSimConfig(false).Simulate(ops).OpsPerSec
	}
	r1, r4, r16, r64 := rate(1), rate(4), rate(16), rate(64)
	// Growth with key count (head-of-line blocking on random arrivals
	// makes it sub-linear, but the trend must hold)...
	if !(r1 < r4 && r4 < r16 && r16 < r64) {
		t.Errorf("stall rate not increasing: %.2f %.2f %.2f %.2f Mops",
			r1/1e6, r4/1e6, r16/1e6, r64/1e6)
	}
	if r16 < 3.5*r1 {
		t.Errorf("16-key rate %.2f Mops, want >= 3.5x 1-key %.2f", r16/1e6, r1/1e6)
	}
	// ...while staying far from the 180 Mops OoO bound (Figure 13a).
	if r64 > 60e6 {
		t.Errorf("64-key stall rate %.1f Mops suspiciously close to clock", r64/1e6)
	}
}

func TestSimOoOFlatAcrossKeyCounts(t *testing.T) {
	for _, nKeys := range []int{1, 16, 1024} {
		rng := rand.New(rand.NewSource(9))
		ops := make([]SimOp, 100000)
		for i := range ops {
			ops[i] = SimOp{Key: uint64(rng.Intn(nKeys)), Write: true}
		}
		r := DefaultSimConfig(true).Simulate(ops)
		if r.OpsPerSec < 170e6 {
			t.Errorf("OoO with %d keys = %.1f Mops, want clock bound", nKeys, r.OpsPerSec/1e6)
		}
	}
}

func TestSimLongTailPutRatioDegradesStallOnly(t *testing.T) {
	// Figure 13b: under a long-tail workload, higher PUT ratio increases
	// stall probability without OoO; with OoO throughput stays at clock.
	gen := func(putRatio float64) []SimOp {
		rng := rand.New(rand.NewSource(11))
		z := rand.NewZipf(rng, 1.2, 1, 1<<20)
		ops := make([]SimOp, 100000)
		for i := range ops {
			ops[i] = SimOp{Key: z.Uint64(), Write: rng.Float64() < putRatio}
		}
		return ops
	}
	stall0 := DefaultSimConfig(false).Simulate(gen(0)).OpsPerSec
	stall100 := DefaultSimConfig(false).Simulate(gen(1)).OpsPerSec
	if stall100 >= stall0 {
		t.Errorf("stall throughput should fall with PUT ratio: 0%%=%.1f 100%%=%.1f Mops",
			stall0/1e6, stall100/1e6)
	}
	ooo100 := DefaultSimConfig(true).Simulate(gen(1)).OpsPerSec
	if ooo100 < 170e6 {
		t.Errorf("OoO long-tail 100%% PUT = %.1f Mops, want clock bound", ooo100/1e6)
	}
	if ooo100 < 1.5*stall100 {
		t.Errorf("OoO should beat stall substantially: %.1f vs %.1f Mops",
			ooo100/1e6, stall100/1e6)
	}
}

func TestSimEmptyStream(t *testing.T) {
	r := DefaultSimConfig(true).Simulate(nil)
	if r.Ops != 0 || r.OpsPerSec != 0 {
		t.Errorf("empty stream result: %+v", r)
	}
}

func TestArrivalsDuringWritebackChainCorrectly(t *testing.T) {
	// An atomic leaves a dirty value; its write-back keeps the slot
	// occupied. Ops arriving before the write-back completes must chain
	// and observe the cached value.
	ex := newMapExec()
	e := NewEngine(ex, 0, 4) // tiny window: forces interleaved retires
	add1 := func(old []byte) []byte {
		v := byte(0)
		if len(old) == 1 {
			v = old[0]
		}
		return []byte{v + 1}
	}
	var seen []byte
	for i := 0; i < 20; i++ {
		e.Submit(&Op{Kind: Atomic, Key: []byte("wb"), KeyHash: hashOf([]byte("wb")),
			Fn: add1, Done: func(v []byte, _ bool, _ error) {
				if len(v) == 1 {
					seen = append(seen, v[0])
				} else {
					seen = append(seen, 0)
				}
			}})
	}
	e.Flush()
	for i, v := range seen {
		if int(v) != i {
			t.Fatalf("atomic %d observed %d", i, v)
		}
	}
	if ex.m["wb"][0] != 20 {
		t.Fatalf("final = %d, want 20", ex.m["wb"][0])
	}
	if e.Stats().Writebacks == 0 {
		t.Error("expected write-backs")
	}
}

func TestCollisionPromotionAfterWriteback(t *testing.T) {
	// Same RS slot, different keys, with the first key dirty: after its
	// write-back, the colliding key's op must still execute.
	ex := newMapExec()
	e := NewEngine(ex, 1, 0)
	e.Submit(&Op{Kind: Atomic, Key: []byte("a"), KeyHash: 0,
		Fn: func([]byte) []byte { return []byte{1} }})
	submitPutHash := func(key, val string, h uint64) {
		e.Submit(&Op{Kind: Put, Key: []byte(key), KeyHash: h, Value: []byte(val)})
	}
	submitPutHash("b", "bee", 0) // collides with "a" in the single slot
	var got []byte
	e.Submit(&Op{Kind: Get, Key: []byte("b"), KeyHash: 0,
		Done: func(v []byte, _ bool, _ error) { got = v }})
	e.Flush()
	if string(ex.m["a"]) != "\x01" {
		t.Errorf("a = %q", ex.m["a"])
	}
	if string(got) != "bee" || string(ex.m["b"]) != "bee" {
		t.Errorf("b = %q / %q", got, ex.m["b"])
	}
}

func TestDeleteThenAtomicRecreates(t *testing.T) {
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	submitPut(e, "k", "old")
	e.Submit(&Op{Kind: Delete, Key: []byte("k"), KeyHash: hashOf([]byte("k"))})
	e.Submit(&Op{Kind: Atomic, Key: []byte("k"), KeyHash: hashOf([]byte("k")),
		Fn: func(old []byte) []byte {
			if old != nil {
				t.Errorf("atomic after chained delete saw %q", old)
			}
			return []byte{7}
		}})
	e.Flush()
	if v := ex.m["k"]; len(v) != 1 || v[0] != 7 {
		t.Fatalf("recreated value = %v", v)
	}
}

func TestDoneCallbackOrderPerKey(t *testing.T) {
	// Completions for one key fire in submission order (head, then chain
	// in order).
	ex := newMapExec()
	e := NewEngine(ex, 0, 0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Submit(&Op{Kind: Put, Key: []byte("k"), KeyHash: hashOf([]byte("k")),
			Value: []byte{byte(i)},
			Done:  func([]byte, bool, error) { order = append(order, i) }})
	}
	e.Flush()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order: %v", order)
		}
	}
}

func TestNilFnlessAtomicWritebackError(t *testing.T) {
	// A write-back that fails (executor rejects the put) is counted, not
	// silently dropped.
	ex := &failingExec{mapExec: newMapExec(), failPuts: true}
	e := NewEngine(ex, 0, 0)
	e.Submit(&Op{Kind: Atomic, Key: []byte("k"), KeyHash: 1,
		Fn: func([]byte) []byte { return []byte{1} }})
	e.Flush()
	if e.Stats().WritebackErrors != 1 {
		t.Errorf("writeback errors = %d, want 1", e.Stats().WritebackErrors)
	}
}

type failingExec struct {
	*mapExec
	failPuts bool
}

func (f *failingExec) Put(key, value []byte) error {
	if f.failPuts {
		return errFull
	}
	return f.mapExec.Put(key, value)
}

var errFull = fmt.Errorf("synthetic full")

func TestSubmitFlushCyclesReuseEngineStorage(t *testing.T) {
	// The pipeline FIFO once popped with queue = queue[1:], which shrank the
	// backing array's usable capacity by one per operation, so append
	// reallocated it forever. The FIFO, the entry and the result slot must
	// all be reused.
	ex := newMapExec()
	ex.m["k"] = []byte("v")
	e := NewEngine(ex, 0, 0)
	key := []byte("k")
	op := Op{Kind: Get, Key: key, KeyHash: hashOf(key)}
	do := func() {
		if v, ok, err := e.Do(&op); string(v) != "v" || !ok || err != nil {
			t.Fatalf("Do = %q, %v, %v", v, ok, err)
		}
	}
	do()
	queueCap := cap(e.queue)
	for i := 0; i < 1_000_000; i++ {
		e.Submit(&op)
		e.Flush()
	}
	if cap(e.queue) != queueCap {
		t.Errorf("cap(queue) went from %d to %d over 1M submit/flush cycles", queueCap, cap(e.queue))
	}
	if len(e.free) != 1 {
		t.Errorf("%d entries on the free list, want the one entry recycled", len(e.free))
	}
	if allocs := testing.AllocsPerRun(1000, do); allocs != 0 {
		t.Errorf("Do allocates %v times per op on a warm engine", allocs)
	}
	if got := e.Stats(); got.Submitted != got.Issued || got.Forwarded != 0 {
		t.Errorf("stats = %+v, want every op issued", got)
	}
}

func TestNestedDoKeepsOutcomesApart(t *testing.T) {
	// A Done callback may issue a synchronous op while an outer Do is
	// draining the pipeline; the inner flush even completes the outer op.
	// Each call must still get its own outcome.
	ex := newMapExec()
	ex.m["inner"], ex.m["outer"] = []byte("in"), []byte("out")
	e := NewEngine(ex, 0, 0)
	var inner []byte
	e.Submit(&Op{Kind: Put, Key: []byte("p"), KeyHash: hashOf([]byte("p")), Value: []byte("x"),
		Done: func([]byte, bool, error) {
			inner, _, _ = e.Do(&Op{Kind: Get, Key: []byte("inner"), KeyHash: hashOf([]byte("inner"))})
		}})
	outer, ok, err := e.Do(&Op{Kind: Get, Key: []byte("outer"), KeyHash: hashOf([]byte("outer"))})
	if string(outer) != "out" || !ok || err != nil {
		t.Errorf("outer Do = %q, %v, %v", outer, ok, err)
	}
	if string(inner) != "in" {
		t.Errorf("inner Do = %q", inner)
	}
	if len(e.results) != 0 {
		t.Errorf("%d outcome slots left in use", len(e.results))
	}
}
