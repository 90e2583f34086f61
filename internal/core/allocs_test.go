package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvdirect/internal/wire"
)

// TestApplyAllocs pins the allocation cost of the synchronous data path
// (Apply → Store → engine → executor → hash table → dispatcher → NIC DRAM
// or host memory): the only allocation a GET makes is the value it
// returns, an overwrite PUT that keeps its footprint makes none, and a
// gateway write's only one is its reply. Each
// case runs over 32 keys so both sides of the load dispatcher are
// exercised; AllocsPerRun's own warm-up call keeps one-time scratch
// growth and the engine's first entry out of the count.
func TestApplyAllocs(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 8 << 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	const nKeys = 32
	inlineVals := [][]byte{[]byte("aaaa"), []byte("bbbb")}
	slabVals := [][]byte{bytes.Repeat([]byte{1}, 64), bytes.Repeat([]byte{2}, 64)}
	var inlineKeys, slabKeys, absentKeys, gwKeys [nKeys][]byte
	for i := 0; i < nKeys; i++ {
		inlineKeys[i] = []byte(fmt.Sprintf("inl-%04d", i))
		slabKeys[i] = []byte(fmt.Sprintf("slab-key-%07d", i))
		absentKeys[i] = []byte(fmt.Sprintf("absent-%04d", i))
		gwKeys[i] = []byte(fmt.Sprintf("gw-key-%04d", i))
		mustPut(t, s, inlineKeys[i], inlineVals[0])
		mustPut(t, s, slabKeys[i], slabVals[0])
		mustPut(t, s, gwKeys[i], []byte("native"))
	}
	// A SET of either value keeps the item's footprint, and so does INCR:
	// from the SETs' "0" the runs below count to 9 at most.
	setParam, _ := wire.EncodePutVerParam(wire.PutVerSet, 0)
	incrParam, _ := wire.EncodeCounterParam(wire.CounterIncr, 1, 0, false)
	gwVals := make([][]byte, 2)
	for i := range gwVals {
		gwVals[i], _ = wire.EncodeGwValue(uint32(i), []byte("0"))
	}

	for _, c := range []struct {
		name  string
		op    wire.OpCode
		keys  *[nKeys][]byte
		vals  [][]byte
		param []byte
		want  uint8
		max   float64
	}{
		{"GET hit, inline", wire.OpGet, &inlineKeys, nil, nil, wire.StatusOK, 1},
		{"GET hit, slab", wire.OpGet, &slabKeys, nil, nil, wire.StatusOK, 1},
		{"GET miss", wire.OpGet, &absentKeys, nil, nil, wire.StatusNotFound, 0},
		{"PUT overwrite, inline", wire.OpPut, &inlineKeys, inlineVals, nil, wire.StatusOK, 0},
		{"PUT overwrite, same slab footprint", wire.OpPut, &slabKeys, slabVals, nil, wire.StatusOK, 0},
		{"PUTVER SET overwrite", wire.OpPutVer, &gwKeys, gwVals, setParam, wire.StatusOK, 1},
		{"COUNTERVER INCR", wire.OpCounterVer, &gwKeys, nil, incrParam, wire.StatusOK, 1},
	} {
		// AllocsPerRun truncates its average to a whole number, so measure
		// key by key: an allocation on only one dispatcher side must not
		// average away.
		for _, key := range c.keys {
			n := 0
			got := testing.AllocsPerRun(8, func() {
				req := wire.Request{Code: c.op, Key: key, Param: c.param}
				if c.vals != nil {
					req.Value = c.vals[n%2]
				}
				n++
				if resp := s.Apply(req); resp.Status != c.want {
					t.Fatalf("%s %q: status %d, want %d", c.name, key, resp.Status, c.want)
				}
			})
			if got > c.max {
				t.Errorf("%s %q: %v allocs/op, want at most %v", c.name, key, got, c.max)
			}
		}
	}
	if st := s.Stats().Dispatch; st.CachedWrites == 0 || st.DirectWrites == 0 {
		t.Errorf("keys did not cover both dispatcher sides: %+v", st)
	}
}
