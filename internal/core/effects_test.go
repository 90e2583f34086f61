package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// TestOpEffectsMatchTheStore holds wire's per-opcode table — what a
// replica sequences and ships (Mutates) and what a client may replay
// (Idempotent) — to what Apply does. Each opcode is applied to a fresh
// store: an op that changed the stored state must be listed as
// mutating, and an op listed as idempotent, applied twice, must leave
// the state one application left.
func TestOpEffectsMatchTheStore(t *testing.T) {
	u32 := func(vs ...uint32) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	fresh := func() *Store {
		s, err := NewStore(Config{MemoryBytes: 4 << 20})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		s.SetTelemetry(telemetry.NewRegistry())
		for k, v := range map[string][]byte{"vec": u32(0, 7, 0, 9), "n": u32(5)} {
			if err := s.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	// state is everything a later op can observe: the pairs, and the
	// registered λs.
	state := func(s *Store) string {
		var buf bytes.Buffer
		if _, err := s.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(buf.String(), len(s.updateFns), len(s.filterFns))
	}
	must := func(b []byte, err error) []byte {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reqs := map[wire.OpCode]wire.Request{
		wire.OpGet:          {Key: []byte("vec")},
		wire.OpPut:          {Key: []byte("new"), Value: []byte("v")},
		wire.OpDelete:       {Key: []byte("vec")},
		wire.OpUpdateScalar: {Key: []byte("n"), FuncID: FnAdd, ElemWidth: 4, Param: u32(1)},
		wire.OpUpdateS2V:    {Key: []byte("vec"), FuncID: FnAdd, ElemWidth: 4, Param: u32(1)},
		wire.OpUpdateV2V:    {Key: []byte("vec"), FuncID: FnAdd, ElemWidth: 4, Value: u32(1, 2, 3, 4)},
		wire.OpReduce:       {Key: []byte("vec"), FuncID: FnAdd, ElemWidth: 4, Param: u32(0)},
		wire.OpFilter:       {Key: []byte("vec"), FuncID: FilterNonZero, ElemWidth: 4},
		wire.OpRegister:     {FuncID: 100, Param: []byte("v * p + 1")},
		wire.OpStats:        {},
		wire.OpTelemetry:    {},
		wire.OpScan:         {Key: []byte("a"), Value: must(wire.EncodeScanParam(10, nil))},
		wire.OpPutVer: {Key: []byte("gw"), Value: must(wire.EncodeGwValue(0, []byte("x"))),
			Param: must(wire.EncodePutVerParam(wire.PutVerSet, 0))},
		wire.OpCounterVer: {Key: []byte("ctr"), Param: must(wire.EncodeCounterParam(wire.CounterIncr, 1, 0, true))},
	}
	for op := wire.OpGet; op.Valid(); op++ {
		req, ok := reqs[op]
		if !ok {
			t.Fatalf("%v: no request to apply; add one", op)
		}
		req.Code = op
		base := state(fresh())
		once := fresh()
		if resp := once.Apply(req); resp.Status != wire.StatusOK {
			t.Fatalf("%v: status %d %q", op, resp.Status, resp.Value)
		}
		after := state(once)
		if after != base && !op.Mutates() {
			t.Errorf("%v changed the stored state but is not listed as mutating", op)
		}
		if !op.Idempotent() {
			continue
		}
		twice := fresh()
		for range 2 {
			_ = twice.Apply(req) //lint:allow statuserr -- only the state it leaves is compared
		}
		if state(twice) != after {
			t.Errorf("%v is listed as idempotent but a second application changed the state", op)
		}
	}
}
