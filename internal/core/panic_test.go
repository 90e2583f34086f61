package core

import (
	"bytes"
	"fmt"
	"testing"

	"kvdirect/internal/wire"
)

// TestPanickingLambdaLeavesNoWedgedSlot: a registered λ that panics (any
// client can register one over the wire) unwinds through the engine, and
// the engine is whole afterwards — a key sharing the λ key's
// reservation-station slot still executes. An engine that left the
// panicking op's entry owning the slot would chain every later op on it
// behind an entry nothing retires: the PUT below answered OK but never
// applied, the GET a miss, and ops left in flight.
func TestPanickingLambdaLeavesNoWedgedSlot(t *testing.T) {
	const slots = 64
	s, err := NewStore(Config{MemoryBytes: 4 << 20, Seed: 42, RSSlots: slots})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.RegisterUpdateFunc(100, func(e, p uint64) uint64 { return e / (p - p) })
	boom := []byte("boom")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the λ did not panic")
			}
		}()
		s.Apply(wire.Request{Code: wire.OpUpdateScalar, Key: boom, FuncID: 100, ElemWidth: 8, Param: make([]byte, 8)}) //lint:allow statuserr -- the λ panics: there is no result
	}()

	var key []byte
	for i := 0; key == nil; i++ {
		if k := fmt.Appendf(nil, "k%d", i); keyHash(k)%slots == keyHash(boom)%slots && !bytes.Equal(k, boom) {
			key = k
		}
	}
	if resp := s.Apply(wire.Request{Code: wire.OpPut, Key: key, Value: []byte("v")}); resp.Status != wire.StatusOK {
		t.Fatalf("PUT %q after the panic: %+v", key, resp)
	}
	if resp := s.Apply(wire.Request{Code: wire.OpGet, Key: key}); resp.Status != wire.StatusOK || string(resp.Value) != "v" {
		t.Fatalf("GET %q after the panic: %+v, want v", key, resp)
	}
	if n := s.NumKeys(); n != 1 {
		t.Errorf("NumKeys = %d, want 1", n)
	}
	if n := s.engine.InFlight(); n != 0 {
		t.Errorf("InFlight = %d after every call returned, want 0", n)
	}
}
