package core

import (
	"encoding/binary"
	"testing"

	"kvdirect/internal/wire"
)

func TestRegisterExpressionUpdate(t *testing.T) {
	s := newStore(t)
	if err := s.RegisterExpression(100, "v * p + 1"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, []byte("x"), u64(6))
	if _, err := s.Update([]byte("x"), 100, 8, 7); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get([]byte("x"))
	if got := binary.LittleEndian.Uint64(v); got != 43 {
		t.Errorf("6*7+1 = %d, want 43", got)
	}
}

func TestRegisterExpressionSaturating(t *testing.T) {
	s := newStore(t)
	if err := s.RegisterExpression(101, "sat_sub(v, p)"); err != nil {
		t.Fatal(err)
	}
	mustPut(t, s, []byte("gauge"), u64(5))
	if _, err := s.Update([]byte("gauge"), 101, 8, 100); err != nil { // would underflow; saturates at 0
		t.Fatal(err)
	}
	v, _ := s.Get([]byte("gauge"))
	if got := binary.LittleEndian.Uint64(v); got != 0 {
		t.Errorf("sat_sub(5,100) = %d, want 0", got)
	}
}

func TestRegisterFilterExpression(t *testing.T) {
	s := newStore(t)
	if err := s.RegisterFilterExpression(102, "v % 3 == 0"); err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 4*6)
	for i, x := range []uint32{1, 3, 5, 6, 9, 10} {
		binary.LittleEndian.PutUint32(vec[i*4:], x)
	}
	mustPut(t, s, []byte("v"), vec)
	out, err := s.Filter([]byte("v"), 102, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 { // 3, 6, 9
		t.Fatalf("filtered %d bytes, want 12", len(out))
	}
}

func TestRegisterExpressionBadSource(t *testing.T) {
	s := newStore(t)
	if err := s.RegisterExpression(103, "v + +"); err == nil {
		t.Error("bad expression accepted")
	}
	if err := s.RegisterFilterExpression(103, "unknown_fn(v, 1)"); err == nil {
		t.Error("bad predicate accepted")
	}
}

func TestRegisterExpressionInReduce(t *testing.T) {
	s := newStore(t)
	// Running maximum via expression.
	if err := s.RegisterExpression(104, "max(v, acc)"); err != nil {
		t.Fatal(err)
	}
	vec := make([]byte, 8*4)
	for i, x := range []uint64{3, 99, 7, 42} {
		binary.LittleEndian.PutUint64(vec[i*8:], x)
	}
	mustPut(t, s, []byte("v"), vec)
	got, err := s.Reduce([]byte("v"), 104, 8, 0)
	if err != nil || got != 99 {
		t.Fatalf("reduce max = %d,%v", got, err)
	}
}

func TestApplyRegisterOp(t *testing.T) {
	s := newStore(t)
	r := s.Apply(wire.Request{Code: wire.OpRegister, FuncID: 110,
		Param: []byte("v ^ p")})
	if r.Status != wire.StatusOK {
		t.Fatalf("register failed: %+v", r)
	}
	mustPut(t, s, []byte("x"), u64(0b1100))
	if r := s.Apply(wire.Request{Code: wire.OpUpdateScalar, Key: []byte("x"),
		FuncID: 110, ElemWidth: 8, Param: u64(0b1010)}); r.Status != wire.StatusOK {
		t.Fatalf("update failed: %+v", r)
	}
	v, _ := s.Get([]byte("x"))
	if got := binary.LittleEndian.Uint64(v); got != 0b0110 {
		t.Errorf("xor result = %b", got)
	}
	// Filter registration path.
	r = s.Apply(wire.Request{Code: wire.OpRegister, FuncID: 111, ElemWidth: 1,
		Param: []byte("v > 5")})
	if r.Status != wire.StatusOK {
		t.Fatalf("filter register failed: %+v", r)
	}
	// Bad source reports an error status.
	r = s.Apply(wire.Request{Code: wire.OpRegister, FuncID: 112,
		Param: []byte("((")})
	if r.Status != wire.StatusError {
		t.Errorf("bad source register: %+v", r)
	}
}
