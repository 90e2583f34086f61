package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Code: OpGet, Key: []byte("k1")},
		{Code: OpPut, Key: []byte("key-two"), Value: []byte("value-two")},
		{Code: OpDelete, Key: []byte("k3")},
		{Code: OpUpdateScalar, Key: []byte("ctr"), FuncID: 1, ElemWidth: 8,
			Param: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
		{Code: OpUpdateS2V, Key: []byte("vec"), FuncID: 2, ElemWidth: 4,
			Param: []byte{5, 0, 0, 0}},
		{Code: OpUpdateV2V, Key: []byte("vec2"), Value: []byte{1, 2, 3, 4, 5, 6, 7, 8},
			FuncID: 3, ElemWidth: 4},
		{Code: OpReduce, Key: []byte("vec"), FuncID: 4, ElemWidth: 8, Param: make([]byte, 8)},
		{Code: OpFilter, Key: []byte("sparse"), FuncID: 5, ElemWidth: 4},
	}
	pkt, err := AppendRequests(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequests(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(reqs))
	}
	for i := range reqs {
		r, g := reqs[i], got[i]
		if g.Code != r.Code || !bytes.Equal(g.Key, r.Key) || !bytes.Equal(g.Value, r.Value) ||
			g.FuncID != r.FuncID || g.ElemWidth != r.ElemWidth || !bytes.Equal(g.Param, r.Param) {
			t.Errorf("op %d mismatch:\n got %+v\nwant %+v", i, g, r)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []Response{
		{Status: StatusOK, Value: []byte("hello")},
		{Status: StatusNotFound},
		{Status: StatusError, Value: []byte("boom")},
		{Status: StatusOK, Value: make([]byte, 1000)},
	}
	pkt, err := AppendResponses(nil, resps)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResponses(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(resps) {
		t.Fatalf("decoded %d, want %d", len(got), len(resps))
	}
	for i := range resps {
		if got[i].Status != resps[i].Status || !bytes.Equal(got[i].Value, resps[i].Value) {
			t.Errorf("resp %d mismatch", i)
		}
	}
}

func TestSameSizeCompression(t *testing.T) {
	// A batch of equal-size KVs should encode much smaller than the naive
	// per-op header cost (the paper's repetitive-workload optimization).
	uniform := make([]Request, 64)
	for i := range uniform {
		uniform[i] = Request{Code: OpPut,
			Key:   []byte(fmt.Sprintf("key%05d", i)),
			Value: []byte(fmt.Sprintf("val%05d", i))}
	}
	n, err := EncodedSize(uniform)
	if err != nil {
		t.Fatal(err)
	}
	// Per op: opcode+flags (2) + key (8) + value (8) = 18; headers only
	// on the first op.
	perOp := float64(n-HeaderBytes) / 64
	if perOp > 18.1 {
		t.Errorf("compressed per-op size = %.1f B, want ~18", perOp)
	}
}

func TestSameValueCompression(t *testing.T) {
	same := make([]Request, 32)
	val := bytes.Repeat([]byte{7}, 100)
	for i := range same {
		same[i] = Request{Code: OpPut, Key: []byte(fmt.Sprintf("key%04d", i)), Value: val}
	}
	nSame, _ := EncodedSize(same)
	// Without value elision this would be >= 32*100 bytes of payload.
	if nSame > 32*(2+8)+100+HeaderBytes+8 {
		t.Errorf("same-value batch = %d B, value payload not elided", nSame)
	}
	// And it must still decode correctly.
	pkt, _ := AppendRequests(nil, same)
	got, err := DecodeRequests(pkt)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if !bytes.Equal(g.Value, val) {
			t.Fatalf("op %d lost its value", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good, _ := AppendRequests(nil, []Request{{Code: OpGet, Key: []byte("k")}})
	cases := map[string][]byte{
		"empty":        {},
		"short header": good[:3],
		"bad magic":    append([]byte{0, 0}, good[2:]...),
		"bad version":  append(append([]byte{}, good[0], good[1], 99), good[3:]...),
		"truncated op": good[:len(good)-1],
	}
	for name, pkt := range cases {
		if _, err := DecodeRequests(pkt); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDecodeBadOpcode(t *testing.T) {
	pkt, _ := AppendRequests(nil, []Request{{Code: OpGet, Key: []byte("k")}})
	pkt[HeaderBytes] = 200 // corrupt opcode
	if _, err := DecodeRequests(pkt); err != ErrBadOpcode {
		t.Errorf("got %v, want ErrBadOpcode", err)
	}
}

func TestFirstOpCannotReferencePrevious(t *testing.T) {
	// Hand-craft a packet whose first op sets FlagSameSizes.
	pkt, _ := AppendRequests(nil, []Request{{Code: OpGet, Key: []byte("k")}})
	pkt[HeaderBytes+1] |= FlagSameSizes
	if _, err := DecodeRequests(pkt); err != ErrFirstFlags {
		t.Errorf("got %v, want ErrFirstFlags", err)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := AppendRequests(nil, []Request{{Code: OpCode(99), Key: []byte("k")}}); err != ErrBadOpcode {
		t.Errorf("bad opcode: %v", err)
	}
	if _, err := AppendRequests(nil, []Request{{Code: OpGet, Key: make([]byte, 300)}}); err != ErrKeyTooLong {
		t.Errorf("long key: %v", err)
	}
	if _, err := AppendRequests(nil, []Request{{Code: OpPut, Key: []byte("k"), Value: make([]byte, 70000)}}); err != ErrValTooLong {
		t.Errorf("long value: %v", err)
	}
	if _, err := AppendRequests(nil, []Request{{Code: OpReduce, Key: []byte("k"), Param: make([]byte, 300)}}); err != ErrParamTooBig {
		t.Errorf("big param: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	ops := []OpCode{OpGet, OpPut, OpDelete, OpUpdateScalar, OpUpdateS2V, OpUpdateV2V, OpReduce, OpFilter}
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%50 + 1
		reqs := make([]Request, n)
		for i := range reqs {
			op := ops[rng.Intn(len(ops))]
			r := Request{Code: op, Key: make([]byte, 1+rng.Intn(32))}
			rng.Read(r.Key)
			if op.HasValue() {
				// Sometimes repeat sizes/values to exercise compression.
				switch rng.Intn(3) {
				case 0:
					r.Value = make([]byte, rng.Intn(200))
					rng.Read(r.Value)
				case 1:
					r.Value = bytes.Repeat([]byte{42}, 64)
				case 2:
					r.Value = []byte{}
				}
			}
			if op.HasFunc() {
				r.FuncID = uint8(rng.Intn(8))
				r.ElemWidth = uint8(4 + 4*rng.Intn(2))
				r.Param = make([]byte, rng.Intn(16))
				rng.Read(r.Param)
			}
			reqs[i] = r
		}
		pkt, err := AppendRequests(nil, reqs)
		if err != nil {
			return false
		}
		got, err := DecodeRequests(pkt)
		if err != nil || len(got) != n {
			return false
		}
		for i := range reqs {
			r, g := reqs[i], got[i]
			if g.Code != r.Code || !bytes.Equal(g.Key, r.Key) ||
				g.FuncID != r.FuncID || g.ElemWidth != r.ElemWidth ||
				!bytes.Equal(g.Param, r.Param) {
				return false
			}
			if r.Code.HasValue() && !bytes.Equal(g.Value, r.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFuzzDecodeNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base, _ := AppendRequests(nil, []Request{
		{Code: OpPut, Key: []byte("abc"), Value: []byte("def")},
		{Code: OpGet, Key: []byte("ghi")},
	})
	for i := 0; i < 5000; i++ {
		pkt := append([]byte(nil), base...)
		// Mutate a few random bytes.
		for j := 0; j < 1+rng.Intn(4); j++ {
			pkt[rng.Intn(len(pkt))] = byte(rng.Intn(256))
		}
		if rng.Intn(4) == 0 {
			pkt = pkt[:rng.Intn(len(pkt)+1)]
		}
		_, _ = DecodeRequests(pkt)  //lint:allow statuserr -- corruption probe: only absence of panic matters
		_, _ = DecodeResponses(pkt) //lint:allow statuserr -- corruption probe: only absence of panic matters
	}
}

func TestOpCodeStrings(t *testing.T) {
	for op := OpGet; op < opMax; op++ {
		if op.String() == "" || !op.Valid() {
			t.Errorf("opcode %d bad metadata", op)
		}
	}
	if OpCode(0).Valid() || OpCode(99).Valid() {
		t.Error("invalid opcodes reported valid")
	}
}
