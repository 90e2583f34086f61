package wire

import (
	"bytes"
	"testing"
)

func TestPutVerParamRoundTrip(t *testing.T) {
	for _, mode := range []PutVerMode{PutVerSet, PutVerAdd, PutVerReplace,
		PutVerCAS, PutVerAppend, PutVerPrepend, PutVerDelete} {
		p, err := EncodePutVerParam(mode, 0xDEADBEEF01020304)
		if err != nil {
			t.Fatalf("%v: encode: %v", mode, err)
		}
		m, expect, err := DecodePutVerParam(p)
		if err != nil {
			t.Fatalf("%v: decode: %v", mode, err)
		}
		if m != mode || expect != 0xDEADBEEF01020304 {
			t.Fatalf("%v: round trip gave %v/%x", mode, m, expect)
		}
	}
}

func TestPutVerParamRejects(t *testing.T) {
	if _, err := EncodePutVerParam(0, 1); err != ErrPutVerMode {
		t.Fatalf("mode 0: %v", err)
	}
	if _, err := EncodePutVerParam(putVerMax, 1); err != ErrPutVerMode {
		t.Fatalf("mode max: %v", err)
	}
	if _, _, err := DecodePutVerParam(nil); err != ErrPutVerParam {
		t.Fatalf("nil param: %v", err)
	}
	if _, _, err := DecodePutVerParam(make([]byte, PutVerParamBytes-1)); err != ErrPutVerParam {
		t.Fatalf("short param: %v", err)
	}
	bad := make([]byte, PutVerParamBytes)
	bad[0] = uint8(putVerMax)
	if _, _, err := DecodePutVerParam(bad); err != ErrPutVerMode {
		t.Fatalf("bad mode: %v", err)
	}
}

func TestGwValueRoundTrip(t *testing.T) {
	v, err := EncodeGwValue(0xCAFEBABE, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	flags, payload, err := DecodeGwValue(v)
	if err != nil {
		t.Fatal(err)
	}
	if flags != 0xCAFEBABE || string(payload) != "payload" {
		t.Fatalf("round trip gave %x / %q", flags, payload)
	}
	if _, _, err := DecodeGwValue([]byte{1, 2}); err != ErrPutVerValue {
		t.Fatalf("short value: %v", err)
	}
	if _, err := EncodeGwValue(0, make([]byte, MaxGwPayload+1)); err != ErrValTooLong {
		t.Fatalf("oversized payload: %v", err)
	}
}

func TestPutVerReplyRoundTrip(t *testing.T) {
	r := EncodePutVerReply(42, true, 1234)
	ver, existed, oldLen, err := DecodePutVerReply(r)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 42 || !existed || oldLen != 1234 {
		t.Fatalf("round trip gave %d/%v/%d", ver, existed, oldLen)
	}
	if _, _, _, err := DecodePutVerReply(r[:len(r)-1]); err != ErrGwReply {
		t.Fatalf("short reply: %v", err)
	}
}

func TestCounterParamRoundTrip(t *testing.T) {
	p, err := EncodeCounterParam(CounterDecr, 7, 100, true)
	if err != nil {
		t.Fatal(err)
	}
	sub, delta, initial, create, err := DecodeCounterParam(p)
	if err != nil {
		t.Fatal(err)
	}
	if sub != CounterDecr || delta != 7 || initial != 100 || !create {
		t.Fatalf("round trip gave %d/%d/%d/%v", sub, delta, initial, create)
	}
	if _, err := EncodeCounterParam(9, 1, 1, false); err != ErrCounterParam {
		t.Fatalf("bad sub: %v", err)
	}
	if _, _, _, _, err := DecodeCounterParam(p[:3]); err != ErrCounterParam {
		t.Fatalf("short param: %v", err)
	}
	bad := append([]byte(nil), p...)
	bad[0] = 5
	if _, _, _, _, err := DecodeCounterParam(bad); err != ErrCounterParam {
		t.Fatalf("bad sub decode: %v", err)
	}
}

func TestCounterReplyRoundTrip(t *testing.T) {
	r := EncodeCounterReply(99, 3)
	val, ver, err := DecodeCounterReply(r)
	if err != nil {
		t.Fatal(err)
	}
	if val != 99 || ver != 3 {
		t.Fatalf("round trip gave %d/%d", val, ver)
	}
	if _, _, err := DecodeCounterReply(nil); err != ErrGwReply {
		t.Fatalf("nil reply: %v", err)
	}
}

func TestGwItemRoundTrip(t *testing.T) {
	stored := append(AppendGwItemHeader(nil, 5, 77), "hello"...)
	it := DecodeGwItem(stored)
	if it.Version != 5 || it.Flags != 77 || string(it.Payload) != "hello" {
		t.Fatalf("round trip gave %+v", it)
	}
	// Native (headerless) values read as version-0 items.
	it = DecodeGwItem([]byte("raw"))
	if it.Version != 0 || it.Flags != 0 || string(it.Payload) != "raw" {
		t.Fatalf("native value gave %+v", it)
	}
	// Empty payload keeps the header-only shape.
	it = DecodeGwItem(AppendGwItemHeader(nil, 1, 0))
	if it.Version != 1 || len(it.Payload) != 0 {
		t.Fatalf("empty payload gave %+v", it)
	}
}

// TestPutVerOnTheWire proves the gateway ops survive the packet codec:
// the param trailer and value ride the existing framing.
func TestPutVerOnTheWire(t *testing.T) {
	param, err := EncodePutVerParam(PutVerCAS, 9)
	if err != nil {
		t.Fatal(err)
	}
	val, err := EncodeGwValue(3, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	cparam, err := EncodeCounterParam(CounterIncr, 2, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Code: OpPutVer, Key: []byte("k"), Value: val, Param: param},
		{Code: OpCounterVer, Key: []byte("n"), Param: cparam},
		{Code: OpGet, Key: []byte("k")},
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
		t.Fatalf("decoded %d ops", len(got))
	}
	for i := range reqs {
		if got[i].Code != reqs[i].Code || !bytes.Equal(got[i].Key, reqs[i].Key) ||
			!bytes.Equal(got[i].Value, reqs[i].Value) ||
			!bytes.Equal(got[i].Param, reqs[i].Param) {
			t.Fatalf("op %d changed: %+v vs %+v", i, got[i], reqs[i])
		}
	}
}
