package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRequests drives the packet decoder with arbitrary bytes: it
// must never panic, and any packet it accepts must re-encode to something
// it accepts again (decode∘encode idempotence on the accepted set).
func FuzzDecodeRequests(f *testing.F) {
	seed1, _ := AppendRequests(nil, []Request{
		{Code: OpPut, Key: []byte("key"), Value: []byte("value")},
		{Code: OpGet, Key: []byte("key")},
		{Code: OpReduce, Key: []byte("v"), FuncID: 1, ElemWidth: 4, Param: []byte{0, 0, 0, 0}},
	})
	f.Add(seed1)
	seed2, _ := AppendRequests(nil, []Request{
		{Code: OpPut, Key: []byte("aaaa"), Value: bytes.Repeat([]byte{7}, 64)},
		{Code: OpPut, Key: []byte("bbbb"), Value: bytes.Repeat([]byte{7}, 64)},
	})
	f.Add(seed2)
	scanParam, _ := EncodeScanParam(100, []byte("resume-here"))
	seed3, _ := AppendRequests(nil, []Request{
		{Code: OpScan, Key: []byte("start"), Value: scanParam},
		{Code: OpScan, Key: nil, Value: []byte{1, 0}},
	})
	f.Add(seed3)
	pvParam, _ := EncodePutVerParam(PutVerCAS, 7)
	pvVal, _ := EncodeGwValue(3, []byte("payload"))
	ctrParam, _ := EncodeCounterParam(CounterIncr, 1, 0, true)
	seed4, _ := AppendRequests(nil, []Request{
		{Code: OpPutVer, Key: []byte("item"), Value: pvVal, Param: pvParam},
		{Code: OpCounterVer, Key: []byte("ctr"), Param: ctrParam},
	})
	f.Add(seed4)
	f.Add([]byte{})
	f.Add([]byte{0x56, 0x4B, 1, 0, 0})

	f.Fuzz(func(t *testing.T, pkt []byte) {
		reqs, err := DecodeRequests(pkt)
		if err != nil {
			return
		}
		re, err := AppendRequests(nil, reqs)
		if err != nil {
			t.Fatalf("accepted packet failed to re-encode: %v", err)
		}
		again, err := DecodeRequests(re)
		if err != nil {
			t.Fatalf("re-encoded packet rejected: %v", err)
		}
		if len(again) != len(reqs) {
			t.Fatalf("round trip changed op count: %d -> %d", len(reqs), len(again))
		}
		for i := range reqs {
			if again[i].Code != reqs[i].Code || !bytes.Equal(again[i].Key, reqs[i].Key) {
				t.Fatalf("round trip changed op %d", i)
			}
			if reqs[i].Code.HasValue() && !bytes.Equal(again[i].Value, reqs[i].Value) {
				t.Fatalf("round trip changed value %d", i)
			}
		}
	})
}

// FuzzDecodeResponses: the response decoder must never panic.
func FuzzDecodeResponses(f *testing.F) {
	seed, _ := AppendResponses(nil, []Response{
		{Status: StatusOK, Value: []byte("hello")},
		{Status: StatusNotFound},
	})
	f.Add(seed)
	page, _ := EncodeScanPage([]ScanEntry{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: bytes.Repeat([]byte{9}, 300)},
	}, []byte("cursor"))
	seedScan, _ := AppendResponses(nil, []Response{{Status: StatusOK, Value: page}})
	f.Add(seedScan)
	seedGw, _ := AppendResponses(nil, []Response{
		{Status: StatusOK, Value: EncodePutVerReply(4, true, 20)},
		{Status: StatusExists},
		{Status: StatusOK, Value: EncodeCounterReply(11, 2)},
		{Status: StatusBadDelta},
	})
	f.Add(seedGw)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, pkt []byte) {
		resps, err := DecodeResponses(pkt)
		if err != nil {
			return
		}
		re, err := AppendResponses(nil, resps)
		if err != nil {
			t.Fatalf("accepted responses failed to re-encode: %v", err)
		}
		if _, err := DecodeResponses(re); err != nil {
			t.Fatalf("re-encoded responses rejected: %v", err)
		}
	})
}

// FuzzDecodeScanParam: the scan-parameter decoder must never panic, and
// any parameter it accepts must round-trip through the encoder.
func FuzzDecodeScanParam(f *testing.F) {
	p1, _ := EncodeScanParam(1, nil)
	p2, _ := EncodeScanParam(0xFFFF, bytes.Repeat([]byte{0xAB}, MaxScanCursorLen))
	f.Add(p1)
	f.Add(p2)
	f.Add([]byte{})
	f.Add([]byte{0})                                             // truncated limit
	f.Add([]byte{0, 0})                                          // zero limit
	f.Add(append([]byte{1, 0}, bytes.Repeat([]byte{1}, 300)...)) // oversized cursor
	f.Fuzz(func(t *testing.T, v []byte) {
		limit, cursor, err := DecodeScanParam(v)
		if err != nil {
			return
		}
		re, err := EncodeScanParam(limit, cursor)
		if err != nil {
			t.Fatalf("accepted parameter failed to re-encode: %v", err)
		}
		limit2, cursor2, err := DecodeScanParam(re)
		if err != nil {
			t.Fatalf("re-encoded parameter rejected: %v", err)
		}
		if limit2 != limit || !bytes.Equal(cursor2, cursor) {
			t.Fatalf("round trip changed parameter: (%d,%q) -> (%d,%q)",
				limit, cursor, limit2, cursor2)
		}
	})
}

// FuzzDecodeScanPage: the scan-page decoder must never panic, and any
// page it accepts must round-trip bit-exactly.
func FuzzDecodeScanPage(f *testing.F) {
	p1, _ := EncodeScanPage(nil, nil)
	p2, _ := EncodeScanPage([]ScanEntry{
		{Key: []byte("k"), Value: []byte("v")},
		{Key: bytes.Repeat([]byte{0xFF}, 255), Value: nil},
	}, bytes.Repeat([]byte{0xFF}, MaxScanCursorLen))
	f.Add(p1)
	f.Add(p2)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})                                          // claims 1 entry, has none
	f.Add([]byte{0, 0, 44, 1})                                         // cursor longer than max
	f.Add(append([]byte{0, 0, 4, 0}, 'c', 'u'))                        // truncated cursor
	f.Add(append([]byte{1, 0, 0, 0, 5, 0xFF, 0xFF}, []byte("abc")...)) // entry bigger than page
	f.Fuzz(func(t *testing.T, v []byte) {
		entries, cursor, err := DecodeScanPage(v)
		if err != nil {
			return
		}
		re, err := EncodeScanPage(entries, cursor)
		if err != nil {
			t.Fatalf("accepted page failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, v) {
			t.Fatalf("scan page not canonical: % x -> % x", v, re)
		}
	})
}

// FuzzDecodeReplMessage: the replication-stream decoder must never
// panic, and any message it accepts must re-encode byte-identically.
// One seed is the retired MIGRATE handshake, which must stay rejected.
func FuzzDecodeReplMessage(f *testing.F) {
	for _, m := range replSamples {
		pkt, _ := AppendReplMessage(nil, m)
		f.Add(pkt)
	}
	migrate, _ := AppendReplMessage(nil, ReplMessage{Kind: ReplHello, Epoch: 9, Seq: 512, Payload: []byte("127.0.0.1:7890")})
	migrate[3] = 9 // the old MIGRATE kind value
	if _, err := DecodeReplMessage(migrate); !errors.Is(err, ErrReplBadKind) {
		f.Fatalf("retired MIGRATE kind decoded: %v", err)
	}
	f.Add(migrate)
	f.Add([]byte{})
	f.Add(make([]byte, ReplHeaderBytes))
	f.Fuzz(func(t *testing.T, pkt []byte) {
		m, err := DecodeReplMessage(pkt)
		if err != nil {
			return
		}
		re, err := AppendReplMessage(nil, m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, pkt) {
			t.Fatalf("replication message not canonical: % x -> % x", pkt, re)
		}
	})
}

// FuzzReadFrame: the frame reader must never panic; a frame it accepts
// re-encodes through WriteFrame to exactly the bytes it consumed; and
// what it returns, payload or error, does not depend on the reuse buffer
// it is handed — nil, shorter than the payload, or longer.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload string) []byte {
		var b bytes.Buffer
		if err := WriteFrame(&b, []byte(payload)); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	good := frame("one checksummed frame")
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-1] ^= 0x20
	f.Add(frame(""))
	f.Add(good)
	f.Add(corrupt)
	f.Add(good[:len(good)-3])
	f.Add(append(bytes.Clone(good), good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		pkt, err := ReadFrame(r, nil)
		for _, buf := range [][]byte{make([]byte, len(pkt)/2), bytes.Repeat([]byte{0xa5}, len(pkt)+7)} {
			again, aerr := ReadFrame(bytes.NewReader(data), buf)
			if aerr != err || !bytes.Equal(again, pkt) {
				t.Fatalf("reuse buffer of %d bytes changed the read: %q, %v; with nil: %q, %v", len(buf), again, aerr, pkt, err)
			}
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteFrame(&re, pkt); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(re.Bytes(), consumed) {
			t.Fatalf("frame not canonical: % x -> % x", consumed, re.Bytes())
		}
	})
}
