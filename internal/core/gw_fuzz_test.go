package core

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"

	"kvdirect/internal/wire"
)

// refPutVer and refCounterVer are the gateway ops as two table walks: a
// GET of the old item, then a PUT of the new one or a DELETE. They are
// the reference FuzzGatewayOps holds the one-walk apply to.
func refPutVer(s *Store, req wire.Request) wire.Response {
	mode, expect, err := wire.DecodePutVerParam(req.Param)
	if err != nil {
		return errResp(err)
	}
	old, found := s.Get(req.Key)
	item := wire.DecodeGwItem(old)
	switch mode {
	case wire.PutVerAdd:
		if found {
			return wire.Response{Status: wire.StatusExists}
		}
	case wire.PutVerReplace:
		if !found {
			return wire.Response{Status: wire.StatusNotFound}
		}
	case wire.PutVerCAS:
		if !found {
			return wire.Response{Status: wire.StatusNotFound}
		}
		if item.Version != expect {
			return wire.Response{Status: wire.StatusExists}
		}
	case wire.PutVerAppend, wire.PutVerPrepend:
		if !found {
			return wire.Response{Status: wire.StatusNotStored}
		}
		if expect != 0 && item.Version != expect {
			return wire.Response{Status: wire.StatusExists}
		}
	case wire.PutVerDelete:
		if !found {
			return wire.Response{Status: wire.StatusNotFound}
		}
		if expect != 0 && item.Version != expect {
			return wire.Response{Status: wire.StatusExists}
		}
	}
	if mode == wire.PutVerDelete {
		if !s.Delete(req.Key) {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK,
			Value: wire.EncodePutVerReply(item.Version, true, len(old))}
	}
	flags, payload, err := wire.DecodeGwValue(req.Value)
	if err != nil {
		return errResp(err)
	}
	newVer := item.Version + 1
	if !found {
		newVer = 1
	}
	switch mode {
	case wire.PutVerAppend:
		flags, payload = item.Flags, refConcat(item.Payload, payload)
	case wire.PutVerPrepend:
		flags, payload = item.Flags, refConcat(payload, item.Payload)
	}
	if len(payload) > wire.MaxGwPayload {
		return errResp(ErrFull)
	}
	if err := s.Put(req.Key, refItem(newVer, flags, payload)); err != nil {
		return errResp(err)
	}
	return wire.Response{Status: wire.StatusOK,
		Value: wire.EncodePutVerReply(newVer, found, len(old))}
}

func refCounterVer(s *Store, req wire.Request) wire.Response {
	sub, delta, initial, create, err := wire.DecodeCounterParam(req.Param)
	if err != nil {
		return errResp(err)
	}
	old, found := s.Get(req.Key)
	var newVal uint64
	var flags uint32
	newVer := uint64(1)
	if !found {
		if !create {
			return wire.Response{Status: wire.StatusNotFound}
		}
		newVal = initial
	} else {
		item := wire.DecodeGwItem(old)
		cur, ok := parseDecimal(item.Payload)
		if !ok {
			return wire.Response{Status: wire.StatusBadDelta}
		}
		switch {
		case sub == wire.CounterIncr:
			newVal = cur + delta
		case delta > cur:
			newVal = 0
		default:
			newVal = cur - delta
		}
		flags, newVer = item.Flags, item.Version+1
	}
	if err := s.Put(req.Key, refItem(newVer, flags, []byte(strconv.FormatUint(newVal, 10)))); err != nil {
		return errResp(err)
	}
	return wire.Response{Status: wire.StatusOK, Value: wire.EncodeCounterReply(newVal, newVer)}
}

func refConcat(a, b []byte) []byte {
	return append(append(make([]byte, 0, len(a)+len(b)), a...), b...)
}

func refItem(version uint64, flags uint32, payload []byte) []byte {
	return append(wire.AppendGwItemHeader(nil, version, flags), payload...)
}

// gwFuzzPayloads span every footprint of a gateway item under key "kN"
// with the fuzzed stores' inline threshold of 40: inline up to 26 payload
// bytes, one slab up to 494, chained past that, and 20 000, which four
// appends grow past the wire's value cap.
var gwFuzzPayloads = [...]int{0, 1, 9, 26, 27, 60, 494, 495, 1200}

// gwFuzzOp decodes one request from three input bytes: the op and key,
// the payload's size (or, high bit set, a decimal payload), and a byte
// that picks flags, the expected version and the counter's operands.
func gwFuzzOp(b [3]byte) wire.Request {
	kind, key := int(b[0])%11, []byte{'k', '0' + b[0]/11%4}
	var payload []byte
	if b[1]&0x80 != 0 {
		payload = strconv.AppendUint(nil, uint64(b[2])<<(b[1]&63), 10)
	} else {
		payload = bytes.Repeat([]byte{'a' + b[2]%26}, gwFuzzPayloads[int(b[1])%len(gwFuzzPayloads)])
	}
	must := func(v []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return v
	}
	switch {
	case kind < 7: // SET, ADD, REPLACE, CAS, APPEND, PREPEND, DELETE
		mode := wire.PutVerSet + wire.PutVerMode(kind)
		req := wire.Request{Code: wire.OpPutVer, Key: key,
			Param: must(wire.EncodePutVerParam(mode, uint64(b[2]%4)))}
		if mode != wire.PutVerDelete {
			req.Value = must(wire.EncodeGwValue(uint32(b[2]), payload))
		}
		return req
	case kind == 7:
		return wire.Request{Code: wire.OpCounterVer, Key: key,
			Param: must(wire.EncodeCounterParam(b[2]&1, uint64(b[1]), uint64(b[2]), b[2]&2 != 0))}
	case kind == 8:
		return wire.Request{Code: wire.OpGet, Key: key}
	case kind == 9:
		return wire.Request{Code: wire.OpDelete, Key: key}
	default: // a native, headerless value under a gateway key
		return wire.Request{Code: wire.OpPut, Key: key, Value: payload}
	}
}

// FuzzGatewayOps runs one op sequence, decoded from the input, against
// two identically built stores: every PutVer mode, CounterVer, and
// native GET, PUT and DELETE over four keys, with payloads of every
// footprint. One store applies the gateway ops in one table walk
// (Apply); the other runs the two-walk reference. Every response, the
// hash-order Walk and the ordered Scan must be identical.
func FuzzGatewayOps(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		in := make([]byte, 3*64)
		rand.New(rand.NewSource(seed)).Read(in)
		f.Add(in)
	}
	// Create each key, count on it, grow it across every footprint by
	// appends and prepends, read it, and delete every other one.
	var walk []byte
	for k := byte(0); k < 4; k++ {
		walk = append(walk, k*11, 0x80|5, 3) // SET a decimal
		walk = append(walk, 7+k*11, 1, 2)    // INCR
		for size := byte(1); size < byte(len(gwFuzzPayloads)); size++ {
			walk = append(walk, 4+k*11, size, 0, 5+k*11, size, 4) // APPEND, PREPEND
		}
		walk = append(walk, 8+k*11, 0, 0) // GET
		if k%2 == 0 {
			walk = append(walk, 6+k*11, 0, 0) // DELETE
		}
	}
	f.Add(walk)

	f.Fuzz(func(t *testing.T, in []byte) {
		fresh := func() *Store {
			s, err := NewStore(Config{MemoryBytes: 256 << 10, InlineThreshold: 40, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			return s
		}
		one, ref := fresh(), fresh()
		for i := 0; len(in) >= 3 && i < 128; i++ {
			req := gwFuzzOp([3]byte(in))
			in = in[3:]
			var want wire.Response
			switch req.Code {
			case wire.OpPutVer:
				want = refPutVer(ref, req)
			case wire.OpCounterVer:
				want = refCounterVer(ref, req)
			default:
				want = ref.Apply(req)
			}
			if got := one.Apply(req); got.Status != want.Status || !bytes.Equal(got.Value, want.Value) {
				t.Fatalf("op %d (%v %q): one walk answered %d %x, the reference %d %x",
					i, req.Code, req.Key, got.Status, got.Value, want.Status, want.Value)
			}
		}
		walked := func(s *Store) []ScanEntry {
			var out []ScanEntry
			s.Walk(func(key, value []byte) bool {
				out = append(out, ScanEntry{Key: bytes.Clone(key), Value: bytes.Clone(value)})
				return true
			})
			return out
		}
		scanned := func(s *Store) []ScanEntry {
			entries, _, err := s.Scan(nil, 16)
			if err != nil {
				t.Fatal(err)
			}
			return entries
		}
		for _, view := range []struct {
			name string
			of   func(*Store) []ScanEntry
		}{{"Walk", walked}, {"Scan", scanned}} {
			got, want := view.of(one), view.of(ref)
			if len(got) != len(want) {
				t.Fatalf("%s: one walk holds %d pairs, the reference %d", view.name, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
					t.Fatalf("%s pair %d: one walk %q=%x, the reference %q=%x",
						view.name, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
				}
			}
		}
		if err := one.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}
