package kvgw

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"kvdirect/internal/telemetry"
)

// FuzzDecodeMemcacheRequest drives the request decoder with arbitrary
// bytes: it must never panic, must never consume bytes it didn't
// validate, and any frame it accepts must re-encode to an identical
// frame (the binary protocol has one canonical encoding). The same bytes
// also go through a gateway connection's reader, which must agree.
func FuzzDecodeMemcacheRequest(f *testing.F) {
	seed := func(r Request) {
		frame, err := AppendRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	seed(Request{Opcode: CmdGet, Key: []byte("key"), Opaque: 7})
	seed(Request{Opcode: CmdSet, Key: []byte("key"), Value: []byte("value"),
		Extras: make([]byte, 8), CAS: 99})
	seed(Request{Opcode: CmdIncr, Key: []byte("n"), Extras: make([]byte, 20)})
	seed(Request{Opcode: CmdSASLAuth, Key: []byte("PLAIN"),
		Value: []byte("\x00tenant\x00secret")})
	seed(Request{Opcode: CmdNoop})
	f.Add([]byte{})
	f.Add([]byte{MagicRequest})
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize))

	gw := &Gateway{tel: telemetry.NewRegistry(), opts: Options{Now: time.Now}}
	f.Fuzz(func(t *testing.T, frame []byte) {
		readRequestAgrees(t, gw, frame)
		req, n, err := DecodeRequest(frame)
		if err != nil {
			return
		}
		if n < HeaderSize || n > len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		re, err := AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, frame[:n]) {
			t.Fatalf("request not canonical:\n  in  % x\n  out % x", frame[:n], re)
		}
	})
}

// readRequestAgrees reads the bytes as a gateway connection would, once
// with a reader that holds the whole frame (decoded where it lies, then
// discarded) and once with one too small for it (copied out), and holds
// both to what DecodeRequest makes of the same bytes: the same request
// and length, or an error. A short or oversized body has to surface as
// a framing error, not as a panic or a request.
func readRequestAgrees(t *testing.T, gw *Gateway, frame []byte) {
	want, n, werr := DecodeRequest(frame)
	for _, size := range []int{64 << 10, HeaderSize + 8} {
		c := &conn{g: gw, r: bufio.NewReaderSize(bytes.NewReader(frame), size)}
		got, held, err := c.readRequest()
		if werr != nil {
			if err == nil {
				t.Fatalf("reader size %d accepted a frame the decoder rejects (%v)", size, werr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("reader size %d rejected a frame the decoder accepts: %v", size, err)
		}
		if got.Opcode != want.Opcode || got.Opaque != want.Opaque || got.CAS != want.CAS ||
			got.VBucket != want.VBucket || !bytes.Equal(got.Extras, want.Extras) ||
			!bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("reader size %d decoded %+v, the decoder %+v", size, got, want)
		}
		if n <= c.r.Size() != (held == n) || held > c.r.Buffered() {
			t.Fatalf("reader size %d holds %d of a %d-byte frame (%d buffered)", size, held, n, c.r.Buffered())
		}
	}
}

// FuzzEncodeMemcacheResponse round-trips arbitrary response fields
// through the encoder and decoder: whatever the encoder accepts, the
// decoder must reproduce exactly.
func FuzzEncodeMemcacheResponse(f *testing.F) {
	f.Add(uint8(CmdGet), uint16(StatusOK), uint32(1), uint64(42),
		[]byte{0, 0, 0, 5}, []byte(""), []byte("value"))
	f.Add(uint8(CmdStat), uint16(StatusOK), uint32(2), uint64(0),
		[]byte(nil), []byte("curr_items"), []byte("7"))
	f.Add(uint8(CmdSet), uint16(StatusTempFailure), uint32(3), uint64(0),
		[]byte(nil), []byte(nil), []byte("Temporary failure"))
	f.Fuzz(func(t *testing.T, opcode uint8, status uint16, opaque uint32,
		cas uint64, extras, key, value []byte) {
		in := Response{Opcode: opcode, Status: status, Opaque: opaque,
			CAS: cas, Extras: extras, Key: key, Value: value}
		frame, err := AppendResponse(nil, in)
		if err != nil {
			return // oversized inputs are legitimately refused
		}
		if len(extras) > 0xFF {
			// The header's extras length is one byte; the encoder accepted
			// a frame it cannot represent.
			t.Fatalf("encoder accepted %d extras bytes", len(extras))
		}
		out, n, err := DecodeResponse(frame)
		if err != nil {
			t.Fatalf("encoded response rejected: %v", err)
		}
		if n != len(frame) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(frame))
		}
		if out.Opcode != in.Opcode || out.Status != in.Status ||
			out.Opaque != in.Opaque || out.CAS != in.CAS ||
			!bytes.Equal(out.Extras, in.Extras) || !bytes.Equal(out.Key, in.Key) ||
			!bytes.Equal(out.Value, in.Value) {
			t.Fatalf("round trip changed response:\n  in  %+v\n  out %+v", in, out)
		}
	})
}

// FuzzRegistryConfig holds the tenants.json decoder to the round-trip
// property every decoder here has: whatever json.Unmarshal and
// NewRegistry both accept re-encodes, through json.Marshal, to a config
// that decodes to the same value and builds a registry of the same
// tenants.
func FuzzRegistryConfig(f *testing.F) {
	f.Add([]byte(`{"tenants":[{"name":"acme","secret":"s3","quota":{"max_keys":10,"max_bytes":4096,"ops_per_sec":1.5,"burst":3}}],"auto_create":true,"default_quota":{"ops_per_sec":100}}`))
	f.Add([]byte(`{"tenants":[{"name":"a","quota":{}},{"name":"b-1_x","quota":{"max_keys":-1}}]}`))
	f.Add([]byte(`{"tenants":null,"default_quota":{"burst":1e-300}}`))
	f.Add([]byte(`{"Tenants":[{"NAME":"z","Secret":"<é>","quota":{"ops_per_sec":-0}}],"auto_create":false}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg RegistryConfig
		if json.Unmarshal(data, &cfg) != nil {
			return
		}
		reg, err := NewRegistry(cfg, nil)
		if err != nil {
			return
		}
		enc, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("accepted config %+v does not encode: %v", cfg, err)
		}
		var again RegistryConfig
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded config %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(again, cfg) {
			t.Fatalf("round trip changed the config:\n  in  %+v\n  out %+v", cfg, again)
		}
		reg2, err := NewRegistry(again, nil)
		if err != nil {
			t.Fatalf("re-encoded config %s refused: %v", enc, err)
		}
		names, names2 := reg.Names(), reg2.Names()
		sort.Strings(names)
		sort.Strings(names2)
		if !reflect.DeepEqual(names, names2) {
			t.Fatalf("tenants %q, after the round trip %q", names, names2)
		}
	})
}
