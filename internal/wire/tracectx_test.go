package wire

import (
	"bytes"
	"testing"
)

func TestTraceContextRoundTrip(t *testing.T) {
	cases := []TraceContext{
		{},
		{TraceID: 1, Parent: 2, Sampled: true},
		{TraceID: 0xDEADBEEFCAFEF00D, Parent: 0xFFFFFFFF, Sampled: false},
		{TraceID: ^uint64(0), Parent: 0, Sampled: true},
	}
	for _, tc := range cases {
		b := AppendTraceContext(nil, tc)
		if len(b) != TraceContextBytes {
			t.Fatalf("encoded %d bytes, want %d", len(b), TraceContextBytes)
		}
		got, err := DecodeTraceContext(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", tc, err)
		}
		if got != tc {
			t.Fatalf("round trip: got %+v, want %+v", got, tc)
		}
	}
}

func TestDecodeTraceContextRejects(t *testing.T) {
	good := AppendTraceContext(nil, TraceContext{TraceID: 7, Parent: 9, Sampled: true})

	short := good[:TraceContextBytes-1]
	if _, err := DecodeTraceContext(short); err == nil {
		t.Fatal("short block accepted")
	}
	long := append(append([]byte(nil), good...), 0)
	if _, err := DecodeTraceContext(long); err == nil {
		t.Fatal("long block accepted")
	}
	badMagic := append([]byte(nil), good...)
	badMagic[12] = 0x51 // wrong high nibble
	if _, err := DecodeTraceContext(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}
	reserved := append([]byte(nil), good...)
	reserved[12] |= 0x02 // reserved bit set
	if _, err := DecodeTraceContext(reserved); err == nil {
		t.Fatal("reserved bits accepted")
	}
}

func TestMarkTraceContext(t *testing.T) {
	reqs := []Request{{Code: OpPut, Key: []byte("k"), Value: []byte("v")}, {Code: OpGet, Key: []byte("k")}}
	pkt, err := AppendRequests(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	plain := len(pkt)
	tc := TraceContext{TraceID: 0x1122334455667788, Parent: 42, Sampled: true}
	pkt, err = MarkTraceContext(pkt, tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != plain+TraceContextBytes {
		t.Fatalf("marked packet is %d bytes, want %d", len(pkt), plain+TraceContextBytes)
	}

	// The context survives extraction...
	got, ok := PacketTraceContext(pkt)
	if !ok || got != tc {
		t.Fatalf("PacketTraceContext = %+v, %v; want %+v, true", got, ok, tc)
	}
	// ...and the request payload still decodes identically: the trailing
	// block is invisible to DecodeRequests.
	dec, err := DecodeRequests(pkt)
	if err != nil {
		t.Fatalf("decode marked packet: %v", err)
	}
	if len(dec) != len(reqs) || dec[0].Code != OpPut || !bytes.Equal(dec[1].Key, []byte("k")) {
		t.Fatalf("marked packet decoded wrong: %+v", dec)
	}

	// Double-marking is an error (would stack two trailing blocks).
	if _, err := MarkTraceContext(pkt, tc); err == nil {
		t.Fatal("double MarkTraceContext accepted")
	}
	// An unmarked packet yields no context.
	plainPkt, _ := AppendRequests(nil, reqs)
	if _, ok := PacketTraceContext(plainPkt); ok {
		t.Fatal("unmarked packet produced a context")
	}
	// Empty packets can't be marked.
	empty, _ := AppendRequests(nil, nil)
	if _, err := MarkTraceContext(empty, tc); err == nil {
		t.Fatal("empty packet marked")
	}
}

func TestMarkTraceContextComposesWithMarkTraced(t *testing.T) {
	pkt, err := AppendRequests(nil, []Request{{Code: OpGet, Key: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := MarkTraced(pkt); err != nil {
		t.Fatal(err)
	}
	pkt, err = MarkTraceContext(pkt, TraceContext{TraceID: 5, Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	if !IsTraced(pkt) {
		t.Fatal("FlagTrace lost after MarkTraceContext")
	}
	if _, ok := PacketTraceContext(pkt); !ok {
		t.Fatal("context lost after MarkTraced")
	}
}

// FuzzDecodeTraceContext: whatever DecodeTraceContext accepts must
// re-encode to the identical bytes (the encoding is canonical), and the
// decoder must never panic on garbage.
func FuzzDecodeTraceContext(f *testing.F) {
	f.Add(AppendTraceContext(nil, TraceContext{}))
	f.Add(AppendTraceContext(nil, TraceContext{TraceID: 1, Parent: 1, Sampled: true}))
	f.Add(AppendTraceContext(nil, TraceContext{TraceID: ^uint64(0), Parent: ^uint32(0)}))
	f.Add([]byte{})
	f.Add([]byte{0xA0})
	f.Add(bytes.Repeat([]byte{0xFF}, TraceContextBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, err := DecodeTraceContext(data)
		if err != nil {
			return
		}
		out := AppendTraceContext(nil, tc)
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted non-canonical encoding: %x re-encodes to %x", data, out)
		}
	})
}
