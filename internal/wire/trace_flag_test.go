package wire

import (
	"bytes"
	"testing"
)

func TestMarkTraced(t *testing.T) {
	reqs := []Request{
		{Code: OpGet, Key: []byte("alpha")},
		{Code: OpPut, Key: []byte("alpha"), Value: []byte("v")},
	}
	pkt, err := AppendRequests(nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if IsTraced(pkt) {
		t.Fatal("fresh packet reports traced")
	}
	if err := MarkTraced(pkt); err != nil {
		t.Fatal(err)
	}
	if !IsTraced(pkt) {
		t.Fatal("marked packet not reported traced")
	}
	// The flag must not disturb decoding: same ops come back out.
	got, err := DecodeRequests(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Code != OpGet || !bytes.Equal(got[1].Value, []byte("v")) {
		t.Fatalf("traced packet decoded wrong: %+v", got)
	}
	// Re-encoding decoded requests drops the flag (it lives on the
	// packet, not in Request).
	re, err := AppendRequests(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if IsTraced(re) {
		t.Fatal("trace flag leaked through Request round trip")
	}
}

func TestMarkTracedEmptyOrShort(t *testing.T) {
	empty, err := AppendRequests(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := MarkTraced(empty); err == nil {
		t.Fatal("marked a zero-op packet")
	}
	if IsTraced(empty) {
		t.Fatal("zero-op packet reports traced")
	}
	if err := MarkTraced([]byte{1, 2}); err == nil {
		t.Fatal("marked a short buffer")
	}
	if IsTraced([]byte{1, 2}) {
		t.Fatal("short buffer reports traced")
	}
}

func TestOpTelemetryCode(t *testing.T) {
	if !OpTelemetry.Valid() {
		t.Fatal("OpTelemetry not valid")
	}
	if OpTelemetry.HasValue() || OpTelemetry.HasFunc() {
		t.Fatal("OpTelemetry must carry no payload or λ")
	}
	if OpTelemetry.String() != "TELEMETRY" {
		t.Fatalf("String() = %q", OpTelemetry.String())
	}
	pkt, err := AppendRequests(nil, []Request{{Code: OpTelemetry}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequests(pkt)
	if err != nil || len(got) != 1 || got[0].Code != OpTelemetry {
		t.Fatalf("round trip: %v %+v", err, got)
	}
}
