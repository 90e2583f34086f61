package wire

import (
	"bytes"
	"testing"
)

func TestScanParamRoundTrip(t *testing.T) {
	cases := []struct {
		limit  int
		cursor []byte
	}{
		{1, nil},
		{100, []byte("resume")},
		{MaxScanLimit, bytes.Repeat([]byte{0xFF}, MaxScanCursorLen)},
	}
	for _, c := range cases {
		v, err := EncodeScanParam(c.limit, c.cursor)
		if err != nil {
			t.Fatalf("encode (%d, %d-byte cursor): %v", c.limit, len(c.cursor), err)
		}
		limit, cursor, err := DecodeScanParam(v)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if limit != c.limit || !bytes.Equal(cursor, c.cursor) {
			t.Fatalf("round trip: got (%d, %q), want (%d, %q)", limit, cursor, c.limit, c.cursor)
		}
	}
}

func TestScanParamErrors(t *testing.T) {
	if _, err := EncodeScanParam(0, nil); err != ErrScanLimit {
		t.Fatalf("limit 0: %v", err)
	}
	if _, err := EncodeScanParam(MaxScanLimit+1, nil); err != ErrScanLimit {
		t.Fatalf("limit over max: %v", err)
	}
	if _, err := EncodeScanParam(1, bytes.Repeat([]byte{1}, MaxScanCursorLen+1)); err != ErrScanCursor {
		t.Fatalf("oversized cursor: %v", err)
	}
	if _, _, err := DecodeScanParam(nil); err != ErrScanParam {
		t.Fatalf("empty param: %v", err)
	}
	if _, _, err := DecodeScanParam([]byte{0, 0}); err != ErrScanLimit {
		t.Fatalf("decoded zero limit: %v", err)
	}
}

func TestScanPageRoundTrip(t *testing.T) {
	entries := []ScanEntry{
		{Key: []byte("alpha"), Value: []byte("1")},
		{Key: []byte("beta"), Value: nil},
		{Key: bytes.Repeat([]byte{0x7F}, 255), Value: bytes.Repeat([]byte{5}, 1000)},
	}
	cursor := []byte("next-key")
	page, err := EncodeScanPage(entries, cursor)
	if err != nil {
		t.Fatal(err)
	}
	got, gotCursor, err := DecodeScanPage(page)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCursor, cursor) {
		t.Fatalf("cursor: got %q, want %q", gotCursor, cursor)
	}
	if len(got) != len(entries) {
		t.Fatalf("entries: got %d, want %d", len(got), len(entries))
	}
	for i := range entries {
		if !bytes.Equal(got[i].Key, entries[i].Key) || !bytes.Equal(got[i].Value, entries[i].Value) {
			t.Fatalf("entry %d corrupted", i)
		}
	}
}

func TestScanPageEmptyExhausted(t *testing.T) {
	page, err := EncodeScanPage(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	entries, cursor, err := DecodeScanPage(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || cursor != nil {
		t.Fatalf("empty page decoded as %d entries, cursor %q", len(entries), cursor)
	}
}

func TestScanPageErrors(t *testing.T) {
	if _, err := EncodeScanPage([]ScanEntry{{Key: bytes.Repeat([]byte{1}, 256)}}, nil); err != ErrKeyTooLong {
		t.Fatalf("oversized key: %v", err)
	}
	if _, err := EncodeScanPage(nil, bytes.Repeat([]byte{1}, MaxScanCursorLen+1)); err != ErrScanCursor {
		t.Fatalf("oversized cursor: %v", err)
	}
	// A page whose total exceeds the 64 KiB value cap must be rejected.
	big := []ScanEntry{
		{Key: []byte("a"), Value: bytes.Repeat([]byte{1}, 0xFFFF)},
	}
	if _, err := EncodeScanPage(big, nil); err != ErrValTooLong {
		t.Fatalf("oversized page: %v", err)
	}
	// Truncated and trailing-garbage pages are rejected.
	good, _ := EncodeScanPage([]ScanEntry{{Key: []byte("k"), Value: []byte("v")}}, nil)
	if _, _, err := DecodeScanPage(good[:len(good)-1]); err == nil {
		t.Fatal("truncated page accepted")
	}
	if _, _, err := DecodeScanPage(append(good, 0)); err != ErrScanPage {
		t.Fatalf("trailing garbage: %v", err)
	}
}

// TestScanOpFraming: OpScan rides the standard request framing with its
// parameter in the value field.
func TestScanOpFraming(t *testing.T) {
	param, err := EncodeScanParam(42, []byte("cur"))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := AppendRequests(nil, []Request{{Code: OpScan, Key: []byte("start"), Value: param}})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := DecodeRequests(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Code != OpScan {
		t.Fatalf("decoded %d reqs, op %v", len(reqs), reqs[0].Code)
	}
	limit, cursor, err := DecodeScanParam(reqs[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if limit != 42 || string(cursor) != "cur" || string(reqs[0].Key) != "start" {
		t.Fatalf("framing mangled scan: limit=%d cursor=%q key=%q", limit, cursor, reqs[0].Key)
	}
	if OpScan.String() != "SCAN" {
		t.Fatalf("OpScan.String() = %q", OpScan.String())
	}
}
