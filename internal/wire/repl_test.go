package wire

import (
	"bytes"
	"errors"
	"testing"
)

// replSamples holds one message of every kind (replRetired is not one).
var replSamples = []ReplMessage{
	{Kind: ReplHello, Epoch: 1, Seq: 42},
	{Kind: ReplAppend, Epoch: 3, Seq: 43, Payload: []byte("op-bytes")},
	{Kind: ReplAck, Epoch: 3, Seq: 43},
	{Kind: ReplSnapshotBegin, Epoch: 7, Seq: 100},
	{Kind: ReplSnapshotChunk, Epoch: 7, Seq: 100, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	{Kind: ReplSnapshotEnd, Epoch: 7, Seq: 100},
	{Kind: ReplHeartbeat, Epoch: 7, Seq: 250},
	{Kind: ReplReject, Epoch: 9, Seq: 0, Payload: []byte("stale epoch 7 < 9")},
	{Kind: ReplInstall, Epoch: 10, Seq: 600},
}

func TestReplMessageRoundTrip(t *testing.T) {
	if kinds := int(replKindMax-ReplHello) - 1; len(replSamples) != kinds {
		t.Fatalf("%d samples for %d kinds", len(replSamples), kinds)
	}
	for _, m := range replSamples {
		pkt, err := AppendReplMessage(nil, m)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		got, err := DecodeReplMessage(pkt)
		if err != nil {
			t.Fatalf("%v: decode: %v", m.Kind, err)
		}
		if got.Kind != m.Kind || got.Epoch != m.Epoch || got.Seq != m.Seq ||
			!bytes.Equal(got.Payload, m.Payload) {
			t.Fatalf("round trip mismatch: sent %+v got %+v", m, got)
		}
	}
}

func TestReplMessageAppendPayloadCarriesRequestPacket(t *testing.T) {
	// The Append payload is a standard single-op request packet, so the
	// backup reuses the vector operation decoder unchanged.
	inner, err := AppendRequests(nil, []Request{
		{Code: OpPut, Key: []byte("k"), Value: []byte("v")},
	})
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := AppendReplMessage(nil, ReplMessage{
		Kind: ReplAppend, Epoch: 2, Seq: 9, Payload: inner,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeReplMessage(pkt)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := DecodeRequests(m.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].Code != OpPut || string(reqs[0].Key) != "k" {
		t.Fatalf("decoded %+v", reqs)
	}
}

func TestReplMessageDecodeErrors(t *testing.T) {
	good, err := AppendReplMessage(nil, ReplMessage{Kind: ReplAck, Epoch: 1, Seq: 5})
	if err != nil {
		t.Fatal(err)
	}

	short := good[:ReplHeaderBytes-1]
	if _, err := DecodeReplMessage(short); !errors.Is(err, ErrReplTruncated) {
		t.Fatalf("short header: got %v", err)
	}

	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	if _, err := DecodeReplMessage(badMagic); !errors.Is(err, ErrReplBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}

	badVersion := append([]byte(nil), good...)
	badVersion[2] = 0xEE
	if _, err := DecodeReplMessage(badVersion); !errors.Is(err, ErrReplBadVersion) {
		t.Fatalf("bad version: got %v", err)
	}

	badKind := append([]byte(nil), good...)
	badKind[3] = 0xEE
	if _, err := DecodeReplMessage(badKind); !errors.Is(err, ErrReplBadKind) {
		t.Fatalf("bad kind: got %v", err)
	}
	if _, err := AppendReplMessage(nil, ReplMessage{Kind: ReplKind(0xEE)}); !errors.Is(err, ErrReplBadKind) {
		t.Fatalf("encode bad kind: got %v", err)
	}

	withPayload, err := AppendReplMessage(nil, ReplMessage{
		Kind: ReplAppend, Epoch: 1, Seq: 5, Payload: []byte("payload"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeReplMessage(withPayload[:len(withPayload)-2]); !errors.Is(err, ErrReplTruncated) {
		t.Fatalf("truncated payload: got %v", err)
	}
	if _, err := DecodeReplMessage(append(withPayload, 0)); !errors.Is(err, ErrReplTrailing) {
		t.Fatalf("trailing byte: got %v", err)
	}
}
