package kvnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"testing"

	"kvdirect"
	"kvdirect/internal/wire"
)

func TestFrameZeroLengthRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != wire.FrameHeaderBytes {
		t.Fatalf("zero-length frame is %d bytes, want %d", buf.Len(), wire.FrameHeaderBytes)
	}
	pkt, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkt) != 0 {
		t.Fatalf("payload = %d bytes, want 0", len(pkt))
	}
}

func TestFrameExactlyMaxFrame(t *testing.T) {
	payload := make([]byte, MaxFrame)
	payload[0], payload[MaxFrame-1] = 0xAB, 0xCD
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != MaxFrame || got[0] != 0xAB || got[MaxFrame-1] != 0xCD {
		t.Fatal("MaxFrame payload did not round-trip")
	}
}

func TestFrameOverMaxRejected(t *testing.T) {
	if err := WriteFrame(io.Discard, make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("writeFrame = %v, want ErrFrameTooLarge", err)
	}
	// A peer claiming an oversized frame must be rejected from the header
	// alone, before any allocation.
	var hdr [wire.FrameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("readFrame = %v, want ErrFrameTooLarge", err)
	}
}

// streams are the two kinds of reader ReadFrame meets: a plain one, and
// a bufio.Reader, whose frame header is peeked out of its buffer.
var streams = []struct {
	name string
	of   func(b []byte) io.Reader
}{
	{"plain", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"bufio", func(b []byte) io.Reader { return bufio.NewReader(bytes.NewReader(b)) }},
}

func TestFrameTruncatedHeader(t *testing.T) {
	for _, s := range streams {
		for n := 1; n < wire.FrameHeaderBytes; n++ {
			_, err := ReadFrame(s.of(make([]byte, n)))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: %d-byte header: err = %v, want ErrUnexpectedEOF", s.name, n, err)
			}
		}
		// Empty stream: clean EOF (the peer closed between frames).
		if _, err := ReadFrame(s.of(nil)); err != io.EOF {
			t.Fatalf("%s: empty stream: err = %v, want EOF", s.name, err)
		}
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("full payload here")); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	for _, s := range streams {
		if _, err := ReadFrame(s.of(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want ErrUnexpectedEOF", s.name, err)
		}
	}
}

// TestFrameEOFBetweenFrames: two frames, then a clean end of stream,
// whichever reader carries them.
func TestFrameEOFBetweenFrames(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range []string{"first", ""} {
		if err := WriteFrame(&buf, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range streams {
		r := s.of(buf.Bytes())
		for _, want := range []string{"first", ""} {
			if got, err := ReadFrame(r); err != nil || string(got) != want {
				t.Fatalf("%s: %q, %v; want %q", s.name, got, err, want)
			}
		}
		if _, err := ReadFrame(r); err != io.EOF {
			t.Fatalf("%s: after the last frame: err = %v, want EOF", s.name, err)
		}
	}
}

func TestFrameCorruptPayloadDetected(t *testing.T) {
	payload := []byte("precious bytes that must not be trusted when damaged")
	for i := 0; i < len(payload); i++ {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		raw[wire.FrameHeaderBytes+i] ^= 0x01 // single-bit damage anywhere in the payload
		if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("flip at byte %d: err = %v, want ErrFrameCorrupt", i, err)
		}
	}
}

// TestServerSurvivesCorruptFrame speaks the protocol over a raw socket:
// a frame with a bad CRC must draw an error response while the
// connection keeps working for the next (intact) frame.
func TestServerSurvivesCorruptFrame(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	pkt, err := kvdirect.EncodeBatch([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("k"), Value: []byte("v")},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Intact length, correct framing, wrong CRC.
	var hdr [wire.FrameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(pkt)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(pkt, crc32.MakeTable(crc32.Castagnoli))^0xDEADBEEF)
	if _, err := conn.Write(append(hdr[:], pkt...)); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadFrame(r)
	if err != nil {
		t.Fatalf("no response to corrupt frame: %v", err)
	}
	results, err := kvdirect.DecodeResults(resp)
	if err != nil || len(results) != 1 {
		t.Fatalf("bad error response: %v %v", results, err)
	}
	if results[0].Status != kvdirect.StatusError {
		t.Fatalf("status = %d, want StatusError", results[0].Status)
	}

	// Same connection, intact frame: must work.
	var good bytes.Buffer
	if err := WriteFrame(&good, pkt); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(good.Bytes()); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadFrame(r)
	if err != nil {
		t.Fatalf("connection dead after corrupt frame: %v", err)
	}
	results, err = kvdirect.DecodeResults(resp)
	if err != nil || len(results) != 1 || !results[0].OK() {
		t.Fatalf("put after corrupt frame failed: %v %v", results, err)
	}
	if got := srv.Counters().Get("server.corrupt_frames"); got != 1 {
		t.Fatalf("server.corrupt_frames = %d, want 1", got)
	}
}

// TestServerSurvivesBadBatch: an intact frame holding undecodable bytes
// draws an error response without killing the connection.
func TestServerSurvivesBadBatch(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	var junk bytes.Buffer
	if err := WriteFrame(&junk, []byte{0xFF, 0xFE, 0xFD}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(junk.Bytes()); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadFrame(r)
	if err != nil {
		t.Fatalf("no response to bad batch: %v", err)
	}
	results, err := kvdirect.DecodeResults(resp)
	if err != nil || len(results) != 1 || results[0].Status != kvdirect.StatusError {
		t.Fatalf("bad batch response: %v %v", results, err)
	}

	pkt, _ := kvdirect.EncodeBatch([]kvdirect.Op{{Code: kvdirect.OpStats}})
	var good bytes.Buffer
	_ = WriteFrame(&good, pkt) //lint:allow statuserr -- in-memory bytes.Buffer sink cannot fail
	if _, err := conn.Write(good.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(r); err != nil {
		t.Fatalf("connection dead after bad batch: %v", err)
	}
	if got := srv.Counters().Get("server.bad_batches"); got != 1 {
		t.Fatalf("server.bad_batches = %d, want 1", got)
	}
}
