package kvnet

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// MaxFrame bounds a single frame's payload (requests or responses).
const MaxFrame = 16 << 20

// frameHeaderBytes is the fixed frame header: 4-byte little-endian
// payload length followed by a 4-byte CRC32C of the payload.
const frameHeaderBytes = 8

// Frame errors.
var (
	// ErrFrameTooLarge is returned when a peer sends an oversized frame.
	ErrFrameTooLarge = errors.New("kvnet: frame exceeds 16 MiB")
	// ErrFrameCorrupt is returned when a frame's payload fails its CRC.
	// The stream is still aligned on the next frame boundary, so the
	// receiver may reject the frame without dropping the connection.
	ErrFrameCorrupt = errors.New("kvnet: frame checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// readFrame reads one checksummed frame. Corruption inside the payload
// surfaces as ErrFrameCorrupt with the stream intact; a short read
// (truncated header or payload) surfaces as an io error and the
// connection is unusable.
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame reading the payload into buf's capacity
// when it fits, for a reader that recycles its frame buffer.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, ErrFrameCorrupt
	}
	return buf, nil
}

// ReadFrame reads one checksummed frame from r — the same framing the
// client/server path uses, exported so other transports (kvrepl's log
// shipping stream) reuse it instead of inventing their own.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r) }

// WriteFrame writes one checksummed frame to w.
func WriteFrame(w io.Writer, pkt []byte) error { return writeFrame(w, pkt) }

// writeFrame writes one checksummed frame.
func writeFrame(w io.Writer, pkt []byte) error {
	if len(pkt) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [frameHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(pkt)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(pkt, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}
