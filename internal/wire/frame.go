package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// A frame carries one packet over a byte stream — a TCP connection
// (kvnet, kvrepl's log shipping) or a file (the root package's op-log):
//
//	frame := length u32 | crc32c u32 | payload [length]
//
// both header fields little-endian, the checksum Castagnoli over the
// payload alone.

// MaxFrame bounds a single frame's payload.
const MaxFrame = 16 << 20

// FrameHeaderBytes is the fixed frame header: payload length, then the
// payload's CRC32C.
const FrameHeaderBytes = 8

// Frame errors.
var (
	// ErrFrameTooLarge is returned when a frame's payload would exceed
	// MaxFrame, on either side.
	ErrFrameTooLarge = errors.New("wire: frame exceeds 16 MiB")
	// ErrFrameCorrupt is returned when a frame's payload fails its CRC.
	// The stream is still aligned on the next frame boundary, so the
	// receiver may reject the frame and keep reading.
	ErrFrameCorrupt = errors.New("wire: frame checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadFrame reads one checksummed frame, into buf's capacity when the
// payload fits (a reader that recycles its frame buffer passes it back;
// nil allocates). io.EOF means the stream ended cleanly between frames;
// a stream cut inside a frame is io.ErrUnexpectedEOF, and either way the
// stream is unusable. A payload that fails its checksum is
// ErrFrameCorrupt with the stream intact.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	n, sum, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a payload
		}
		return nil, err
	}
	if crc32.Checksum(buf, castagnoli) != sum {
		return nil, ErrFrameCorrupt
	}
	return buf, nil
}

// readHeader reads a frame header: straight out of a *bufio.Reader's
// buffer, which every stream reader in the repo is, so nothing is
// allocated; any other reader reads it into an array that escapes.
func readHeader(r io.Reader) (n, sum uint32, err error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		var hdr [FrameHeaderBytes]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return 0, 0, err
		}
		return binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:]), nil
	}
	hdr, err := br.Peek(FrameHeaderBytes)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF // cut inside the header
		}
		return 0, 0, err
	}
	n, sum = binary.LittleEndian.Uint32(hdr[:4]), binary.LittleEndian.Uint32(hdr[4:])
	_, err = br.Discard(FrameHeaderBytes)
	return n, sum, err
}

// WriteFrame writes one checksummed frame. Into a *bufio.Writer the
// header is appended in the writer's own free space, allocating nothing.
func WriteFrame(w io.Writer, pkt []byte) error {
	if len(pkt) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		if bw.Available() < FrameHeaderBytes {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		hdr = bw.AvailableBuffer()
	} else {
		hdr = make([]byte, 0, FrameHeaderBytes)
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(pkt)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(pkt, castagnoli))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(pkt)
	return err
}
