package kvnet

import (
	"io"

	"kvdirect/internal/wire"
)

// The frame codec lives in internal/wire (the op-log on disk uses the
// same one); these are its names for importers that cannot reach an
// internal package, and for other transports (kvrepl's log shipping
// stream) that reuse the framing instead of inventing their own.

// MaxFrame bounds a single frame's payload (requests or responses).
const MaxFrame = wire.MaxFrame

// Frame errors.
var (
	// ErrFrameTooLarge is returned when a peer sends an oversized frame.
	ErrFrameTooLarge = wire.ErrFrameTooLarge
	// ErrFrameCorrupt is returned when a frame's payload fails its CRC.
	// The stream is still aligned on the next frame boundary, so the
	// receiver may reject the frame without dropping the connection.
	ErrFrameCorrupt = wire.ErrFrameCorrupt
)

// ReadFrame reads one checksummed frame from r. Corruption inside the
// payload surfaces as ErrFrameCorrupt with the stream intact; a short
// read (truncated header or payload) surfaces as an io error and the
// connection is unusable.
func ReadFrame(r io.Reader) ([]byte, error) { return wire.ReadFrame(r, nil) }

// WriteFrame writes one checksummed frame to w.
func WriteFrame(w io.Writer, pkt []byte) error { return wire.WriteFrame(w, pkt) }
