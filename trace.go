package kvdirect

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"kvdirect/internal/wire"
)

// Trace recording and replay: a trace file is a sequence of framed wire
// packets, each one batch of operations exactly as it would cross the
// network. Every frame is an 8-byte little-endian header — payload
// length (u32) then CRC32C of the payload (u32) — followed by the
// packet, the same framing kvnet uses on the wire, so a bit flip on
// disk is detected as ErrTraceCorrupt instead of replaying a damaged
// workload. Traces captured from a live workload (cmd/kvdload -record)
// replay deterministically against any store configuration, which is
// how production KVS teams debug capacity and regression questions —
// and how this repository's experiments can be re-driven from a fixed
// op stream.

// ErrTraceCorrupt reports a malformed trace file.
var ErrTraceCorrupt = errors.New("kvdirect: corrupt trace")

// maxTraceFrame bounds one recorded batch (matches kvnet.MaxFrame).
const maxTraceFrame = 16 << 20

// traceHeaderBytes is the frame header: length u32 | crc32c u32.
const traceHeaderBytes = 8

// traceCRC is the Castagnoli table, matching kvnet's frame checksum.
var traceCRC = crc32.MakeTable(crc32.Castagnoli)

// TraceWriter records operation batches to an underlying writer.
type TraceWriter struct {
	w   *bufio.Writer
	err error
}

// NewTraceWriter wraps w for trace recording.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: bufio.NewWriter(w)}
}

// Record appends one batch to the trace.
func (t *TraceWriter) Record(ops []Op) error {
	if t.err != nil {
		return t.err
	}
	pkt, err := EncodeBatch(ops)
	if err != nil {
		t.err = err
		return err
	}
	if len(pkt) > maxTraceFrame {
		t.err = fmt.Errorf("kvdirect: trace batch of %d bytes exceeds frame limit", len(pkt))
		return t.err
	}
	var hdr [traceHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(pkt)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(pkt, traceCRC))
	if _, err := t.w.Write(hdr[:]); err != nil {
		t.err = err
		return err
	}
	if _, err := t.w.Write(pkt); err != nil {
		t.err = err
		return err
	}
	return nil
}

// Flush writes buffered data through to the underlying writer. A flush
// failure is sticky: the trace is no longer trustworthy.
func (t *TraceWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	if err := t.w.Flush(); err != nil {
		t.err = err
	}
	return t.err
}

// ReplayFunc streams a trace, invoking fn once per recorded batch.
// It stops at EOF or on the first error from fn.
func ReplayFunc(r io.Reader, fn func(ops []Op) error) (batches, ops int, err error) {
	br := bufio.NewReader(r)
	for {
		var hdr [traceHeaderBytes]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return batches, ops, nil
			}
			return batches, ops, fmt.Errorf("%w: %v", ErrTraceCorrupt, err)
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > maxTraceFrame {
			return batches, ops, fmt.Errorf("%w: frame of %d bytes", ErrTraceCorrupt, n)
		}
		pkt := make([]byte, n)
		if _, err := io.ReadFull(br, pkt); err != nil {
			return batches, ops, fmt.Errorf("%w: %v", ErrTraceCorrupt, err)
		}
		if sum := crc32.Checksum(pkt, traceCRC); sum != binary.LittleEndian.Uint32(hdr[4:]) {
			return batches, ops, fmt.Errorf("%w: frame checksum mismatch", ErrTraceCorrupt)
		}
		batch, err := wire.DecodeRequests(pkt)
		if err != nil {
			return batches, ops, fmt.Errorf("%w: %v", ErrTraceCorrupt, err)
		}
		batches++
		ops += len(batch)
		if err := fn(batch); err != nil {
			return batches, ops, err
		}
	}
}

// Replay applies every recorded batch to the store in order, returning
// how many batches and operations were executed and how many operations
// failed (StatusError results).
func Replay(r io.Reader, s *Store) (batches, ops, failed int, err error) {
	batches, ops, err = ReplayFunc(r, func(batch []Op) error {
		for _, res := range Execute(s, batch) {
			if res.Status == StatusError {
				failed++
			}
		}
		return nil
	})
	return batches, ops, failed, err
}
