package kvdirect

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"kvdirect/internal/wire"
)

// Op-log recording and replay: an op-log file is a sequence of framed
// wire packets, each one batch of operations exactly as it would cross
// the network, in the frames kvnet puts on a socket (internal/wire's
// one codec: length u32 | CRC32C u32 | packet) — so a bit flip on disk
// is detected as ErrOpLogCorrupt instead of replaying a damaged
// workload. Logs captured from a live workload (cmd/kvdload -record)
// replay deterministically against any store configuration, which is
// how production KVS teams debug capacity and regression questions —
// and how this repository's experiments can be re-driven from a fixed
// op stream. (A "trace" in this repository is a telemetry span tree;
// this is the recorded workload.)

// ErrOpLogCorrupt reports a malformed op-log file.
var ErrOpLogCorrupt = errors.New("kvdirect: corrupt op-log")

// OpLogWriter records operation batches to an underlying writer.
type OpLogWriter struct {
	w   *bufio.Writer
	err error
}

// NewOpLogWriter wraps w for op-log recording.
func NewOpLogWriter(w io.Writer) *OpLogWriter {
	return &OpLogWriter{w: bufio.NewWriter(w)}
}

// Record appends one batch to the log. A failure is sticky: the log is
// no longer trustworthy.
func (t *OpLogWriter) Record(ops []Op) error {
	if t.err != nil {
		return t.err
	}
	pkt, err := EncodeBatch(ops)
	if err == nil {
		err = wire.WriteFrame(t.w, pkt)
	}
	t.err = err
	return err
}

// Flush writes buffered data through to the underlying writer. A flush
// failure is sticky too.
func (t *OpLogWriter) Flush() error {
	if t.err == nil {
		t.err = t.w.Flush()
	}
	return t.err
}

// errOpLogNotCanonical rejects a packet Record could not have written.
var errOpLogNotCanonical = errors.New("batch is not in the encoding Record writes")

// ReplayFunc streams an op-log, invoking fn once per recorded batch.
// It stops at EOF or on the first error from fn. A batch is accepted
// only in the one encoding Record gives it — no trailing bytes, no
// trace flags, the compression the encoder chooses — so re-recording
// what a replay accepts writes the log's bytes back exactly.
func ReplayFunc(r io.Reader, fn func(ops []Op) error) (batches, ops int, err error) {
	br := bufio.NewReader(r)
	var canon []byte
	for {
		// A fresh frame per batch: fn may keep the ops, which alias it.
		pkt, err := wire.ReadFrame(br, nil)
		if err == io.EOF {
			return batches, ops, nil
		}
		var batch []Op
		if err == nil {
			batch, err = wire.DecodeRequests(pkt)
		}
		if err == nil {
			canon, err = wire.AppendRequests(canon[:0], batch)
			if err == nil && !bytes.Equal(canon, pkt) {
				err = errOpLogNotCanonical
			}
		}
		if err != nil {
			return batches, ops, fmt.Errorf("%w: %v", ErrOpLogCorrupt, err)
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
