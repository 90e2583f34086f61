package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"kvdirect/internal/wire"
)

// Dump and Load give the store a backup/restore path built on the wire
// format: Dump walks every stored pair (the same DMAs a full migration
// would issue) and writes length-prefixed packets of PUT operations;
// Load applies such a stream. A Dump taken from one store Loads into any
// configuration — the on-the-wire representation is layout-independent.

// dumpBatchOps is how many PUTs share one packet in a dump.
const dumpBatchOps = 64

// ErrDumpCorrupt reports a malformed dump stream.
var ErrDumpCorrupt = errors.New("core: corrupt dump")

// Dump serializes every stored KV pair to w. It returns the number of
// pairs written.
func (s *Store) Dump(w io.Writer) (int, error) {
	bw := bufio.NewWriter(w)
	var batch []wire.Request
	count := 0
	var werr error
	flush := func() {
		if len(batch) == 0 || werr != nil {
			return
		}
		pkt, err := wire.AppendRequests(nil, batch)
		if err != nil {
			werr = err
			return
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(pkt)))
		if _, err := bw.Write(hdr[:]); err != nil {
			werr = err
			return
		}
		if _, err := bw.Write(pkt); err != nil {
			werr = err
			return
		}
		batch = batch[:0]
	}
	s.Walk(func(key, value []byte) bool {
		batch = append(batch, wire.Request{
			Code:  wire.OpPut,
			Key:   append([]byte(nil), key...),
			Value: append([]byte(nil), value...),
		})
		count++
		if len(batch) >= dumpBatchOps {
			flush()
		}
		return werr == nil
	})
	flush()
	if werr != nil {
		return count, werr
	}
	return count, bw.Flush()
}

// Load applies a Dump stream to the store, returning the number of pairs
// restored.
func (s *Store) Load(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	count := 0
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return count, nil
			}
			return count, fmt.Errorf("%w: %v", ErrDumpCorrupt, err)
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > 16<<20 {
			return count, fmt.Errorf("%w: frame of %d bytes", ErrDumpCorrupt, n)
		}
		pkt := make([]byte, n)
		if _, err := io.ReadFull(br, pkt); err != nil {
			return count, fmt.Errorf("%w: %v", ErrDumpCorrupt, err)
		}
		reqs, err := wire.DecodeRequests(pkt)
		if err != nil {
			return count, fmt.Errorf("%w: %v", ErrDumpCorrupt, err)
		}
		for _, rq := range reqs {
			if rq.Code != wire.OpPut {
				return count, fmt.Errorf("%w: non-PUT op %v in dump", ErrDumpCorrupt, rq.Code)
			}
			if err := s.Put(rq.Key, rq.Value); err != nil {
				return count, err
			}
			count++
		}
	}
}
