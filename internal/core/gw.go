package core

import (
	"strconv"

	"kvdirect/internal/hashtable"
	"kvdirect/internal/wire"
)

// Gateway-support ops: the versioned conditional store (OpPutVer) and
// versioned decimal counter (OpCounterVer) the memcache protocol
// gateway translates onto. Both are read-modify-writes, and each is one
// table walk: the stored item is read, checked and — if the check
// passes — replaced or deleted in the same pass, the KV processor's
// atomic as one lookup and one write-back (§3.3.3). The serving backend
// applies one batch at a time under its lock (the store backend's
// mutex, a replica's lock), so each op is atomic with respect to every
// other client, the same way the paper's one hardware pipeline
// serializes dependent atomics (§5.1.3).
//
// Version assignment is deterministic from the previous stored state
// (old version + 1, or 1 on create), so a replicated backup replaying
// the identical op log converges on byte-identical items and the
// version can serve as the memcache CAS token.

// modify is one read-modify-write of key in a single table walk
// (hashtable.Table.Modify), its create or delete mirrored into the
// ordered index. The pipeline is drained first, as Scan does, so no
// in-flight op shares the key. A callback builds what it stores in
// s.item, which the table copies into its own memory.
func (s *Store) modify(key []byte, fn func(old []byte, found bool) ([]byte, hashtable.Edit)) error {
	s.engine.Flush()
	return s.exec.Modify(key, fn)
}

// applyPutVer executes one OpPutVer request.
func (s *Store) applyPutVer(req wire.Request) wire.Response {
	mode, expect, err := wire.DecodePutVerParam(req.Param)
	if err != nil {
		return errResp(err)
	}
	var resp wire.Response
	err = s.modify(req.Key, func(old []byte, found bool) ([]byte, hashtable.Edit) {
		item := wire.DecodeGwItem(old) // version 0, no flags, when absent
		if status := putVerCheck(mode, expect, found, item.Version); status != wire.StatusOK {
			resp = wire.Response{Status: status}
			return nil, hashtable.Keep
		}
		if mode == wire.PutVerDelete {
			resp = wire.Response{Status: wire.StatusOK,
				Value: wire.EncodePutVerReply(item.Version, true, len(old))}
			return nil, hashtable.Remove
		}
		flags, payload, err := wire.DecodeGwValue(req.Value)
		if err != nil {
			resp = errResp(err)
			return nil, hashtable.Keep
		}
		var before, after []byte // the old payload, around the new one
		switch mode {
		case wire.PutVerAppend: // appends and prepends keep the old flags
			flags, before = item.Flags, item.Payload
		case wire.PutVerPrepend:
			flags, after = item.Flags, item.Payload
		}
		if len(before)+len(payload)+len(after) > wire.MaxGwPayload {
			resp = errResp(ErrFull) // grown past the wire's value cap
			return nil, hashtable.Keep
		}
		ver := item.Version + 1
		s.item = wire.AppendGwItemHeader(s.item[:0], ver, flags)
		s.item = append(append(append(s.item, before...), payload...), after...)
		resp = wire.Response{Status: wire.StatusOK,
			Value: wire.EncodePutVerReply(ver, found, len(old))}
		return s.item, hashtable.Store
	})
	if err != nil {
		return errResp(err)
	}
	return resp
}

// putVerCheck returns the status a PutVer's precondition fails with
// against the stored item, or StatusOK: nothing is written unless it
// passes.
func putVerCheck(mode wire.PutVerMode, expect uint64, found bool, version uint64) uint8 {
	switch mode {
	case wire.PutVerAdd:
		if found {
			return wire.StatusExists
		}
	case wire.PutVerReplace:
		if !found {
			return wire.StatusNotFound
		}
	case wire.PutVerCAS:
		if !found {
			return wire.StatusNotFound
		}
		if version != expect {
			return wire.StatusExists
		}
	case wire.PutVerAppend, wire.PutVerPrepend:
		if !found {
			return wire.StatusNotStored
		}
		if expect != 0 && version != expect {
			return wire.StatusExists
		}
	case wire.PutVerDelete:
		if !found {
			return wire.StatusNotFound
		}
		if expect != 0 && version != expect {
			return wire.StatusExists
		}
	}
	return wire.StatusOK
}

// applyCounterVer executes one OpCounterVer request: memcache INCR/DECR
// over an ASCII-decimal payload, with saturating decrement and
// wrapping increment (memcached semantics).
func (s *Store) applyCounterVer(req wire.Request) wire.Response {
	sub, delta, initial, create, err := wire.DecodeCounterParam(req.Param)
	if err != nil {
		return errResp(err)
	}
	var resp wire.Response
	err = s.modify(req.Key, func(old []byte, found bool) ([]byte, hashtable.Edit) {
		item := wire.DecodeGwItem(old) // version 0, no flags, when absent
		var val uint64
		switch cur, ok := parseDecimal(item.Payload); {
		case !found && !create:
			resp = wire.Response{Status: wire.StatusNotFound}
			return nil, hashtable.Keep
		case !found:
			val = initial
		case !ok:
			resp = wire.Response{Status: wire.StatusBadDelta}
			return nil, hashtable.Keep
		case sub == wire.CounterIncr:
			val = cur + delta // wraps at 2^64, as memcached does
		case delta > cur:
			val = 0 // decrement saturates at zero
		default:
			val = cur - delta
		}
		ver := item.Version + 1
		// Stored as ASCII decimal, memcached's counter representation.
		s.item = strconv.AppendUint(wire.AppendGwItemHeader(s.item[:0], ver, item.Flags), val, 10)
		resp = wire.Response{Status: wire.StatusOK, Value: wire.EncodeCounterReply(val, ver)}
		return s.item, hashtable.Store
	})
	if err != nil {
		return errResp(err)
	}
	return resp
}

// parseDecimal interprets payload as an unsigned decimal number. A
// payload that is empty, longer than 20 digits, has non-digits, or
// overflows uint64 is rejected.
func parseDecimal(p []byte) (uint64, bool) {
	if len(p) == 0 || len(p) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range p {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}
