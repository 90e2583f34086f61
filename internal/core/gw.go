package core

import (
	"kvdirect/internal/wire"
)

// Gateway-support ops: the versioned conditional store (OpPutVer) and
// versioned decimal counter (OpCounterVer) the memcache protocol
// gateway translates onto. Both are read-modify-write sequences on the
// single KV pipeline — the serving backend applies one batch at a time
// under its lock (the store backend's mutex, a replica's lock), so each
// op is atomic with respect to every other client, the same way the
// paper's one hardware pipeline serializes dependent atomics (§5.1.3).
//
// Version assignment is deterministic from the previous stored state
// (old version + 1, or 1 on create), so a replicated backup replaying
// the identical op log converges on byte-identical items and the
// version can serve as the memcache CAS token.

// applyPutVer executes one OpPutVer request.
func (s *Store) applyPutVer(req wire.Request) wire.Response {
	mode, expect, err := wire.DecodePutVerParam(req.Param)
	if err != nil {
		return errResp(err)
	}
	old, found := s.Get(req.Key)
	var oldItem wire.GwItem
	if found {
		oldItem = wire.DecodeGwItem(old)
	}

	// Precondition checks: nothing is written unless they all pass.
	switch mode {
	case wire.PutVerSet:
		// Unconditional.
	case wire.PutVerAdd:
		if found {
			return wire.Response{Status: wire.StatusExists}
		}
	case wire.PutVerReplace:
		if !found {
			return wire.Response{Status: wire.StatusNotFound}
		}
	case wire.PutVerCAS:
		if !found {
			return wire.Response{Status: wire.StatusNotFound}
		}
		if oldItem.Version != expect {
			return wire.Response{Status: wire.StatusExists}
		}
	case wire.PutVerAppend, wire.PutVerPrepend:
		if !found {
			return wire.Response{Status: wire.StatusNotStored}
		}
		if expect != 0 && oldItem.Version != expect {
			return wire.Response{Status: wire.StatusExists}
		}
	case wire.PutVerDelete:
		if !found {
			return wire.Response{Status: wire.StatusNotFound}
		}
		if expect != 0 && oldItem.Version != expect {
			return wire.Response{Status: wire.StatusExists}
		}
	}

	if mode == wire.PutVerDelete {
		if !s.Delete(req.Key) {
			return wire.Response{Status: wire.StatusNotFound}
		}
		return wire.Response{Status: wire.StatusOK,
			Value: wire.EncodePutVerReply(oldItem.Version, true, len(old))}
	}

	flags, payload, err := wire.DecodeGwValue(req.Value)
	if err != nil {
		return errResp(err)
	}
	newVer := oldItem.Version + 1
	if !found {
		newVer = 1
	}
	switch mode {
	case wire.PutVerAppend:
		// Appends keep the existing flags; the payload grows in place.
		flags = oldItem.Flags
		payload = concat(oldItem.Payload, payload)
	case wire.PutVerPrepend:
		flags = oldItem.Flags
		payload = concat(payload, oldItem.Payload)
	}
	if len(payload) > wire.MaxGwPayload {
		return errResp(ErrFull) // grown past the wire's value cap
	}
	if err := s.Put(req.Key, wire.EncodeGwItem(newVer, flags, payload)); err != nil {
		return errResp(err)
	}
	return wire.Response{Status: wire.StatusOK,
		Value: wire.EncodePutVerReply(newVer, found, len(old))}
}

// applyCounterVer executes one OpCounterVer request: memcache INCR/DECR
// over an ASCII-decimal payload, with saturating decrement and
// wrapping increment (memcached semantics).
func (s *Store) applyCounterVer(req wire.Request) wire.Response {
	sub, delta, initial, create, err := wire.DecodeCounterParam(req.Param)
	if err != nil {
		return errResp(err)
	}
	old, found := s.Get(req.Key)
	var newVal uint64
	var flags uint32
	newVer := uint64(1)
	if !found {
		if !create {
			return wire.Response{Status: wire.StatusNotFound}
		}
		newVal = initial
	} else {
		item := wire.DecodeGwItem(old)
		cur, ok := parseDecimal(item.Payload)
		if !ok {
			return wire.Response{Status: wire.StatusBadDelta}
		}
		if sub == wire.CounterIncr {
			newVal = cur + delta // wraps at 2^64, as memcached does
		} else {
			if delta > cur {
				newVal = 0 // decrement saturates at zero
			} else {
				newVal = cur - delta
			}
		}
		flags = item.Flags
		newVer = item.Version + 1
	}
	if err := s.Put(req.Key, wire.EncodeGwItem(newVer, flags, formatDecimal(newVal))); err != nil {
		return errResp(err)
	}
	return wire.Response{Status: wire.StatusOK,
		Value: wire.EncodeCounterReply(newVal, newVer)}
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

// formatDecimal renders n as ASCII decimal (memcached's stored counter
// representation).
func formatDecimal(n uint64) []byte {
	if n == 0 {
		return []byte{'0'}
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return append([]byte(nil), buf[i:]...)
}

// concat joins two byte slices into a fresh buffer (neither input is
// aliased — the store owns its copies, the caller theirs).
func concat(a, b []byte) []byte {
	out := make([]byte, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
