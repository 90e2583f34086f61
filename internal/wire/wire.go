// Package wire defines KV-Direct's client/server network format (paper
// §4 "Vector Operation Decoder", Table 1): multiple KV operations batched
// into one packet to amortize the 88-byte RDMA-over-Ethernet framing
// overhead, with two flag bits that let an operation reuse the previous
// operation's key/value sizes or its entire value — the compact
// representation that makes network batching effective (Figure 15).
//
// The format is deliberately simple and fixed-endian (little-endian, like
// the FPGA decoder) so the hardware can unpack one operation per clock
// cycle:
//
//	packet  := magic u16 | version u8 | count u16 | op*
//	op      := opcode u8 | flags u8
//	           [klen u8 | vlen u16]     unless FlagSameSizes
//	           key [klen]
//	           value [vlen]             if opcode carries a value and
//	                                    not FlagSameValue
//	           [funcID u8 | elemWidth u8 | plen u8 | param [plen]]
//	                                    if opcode is an update/reduce/
//	                                    filter (λ is pre-registered and
//	                                    compiled; the wire carries only
//	                                    its id and parameters)
//	resp    := status u8 | vlen u16 | value [vlen]
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Packet header.
const (
	Magic   = 0x4B56 // "KV"
	Version = 1

	HeaderBytes = 5 // magic + version + count
)

// OpCode identifies a KV-Direct operation (Table 1).
type OpCode uint8

// Operation codes.
const (
	OpGet OpCode = iota + 1
	OpPut
	OpDelete
	OpUpdateScalar // update_scalar2scalar: v' = λ(v, Δ), returns old v
	OpUpdateS2V    // update_scalar2vector: per-element λ(v_i, Δ)
	OpUpdateV2V    // update_vector2vector: per-element λ(v_i, Δ_i)
	OpReduce       // reduce: Σ' = fold λ over elements from Σ0
	OpFilter       // filter: keep elements where λ(v_i) is true
	OpRegister     // register a λ: Param holds the expression source,
	// ElemWidth 0 registers an update function, 1 a filter predicate
	OpStats     // fetch server counters (response value: key=value lines)
	OpTelemetry // fetch the full telemetry snapshot (response value: JSON)
	OpScan      // ordered range scan: Key = start, Value = scan parameter
	// (limit + continuation cursor, see scan.go); the response value is an
	// encoded scan page
	OpPutVer     // versioned conditional store (gateway CAS family, see gw.go)
	OpCounterVer // versioned decimal counter incr/decr (see gw.go)
	opMax
)

func (o OpCode) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpDelete:
		return "DELETE"
	case OpUpdateScalar:
		return "UPDATE_SS"
	case OpUpdateS2V:
		return "UPDATE_SV"
	case OpUpdateV2V:
		return "UPDATE_VV"
	case OpReduce:
		return "REDUCE"
	case OpFilter:
		return "FILTER"
	case OpRegister:
		return "REGISTER"
	case OpStats:
		return "STATS"
	case OpTelemetry:
		return "TELEMETRY"
	case OpScan:
		return "SCAN"
	case OpPutVer:
		return "PUTVER"
	case OpCounterVer:
		return "COUNTERVER"
	default:
		return fmt.Sprintf("OpCode(%d)", uint8(o))
	}
}

// Valid reports whether the opcode is defined.
func (o OpCode) Valid() bool { return o >= OpGet && o < opMax }

// HasValue reports whether the op carries a value payload on the wire.
// A SCAN's "value" is its encoded parameter (limit + cursor), which rides
// the existing value field so the framing needs no new shape; a PUTVER's
// value is the flags-prefixed new item.
func (o OpCode) HasValue() bool {
	return o == OpPut || o == OpUpdateV2V || o == OpScan || o == OpPutVer
}

// HasParam reports whether the op carries the funcID/elemWidth/param
// trailer on the wire. The λ family does (HasFunc); the gateway ops
// reuse the same trailer for their fixed-size condition/counter
// parameters, so the framing again needs no new shape.
func (o OpCode) HasParam() bool {
	return o.HasFunc() || o == OpPutVer || o == OpCounterVer
}

// HasFunc reports whether the op references a registered λ.
func (o OpCode) HasFunc() bool { return o >= OpUpdateScalar && o <= OpRegister }

// opEffects is what applying each op does to a store — the one list two
// layers consult without applying anything: a replica sequences, logs
// and ships exactly the ops that mutate, and a client replays after a
// transport error only a batch of idempotent ops.
//
// REDUCE and FILTER only read; REGISTER mutates the store's λ table. A
// replayed GET, PUT, DELETE or REGISTER converges (DELETE's existed-bit
// may differ, which callers treating delete-of-missing as success
// tolerate); a replayed update applies its λ twice, and the gateway ops
// bump the version on every success (a replayed SET double-bumps, a
// replayed CAS fails with Exists, a counter re-applies its delta).
var opEffects = [opMax]struct{ mutates, idempotent bool }{
	OpGet:          {false, true},
	OpPut:          {true, true},
	OpDelete:       {true, true},
	OpUpdateScalar: {true, false},
	OpUpdateS2V:    {true, false},
	OpUpdateV2V:    {true, false},
	OpReduce:       {false, true},
	OpFilter:       {false, true},
	OpRegister:     {true, true},
	OpStats:        {false, true},
	OpTelemetry:    {false, true},
	OpScan:         {false, true},
	OpPutVer:       {true, false},
	OpCounterVer:   {true, false},
}

// Mutates reports whether applying the op can change stored state, so a
// replicated write must be sequenced and shipped.
func (o OpCode) Mutates() bool { return o.Valid() && opEffects[o].mutates }

// Idempotent reports whether applying the op twice leaves the store as
// applying it once does, so a client may replay it. Replayable holds for
// the op alone, not against a concurrent writer: a replayed PUT or DELETE
// can land after another client's write to the same key. An invalid op is
// rejected without effect.
func (o OpCode) Idempotent() bool { return !o.Valid() || opEffects[o].idempotent }

// Flag bits (paper: "two flag bits to allow copying key and value size,
// or the value of the previous KV in the packet"). FlagTrace is a
// reproduction extension: set on the FIRST op of a packet, it asks the
// server to trace the whole batch and append one extra trailing
// response carrying the server-side span as JSON. Decoders ignore it on
// other ops, so the flag survives the compression round trip.
const (
	FlagSameSizes uint8 = 1 << 0
	FlagSameValue uint8 = 1 << 1
	FlagTrace     uint8 = 1 << 2
)

// Request is one decoded KV operation.
type Request struct {
	Code      OpCode
	Key       []byte
	Value     []byte // PUT payload or UpdateV2V operand vector
	FuncID    uint8  // registered update function
	ElemWidth uint8  // vector element width in bytes
	Param     []byte // scalar Δ or initial Σ (≤ 255 bytes)
}

// Response status codes.
const (
	StatusOK       uint8 = 0
	StatusNotFound uint8 = 1
	StatusError    uint8 = 2
	// StatusNotPrimary rejects a mutating operation sent to a replica
	// that is not its group's primary. The operation was NOT applied, so
	// retrying it elsewhere is always safe; the response value optionally
	// carries the current primary's address as a redirect hint.
	StatusNotPrimary uint8 = 3
	// StatusExists rejects a versioned conditional store whose
	// precondition failed against an EXISTING item: a CAS whose expected
	// version no longer matches, or an add of a key already present.
	// Nothing was applied; the memcache gateway maps it to KEY_EXISTS.
	StatusExists uint8 = 4
	// StatusNotStored rejects an append/prepend against a missing item
	// (memcache ITEM_NOT_STORED): the op requires existing bytes to
	// extend and there were none.
	StatusNotStored uint8 = 5
	// StatusBadDelta rejects a counter op whose stored payload is not an
	// unsigned decimal number (memcache DELTA_BADVAL).
	StatusBadDelta uint8 = 6
	// StatusFull reports the store ran out of memory applying the op
	// (kvdirect.ErrFull) — distinct from StatusError so the gateway can
	// answer OUT_OF_MEMORY instead of a generic failure.
	StatusFull uint8 = 7
)

// Response is one operation result.
type Response struct {
	Status uint8
	Value  []byte
}

// ResponsesFor returns out[:n] for a batch of n answers, allocating only
// when out's capacity is short: a serve loop passes the same scratch
// every batch, a caller without one passes nil. The contents are stale;
// the caller overwrites every element.
func ResponsesFor(out []Response, n int) []Response {
	if cap(out) < n {
		return make([]Response, n)
	}
	return out[:n]
}

// OK reports whether the operation succeeded.
func (r Response) OK() bool { return r.Status == StatusOK }

// NotFound reports whether the key was absent.
func (r Response) NotFound() bool { return r.Status == StatusNotFound }

// NotPrimary reports whether a replica rejected the operation because it
// is not its group's primary (Value optionally holds the primary's
// address).
func (r Response) NotPrimary() bool { return r.Status == StatusNotPrimary }

// Decoding errors.
var (
	ErrBadMagic    = errors.New("wire: bad magic")
	ErrBadVersion  = errors.New("wire: unsupported version")
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrBadOpcode   = errors.New("wire: invalid opcode")
	ErrFirstFlags  = errors.New("wire: first op cannot reference previous op")
	ErrKeyTooLong  = errors.New("wire: key exceeds 255 bytes")
	ErrValTooLong  = errors.New("wire: value exceeds 65535 bytes")
	ErrParamTooBig = errors.New("wire: param exceeds 255 bytes")
	ErrTooManyOps  = errors.New("wire: more than 65535 ops in one packet")
)

// AppendRequests encodes reqs into one packet appended to dst, applying
// same-size/same-value compression automatically, and returns the
// extended buffer.
func AppendRequests(dst []byte, reqs []Request) ([]byte, error) {
	if len(reqs) > 0xFFFF {
		return nil, ErrTooManyOps
	}
	var hdr [HeaderBytes]byte
	binary.LittleEndian.PutUint16(hdr[0:], Magic)
	hdr[2] = Version
	binary.LittleEndian.PutUint16(hdr[3:], uint16(len(reqs)))
	dst = append(dst, hdr[:]...)

	var prevK, prevV int = -1, -1
	var prevValue []byte
	havePrevValue := false
	for i, r := range reqs {
		if !r.Code.Valid() {
			return nil, ErrBadOpcode
		}
		if len(r.Key) > 255 {
			return nil, ErrKeyTooLong
		}
		if len(r.Value) > 0xFFFF {
			return nil, ErrValTooLong
		}
		if len(r.Param) > 255 {
			return nil, ErrParamTooBig
		}
		vlen := 0
		if r.Code.HasValue() {
			vlen = len(r.Value)
		}
		var flags uint8
		if i > 0 && len(r.Key) == prevK && vlen == prevV {
			flags |= FlagSameSizes
		}
		if r.Code.HasValue() && havePrevValue && vlen == len(prevValue) &&
			vlen == prevV && bytesEqual(r.Value, prevValue) {
			// Same value as the previous op: elide the payload. The
			// sizes flag must also hold so the decoder knows vlen.
			if flags&FlagSameSizes != 0 {
				flags |= FlagSameValue
			}
		}
		dst = append(dst, uint8(r.Code), flags)
		if flags&FlagSameSizes == 0 {
			dst = append(dst, uint8(len(r.Key)))
			var v [2]byte
			binary.LittleEndian.PutUint16(v[:], uint16(vlen))
			dst = append(dst, v[:]...)
			prevK, prevV = len(r.Key), vlen
		}
		dst = append(dst, r.Key...)
		if r.Code.HasValue() {
			if flags&FlagSameValue == 0 {
				dst = append(dst, r.Value...)
				prevValue = r.Value
				havePrevValue = true
			}
		} else {
			havePrevValue = false
		}
		if r.Code.HasParam() {
			dst = append(dst, r.FuncID, r.ElemWidth, uint8(len(r.Param)))
			dst = append(dst, r.Param...)
		}
	}
	return dst, nil
}

// DecodeRequests unpacks one packet. This is the software model of the
// FPGA's vector operation decoder.
func DecodeRequests(pkt []byte) ([]Request, error) {
	return DecodeRequestsTo(nil, pkt)
}

// DecodeRequestsTo is DecodeRequests appending to dst, for a serve loop
// that recycles its request slice. The requests alias pkt.
func DecodeRequestsTo(dst []Request, pkt []byte) ([]Request, error) {
	if len(pkt) < HeaderBytes {
		return nil, ErrTruncated
	}
	if binary.LittleEndian.Uint16(pkt[0:]) != Magic {
		return nil, ErrBadMagic
	}
	if pkt[2] != Version {
		return nil, ErrBadVersion
	}
	count := int(binary.LittleEndian.Uint16(pkt[3:]))
	p := pkt[HeaderBytes:]

	reqs := slices.Grow(dst, count)
	var prevK, prevV int
	var prevValue []byte
	for i := 0; i < count; i++ {
		if len(p) < 2 {
			return nil, ErrTruncated
		}
		op, flags := OpCode(p[0]), p[1]
		p = p[2:]
		if !op.Valid() {
			return nil, ErrBadOpcode
		}
		klen, vlen := prevK, prevV
		if flags&FlagSameSizes == 0 {
			if len(p) < 3 {
				return nil, ErrTruncated
			}
			klen = int(p[0])
			vlen = int(binary.LittleEndian.Uint16(p[1:]))
			p = p[3:]
			prevK, prevV = klen, vlen
		} else if i == 0 {
			return nil, ErrFirstFlags
		}
		if len(p) < klen {
			return nil, ErrTruncated
		}
		r := Request{Code: op, Key: p[:klen:klen]}
		p = p[klen:]
		if op.HasValue() {
			if flags&FlagSameValue != 0 {
				if i == 0 || prevValue == nil || len(prevValue) != vlen {
					return nil, ErrFirstFlags
				}
				r.Value = prevValue
			} else {
				if len(p) < vlen {
					return nil, ErrTruncated
				}
				r.Value = p[:vlen:vlen]
				p = p[vlen:]
				prevValue = r.Value
			}
		} else {
			prevValue = nil
		}
		if op.HasParam() {
			if len(p) < 3 {
				return nil, ErrTruncated
			}
			r.FuncID, r.ElemWidth = p[0], p[1]
			plen := int(p[2])
			p = p[3:]
			if len(p) < plen {
				return nil, ErrTruncated
			}
			r.Param = p[:plen:plen]
			p = p[plen:]
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// AppendResponses encodes resps appended to dst.
func AppendResponses(dst []byte, resps []Response) ([]byte, error) {
	if len(resps) > 0xFFFF {
		return nil, ErrTooManyOps
	}
	var hdr [HeaderBytes]byte
	binary.LittleEndian.PutUint16(hdr[0:], Magic)
	hdr[2] = Version
	binary.LittleEndian.PutUint16(hdr[3:], uint16(len(resps)))
	dst = append(dst, hdr[:]...)
	for _, r := range resps {
		if len(r.Value) > 0xFFFF {
			return nil, ErrValTooLong
		}
		var v [3]byte
		v[0] = r.Status
		binary.LittleEndian.PutUint16(v[1:], uint16(len(r.Value)))
		dst = append(dst, v[:]...)
		dst = append(dst, r.Value...)
	}
	return dst, nil
}

// DecodeResponses unpacks a response packet.
func DecodeResponses(pkt []byte) ([]Response, error) {
	if len(pkt) < HeaderBytes {
		return nil, ErrTruncated
	}
	if binary.LittleEndian.Uint16(pkt[0:]) != Magic {
		return nil, ErrBadMagic
	}
	if pkt[2] != Version {
		return nil, ErrBadVersion
	}
	count := int(binary.LittleEndian.Uint16(pkt[3:]))
	p := pkt[HeaderBytes:]
	resps := make([]Response, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 3 {
			return nil, ErrTruncated
		}
		status := p[0]
		vlen := int(binary.LittleEndian.Uint16(p[1:]))
		p = p[3:]
		if len(p) < vlen {
			return nil, ErrTruncated
		}
		resps = append(resps, Response{Status: status, Value: p[:vlen:vlen]})
		p = p[vlen:]
	}
	return resps, nil
}

// MarkTraced sets FlagTrace on an encoded request packet's first op,
// asking the server for a span of the batch. Operating on the encoded
// bytes keeps the flag out of Request, so encode/decode round trips and
// the compression logic are untouched.
func MarkTraced(pkt []byte) error {
	if len(pkt) < HeaderBytes+2 || binary.LittleEndian.Uint16(pkt[3:]) == 0 {
		return ErrTruncated
	}
	pkt[HeaderBytes+1] |= FlagTrace
	return nil
}

// IsTraced reports whether MarkTraced was applied to the packet.
func IsTraced(pkt []byte) bool {
	return len(pkt) >= HeaderBytes+2 &&
		binary.LittleEndian.Uint16(pkt[3:]) > 0 &&
		pkt[HeaderBytes+1]&FlagTrace != 0
}

// EncodedSize returns the exact wire size AppendRequests would produce,
// used by the network batching model (Figure 15).
func EncodedSize(reqs []Request) (int, error) {
	b, err := AppendRequests(nil, reqs)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
