package wire

// Gateway-support operations: the versioned-CAS primitives the protocol
// gateway (kvgw) translates memcache binary commands onto.
//
// A gateway item is stored with a version header the SERVER owns:
//
//	stored := version u64 | flags u32 | payload
//
// The version starts at 1 and bumps by one on every successful mutation,
// deterministically derived from the previous stored state — so a
// replicated backup replaying the same op log converges on identical
// bytes, and the version doubles as the memcache CAS token. Values
// written by native clients without the header read as version 0 with
// empty flags (a CAS against them never matches, since live tokens are
// always >= 1).
//
// OpPutVer is one conditional store with a mode byte — the memcache
// storage family (SET/ADD/REPLACE/CAS/APPEND/PREPEND/DELETE) is seven
// modes of a single compare-version-and-swap primitive, exactly the
// paper's CAS atomic (§5.1.3) widened from an 8-byte scalar to a whole
// item:
//
//	param := mode u8 | expect u64       (expect 0 = unconditional)
//	value := flags u32 | payload        (ignored by delete)
//	reply := version u64 | existed u8 | oldlen u32
//
// The reply's existed bit and old stored length let the gateway keep
// exact per-tenant key/byte accounting from the authoritative,
// serialized answer instead of a racy read-before-write.
//
// OpCounterVer is the memcache INCR/DECR primitive: an atomic
// read-parse-adjust-write on a decimal-string payload (memcached stores
// counters as ASCII decimals), with memcache's vivify semantics:
//
//	param := sub u8 | delta u64 | initial u64 | create u8
//	reply := value u64 | version u64

import (
	"encoding/binary"
	"errors"
)

// PutVerMode selects OpPutVer's condition.
type PutVerMode uint8

// OpPutVer modes. Expectations: Set never fails on state; Add requires
// absence; Replace requires presence; CAS requires presence and a
// version match; Append/Prepend require presence (and a version match
// when expect != 0, as does Delete).
const (
	PutVerSet PutVerMode = iota + 1
	PutVerAdd
	PutVerReplace
	PutVerCAS
	PutVerAppend
	PutVerPrepend
	PutVerDelete
	putVerMax
)

func (m PutVerMode) String() string {
	switch m {
	case PutVerSet:
		return "set"
	case PutVerAdd:
		return "add"
	case PutVerReplace:
		return "replace"
	case PutVerCAS:
		return "cas"
	case PutVerAppend:
		return "append"
	case PutVerPrepend:
		return "prepend"
	case PutVerDelete:
		return "delete"
	default:
		return "invalid"
	}
}

// Valid reports whether the mode is defined.
func (m PutVerMode) Valid() bool { return m >= PutVerSet && m < putVerMax }

// Counter sub-ops for OpCounterVer.
const (
	CounterIncr uint8 = 0
	CounterDecr uint8 = 1
)

// Gateway item header: version u64 | flags u32.
const (
	GwVersionBytes = 8
	GwFlagsBytes   = 4
	// GwItemOverhead is the stored-value header the gateway adds to
	// every item.
	GwItemOverhead = GwVersionBytes + GwFlagsBytes
	// MaxGwPayload is the largest user payload a gateway item can carry
	// within the wire's 64 KiB value cap.
	MaxGwPayload = 0xFFFF - GwItemOverhead
)

// Fixed sizes of the gateway op parameter/reply encodings.
const (
	PutVerParamBytes   = 1 + 8         // mode + expect
	putVerReplyBytes   = 8 + 1 + 4     // version + existed + oldlen
	counterParamBytes  = 1 + 8 + 8 + 1 // sub + delta + initial + create
	counterReplyBytes  = 8 + 8         // value + version
	gwValueHeaderBytes = GwFlagsBytes  // request value: flags | payload
)

// Gateway codec errors.
var (
	ErrPutVerParam  = errors.New("wire: malformed putver parameter")
	ErrPutVerMode   = errors.New("wire: invalid putver mode")
	ErrPutVerValue  = errors.New("wire: putver value missing flags header")
	ErrCounterParam = errors.New("wire: malformed counter parameter")
	ErrGwReply      = errors.New("wire: malformed gateway reply")
)

// EncodePutVerParam packs an OpPutVer condition.
func EncodePutVerParam(mode PutVerMode, expect uint64) ([]byte, error) {
	return AppendPutVerParam(make([]byte, 0, PutVerParamBytes), mode, expect)
}

// AppendPutVerParam appends an OpPutVer condition (PutVerParamBytes) to
// dst.
func AppendPutVerParam(dst []byte, mode PutVerMode, expect uint64) ([]byte, error) {
	if !mode.Valid() {
		return nil, ErrPutVerMode
	}
	dst = append(dst, uint8(mode))
	return binary.LittleEndian.AppendUint64(dst, expect), nil
}

// DecodePutVerParam unpacks an OpPutVer condition.
func DecodePutVerParam(p []byte) (mode PutVerMode, expect uint64, err error) {
	if len(p) != PutVerParamBytes {
		return 0, 0, ErrPutVerParam
	}
	mode = PutVerMode(p[0])
	if !mode.Valid() {
		return 0, 0, ErrPutVerMode
	}
	return mode, binary.LittleEndian.Uint64(p[1:]), nil
}

// EncodeGwValue packs a request value (flags | payload) for OpPutVer.
func EncodeGwValue(flags uint32, payload []byte) ([]byte, error) {
	if len(payload) > MaxGwPayload {
		return nil, ErrValTooLong
	}
	return AppendGwValue(make([]byte, 0, gwValueHeaderBytes+len(payload)), flags, payload)
}

// AppendGwValue appends a request value (flags | payload, GwFlagsBytes
// longer than the payload) to dst.
func AppendGwValue(dst []byte, flags uint32, payload []byte) ([]byte, error) {
	if len(payload) > MaxGwPayload {
		return nil, ErrValTooLong
	}
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	return append(dst, payload...), nil
}

// DecodeGwValue splits an OpPutVer request value into flags and payload.
func DecodeGwValue(v []byte) (flags uint32, payload []byte, err error) {
	if len(v) < gwValueHeaderBytes {
		return 0, nil, ErrPutVerValue
	}
	rest := v[gwValueHeaderBytes:]
	return binary.LittleEndian.Uint32(v), rest[:len(rest):len(rest)], nil
}

// EncodePutVerReply packs an OpPutVer success reply.
func EncodePutVerReply(version uint64, existed bool, oldLen int) []byte {
	out := make([]byte, putVerReplyBytes)
	binary.LittleEndian.PutUint64(out, version)
	if existed {
		out[8] = 1
	}
	binary.LittleEndian.PutUint32(out[9:], uint32(oldLen))
	return out
}

// DecodePutVerReply unpacks an OpPutVer success reply.
func DecodePutVerReply(v []byte) (version uint64, existed bool, oldLen int, err error) {
	if len(v) != putVerReplyBytes {
		return 0, false, 0, ErrGwReply
	}
	return binary.LittleEndian.Uint64(v), v[8] != 0,
		int(binary.LittleEndian.Uint32(v[9:])), nil
}

// EncodeCounterParam packs an OpCounterVer parameter. sub is CounterIncr
// or CounterDecr; create=false maps memcache's 0xffffffff expiry ("do
// not vivify") and makes a missing key NotFound.
func EncodeCounterParam(sub uint8, delta, initial uint64, create bool) ([]byte, error) {
	if sub != CounterIncr && sub != CounterDecr {
		return nil, ErrCounterParam
	}
	out := make([]byte, counterParamBytes)
	out[0] = sub
	binary.LittleEndian.PutUint64(out[1:], delta)
	binary.LittleEndian.PutUint64(out[9:], initial)
	if create {
		out[17] = 1
	}
	return out, nil
}

// DecodeCounterParam unpacks an OpCounterVer parameter.
func DecodeCounterParam(p []byte) (sub uint8, delta, initial uint64, create bool, err error) {
	if len(p) != counterParamBytes {
		return 0, 0, 0, false, ErrCounterParam
	}
	sub = p[0]
	if sub != CounterIncr && sub != CounterDecr {
		return 0, 0, 0, false, ErrCounterParam
	}
	return sub, binary.LittleEndian.Uint64(p[1:]),
		binary.LittleEndian.Uint64(p[9:]), p[17] != 0, nil
}

// EncodeCounterReply packs an OpCounterVer success reply.
func EncodeCounterReply(value, version uint64) []byte {
	out := make([]byte, counterReplyBytes)
	binary.LittleEndian.PutUint64(out, value)
	binary.LittleEndian.PutUint64(out[8:], version)
	return out
}

// DecodeCounterReply unpacks an OpCounterVer success reply.
func DecodeCounterReply(v []byte) (value, version uint64, err error) {
	if len(v) != counterReplyBytes {
		return 0, 0, ErrGwReply
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:]), nil
}

// GwItem is a decoded stored gateway item.
type GwItem struct {
	Version uint64
	Flags   uint32
	Payload []byte
}

// DecodeGwItem interprets a stored value as a gateway item. Values
// shorter than the header (native writes into a gateway namespace) read
// as version 0 / flags 0 with the whole value as payload, so GETs of
// such keys still return bytes instead of failing.
func DecodeGwItem(stored []byte) GwItem {
	if len(stored) < GwItemOverhead {
		return GwItem{Payload: stored}
	}
	rest := stored[GwItemOverhead:]
	return GwItem{
		Version: binary.LittleEndian.Uint64(stored),
		Flags:   binary.LittleEndian.Uint32(stored[GwVersionBytes:]),
		Payload: rest[:len(rest):len(rest)],
	}
}

// AppendGwItemHeader appends a stored gateway item's header (version,
// flags) to dst; the item's payload follows it.
func AppendGwItemHeader(dst []byte, version uint64, flags uint32) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, version)
	return binary.LittleEndian.AppendUint32(dst, flags)
}
