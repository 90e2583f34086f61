// Package kvgw is a memcache-binary-protocol front-end for KV-Direct:
// stock memcache clients speak the standard 24-byte-header binary
// protocol to the gateway, which translates each command onto the
// store's wire operations and serves them through any kvnet backend —
// a single server, a sharded fleet, or a replicated group.
//
// The gateway is multi-tenant: every connection authenticates (SASL
// PLAIN) as a tenant, tenant keys are namespaced by prefix at the codec
// layer (the core hash/scan paths are untouched), and admission enforces
// per-tenant quotas — key count, stored bytes, and an ops/s token
// bucket. Per-tenant telemetry registries feed the host server's
// Prometheus/JSON export. See DESIGN.md, "Protocol gateway &
// multi-tenancy".
package kvgw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Memcache binary protocol framing (the de-facto spec from the
// memcached source, protocol_binary.h).
const (
	MagicRequest  = 0x80
	MagicResponse = 0x81

	// HeaderSize is the fixed request/response header length.
	HeaderSize = 24
)

// Request opcodes the gateway serves.
const (
	CmdGet      = 0x00
	CmdSet      = 0x01
	CmdAdd      = 0x02
	CmdReplace  = 0x03
	CmdDelete   = 0x04
	CmdIncr     = 0x05
	CmdDecr     = 0x06
	CmdQuit     = 0x07
	CmdFlush    = 0x08 // accepted, refused (tenant flush is an admin op)
	CmdGetQ     = 0x09
	CmdNoop     = 0x0a
	CmdVersion  = 0x0b
	CmdGetK     = 0x0c
	CmdGetKQ    = 0x0d
	CmdAppend   = 0x0e
	CmdPrepend  = 0x0f
	CmdStat     = 0x10
	CmdSetQ     = 0x11
	CmdAddQ     = 0x12
	CmdReplaceQ = 0x13
	CmdDeleteQ  = 0x14
	CmdIncrQ    = 0x15
	CmdDecrQ    = 0x16
	CmdQuitQ    = 0x17
	CmdFlushQ   = 0x18
	CmdAppendQ  = 0x19
	CmdPrependQ = 0x1a

	CmdSASLListMechs = 0x20
	CmdSASLAuth      = 0x21
	CmdSASLStep      = 0x22
)

// Response status codes.
const (
	StatusOK             = 0x0000
	StatusKeyNotFound    = 0x0001
	StatusKeyExists      = 0x0002
	StatusTooLarge       = 0x0003 // E2BIG
	StatusInvalidArgs    = 0x0004
	StatusNotStored      = 0x0005
	StatusDeltaBadVal    = 0x0006
	StatusAuthError      = 0x0020
	StatusAuthContinue   = 0x0021
	StatusUnknownCommand = 0x0081
	StatusOutOfMemory    = 0x0082
	StatusInternalError  = 0x0084
	StatusBusy           = 0x0085
	StatusTempFailure    = 0x0086
)

// Protocol limits. MaxKeyLen is the memcache spec's 250-byte cap; the
// body cap bounds a frame's total payload (extras+key+value) well under
// the store's 64 KiB wire value so a hostile length field cannot balloon
// allocation.
const (
	MaxKeyLen  = 250
	MaxBodyLen = 1 << 20
)

// Codec errors.
var (
	ErrBadMagic   = errors.New("kvgw: bad magic byte")
	ErrFrameSizes = errors.New("kvgw: inconsistent frame lengths")
	ErrKeyLen     = errors.New("kvgw: key length out of range")
	ErrBodyLen    = errors.New("kvgw: body too large")
	ErrExtrasLen  = errors.New("kvgw: extras longer than one header byte can express")
	ErrDatatype   = errors.New("kvgw: nonzero datatype byte")
)

// Request is one decoded memcache binary request.
type Request struct {
	Opcode  uint8
	Opaque  uint32
	CAS     uint64
	VBucket uint16
	Extras  []byte
	Key     []byte
	Value   []byte
}

// Response is one memcache binary response. Extras/Key/Value follow the
// protocol's layout rules for the opcode being answered.
type Response struct {
	Opcode uint8
	Status uint16
	Opaque uint32
	CAS    uint64
	Extras []byte
	Key    []byte
	Value  []byte
}

// Quiet reports whether op is a quiet variant — one whose success (and,
// for GETQ, whose miss) elides the response.
func Quiet(op uint8) bool {
	switch op {
	case CmdGetQ, CmdGetKQ, CmdSetQ, CmdAddQ, CmdReplaceQ, CmdDeleteQ,
		CmdIncrQ, CmdDecrQ, CmdQuitQ, CmdFlushQ, CmdAppendQ, CmdPrependQ:
		return true
	}
	return false
}

// loud maps a quiet opcode to its response-bearing form, so replies
// (errors from quiet ops must still be sent) carry the canonical opcode.
func loud(op uint8) uint8 {
	switch op {
	case CmdGetQ:
		return CmdGet
	case CmdGetKQ:
		return CmdGetK
	case CmdSetQ:
		return CmdSet
	case CmdAddQ:
		return CmdAdd
	case CmdReplaceQ:
		return CmdReplace
	case CmdDeleteQ:
		return CmdDelete
	case CmdIncrQ:
		return CmdIncr
	case CmdDecrQ:
		return CmdDecr
	case CmdQuitQ:
		return CmdQuit
	case CmdFlushQ:
		return CmdFlush
	case CmdAppendQ:
		return CmdAppend
	case CmdPrependQ:
		return CmdPrepend
	}
	return op
}

// DecodeRequest parses one request frame (header + body) from buf and
// returns it with the number of bytes consumed. io.ErrShortBuffer means
// "read more"; other errors are fatal to the connection (the stream can
// no longer be framed).
func DecodeRequest(buf []byte) (Request, int, error) {
	if len(buf) < HeaderSize {
		return Request{}, 0, io.ErrShortBuffer
	}
	if buf[0] != MagicRequest {
		return Request{}, 0, ErrBadMagic
	}
	if buf[5] != 0 {
		// Datatype is always 0x00 ("raw bytes") in the protocol as
		// deployed; rejecting anything else keeps accepted frames
		// canonical (decode∘encode is the identity).
		return Request{}, 0, ErrDatatype
	}
	keyLen := int(binary.BigEndian.Uint16(buf[2:]))
	extLen := int(buf[4])
	bodyLen := int(binary.BigEndian.Uint32(buf[8:]))
	if bodyLen > MaxBodyLen {
		return Request{}, 0, ErrBodyLen
	}
	if keyLen > MaxKeyLen {
		return Request{}, 0, ErrKeyLen
	}
	if extLen+keyLen > bodyLen {
		return Request{}, 0, ErrFrameSizes
	}
	total := HeaderSize + bodyLen
	if len(buf) < total {
		return Request{}, 0, io.ErrShortBuffer
	}
	body := buf[HeaderSize:total]
	req := Request{
		Opcode:  buf[1],
		VBucket: binary.BigEndian.Uint16(buf[6:]),
		Opaque:  binary.BigEndian.Uint32(buf[12:]),
		CAS:     binary.BigEndian.Uint64(buf[16:]),
	}
	// Slices alias buf; callers that keep them past the next read must
	// copy (the gateway translates immediately, so it never does).
	req.Extras = body[:extLen:extLen]
	req.Key = body[extLen : extLen+keyLen : extLen+keyLen]
	req.Value = body[extLen+keyLen : bodyLen : bodyLen]
	return req, total, nil
}

// AppendRequest encodes one request frame onto dst (client side: the
// load generator and tests speak the same dialect they verify).
func AppendRequest(dst []byte, r Request) ([]byte, error) {
	if len(r.Key) > MaxKeyLen {
		return nil, ErrKeyLen
	}
	if len(r.Extras) > 0xFF {
		return nil, ErrExtrasLen
	}
	bodyLen := len(r.Extras) + len(r.Key) + len(r.Value)
	if bodyLen > MaxBodyLen {
		return nil, ErrBodyLen
	}
	var hdr [HeaderSize]byte
	hdr[0] = MagicRequest
	hdr[1] = r.Opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(r.Key)))
	hdr[4] = uint8(len(r.Extras))
	binary.BigEndian.PutUint16(hdr[6:], r.VBucket)
	binary.BigEndian.PutUint32(hdr[8:], uint32(bodyLen))
	binary.BigEndian.PutUint32(hdr[12:], r.Opaque)
	binary.BigEndian.PutUint64(hdr[16:], r.CAS)
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Extras...)
	dst = append(dst, r.Key...)
	return append(dst, r.Value...), nil
}

// AppendResponse encodes one response frame onto dst.
func AppendResponse(dst []byte, r Response) ([]byte, error) {
	if len(r.Key) > MaxKeyLen {
		return nil, ErrKeyLen
	}
	if len(r.Extras) > 0xFF {
		return nil, ErrExtrasLen
	}
	bodyLen := len(r.Extras) + len(r.Key) + len(r.Value)
	if bodyLen > MaxBodyLen {
		return nil, ErrBodyLen
	}
	var hdr [HeaderSize]byte
	hdr[0] = MagicResponse
	hdr[1] = r.Opcode
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(r.Key)))
	hdr[4] = uint8(len(r.Extras))
	binary.BigEndian.PutUint16(hdr[6:], r.Status)
	binary.BigEndian.PutUint32(hdr[8:], uint32(bodyLen))
	binary.BigEndian.PutUint32(hdr[12:], r.Opaque)
	binary.BigEndian.PutUint64(hdr[16:], r.CAS)
	dst = append(dst, hdr[:]...)
	dst = append(dst, r.Extras...)
	dst = append(dst, r.Key...)
	return append(dst, r.Value...), nil
}

// DecodeResponse parses one response frame from buf (client side),
// returning it with the bytes consumed. io.ErrShortBuffer means "read
// more".
func DecodeResponse(buf []byte) (Response, int, error) {
	if len(buf) < HeaderSize {
		return Response{}, 0, io.ErrShortBuffer
	}
	if buf[0] != MagicResponse {
		return Response{}, 0, ErrBadMagic
	}
	if buf[5] != 0 {
		return Response{}, 0, ErrDatatype
	}
	keyLen := int(binary.BigEndian.Uint16(buf[2:]))
	extLen := int(buf[4])
	bodyLen := int(binary.BigEndian.Uint32(buf[8:]))
	if bodyLen > MaxBodyLen {
		return Response{}, 0, ErrBodyLen
	}
	if keyLen > MaxKeyLen {
		return Response{}, 0, ErrKeyLen
	}
	if extLen+keyLen > bodyLen {
		return Response{}, 0, ErrFrameSizes
	}
	total := HeaderSize + bodyLen
	if len(buf) < total {
		return Response{}, 0, io.ErrShortBuffer
	}
	body := buf[HeaderSize:total]
	resp := Response{
		Opcode: buf[1],
		Status: binary.BigEndian.Uint16(buf[6:]),
		Opaque: binary.BigEndian.Uint32(buf[12:]),
		CAS:    binary.BigEndian.Uint64(buf[16:]),
	}
	resp.Extras = body[:extLen:extLen]
	resp.Key = body[extLen : extLen+keyLen : extLen+keyLen]
	resp.Value = body[extLen+keyLen : bodyLen : bodyLen]
	return resp, total, nil
}

// StatusText names a status for error payloads and logs.
func StatusText(status uint16) string {
	switch status {
	case StatusOK:
		return "OK"
	case StatusKeyNotFound:
		return "Not found"
	case StatusKeyExists:
		return "Data exists for key"
	case StatusTooLarge:
		return "Too large"
	case StatusInvalidArgs:
		return "Invalid arguments"
	case StatusNotStored:
		return "Not stored"
	case StatusDeltaBadVal:
		return "Non-numeric value"
	case StatusAuthError:
		return "Auth failure"
	case StatusAuthContinue:
		return "Auth continue"
	case StatusUnknownCommand:
		return "Unknown command"
	case StatusOutOfMemory:
		return "Out of memory"
	case StatusInternalError:
		return "Internal error"
	case StatusBusy:
		return "Busy"
	case StatusTempFailure:
		return "Temporary failure"
	}
	return fmt.Sprintf("Status 0x%04x", status)
}
