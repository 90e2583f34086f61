// Replication message format (kvrepl's log-shipping stream).
//
// A replica group ships mutating operations from the primary to its
// backups as sequence-numbered log entries over the same CRC32C-framed
// transport the client path uses (kvnet frames). Inside each frame is
// one replication message:
//
//	replmsg := magic u16 | version u8 | kind u8
//	           epoch u64 | seq u64
//	           plen u32 | payload [plen]
//
// Epoch is the primary's election epoch (fencing: a backup rejects
// messages from a lower epoch than it has seen), seq is the log
// sequence number the message refers to, and payload is kind-specific:
// an encoded single-operation request packet for Append, raw Dump bytes
// for SnapshotChunk, a reason string for Reject, empty otherwise.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ReplMagic distinguishes replication messages from client packets.
const (
	ReplMagic   = 0x5250 // "PR" little-endian, reads as "RP" on the wire
	ReplVersion = 1

	ReplHeaderBytes = 2 + 1 + 1 + 8 + 8 + 4 // magic, version, kind, epoch, seq, plen
)

// ReplKind identifies one replication message type.
type ReplKind uint8

// Replication message kinds.
const (
	// ReplHello opens a stream: the backup reports its last applied
	// sequence number (seq field) so the primary can choose log replay
	// or snapshot catch-up.
	ReplHello ReplKind = iota + 1
	// ReplAppend carries one log entry: seq is the entry's sequence
	// number, payload the encoded single-op request packet.
	ReplAppend
	// ReplAck acknowledges that the backup has applied every entry up
	// to and including seq.
	ReplAck
	// ReplSnapshotBegin starts a snapshot transfer consistent as of seq;
	// the backup discards its state and loads the following chunks.
	ReplSnapshotBegin
	// ReplSnapshotChunk carries a slice of the Dump stream.
	ReplSnapshotChunk
	// ReplSnapshotEnd closes the snapshot; the backup's applied sequence
	// becomes seq and log replay continues from seq+1.
	ReplSnapshotEnd
	// ReplHeartbeat reports the primary's last assigned sequence number,
	// letting backups measure replication lag while idle.
	ReplHeartbeat
	// ReplReject refuses the stream (stale epoch, bad handshake);
	// payload is a human-readable reason.
	ReplReject
	// replRetired (9) was the MIGRATE handshake: a migration destination
	// is now reached with an ordinary ReplHello, and the decoder rejects
	// the old value.
	replRetired
	// ReplInstall commits a migration at cutover. The source's learner (the
	// non-voting stream that caught the destination up) sends it after
	// draining the fenced tail: epoch is the cutover epoch and seq the
	// shard's final log frontier. The destination acks only if its applied
	// frontier matches exactly, the wire-level proof that no acked write
	// was left behind.
	ReplInstall

	replKindMax
)

func (k ReplKind) String() string {
	switch k {
	case ReplHello:
		return "HELLO"
	case ReplAppend:
		return "APPEND"
	case ReplAck:
		return "ACK"
	case ReplSnapshotBegin:
		return "SNAP_BEGIN"
	case ReplSnapshotChunk:
		return "SNAP_CHUNK"
	case ReplSnapshotEnd:
		return "SNAP_END"
	case ReplHeartbeat:
		return "HEARTBEAT"
	case ReplReject:
		return "REJECT"
	case ReplInstall:
		return "INSTALL"
	default:
		return fmt.Sprintf("ReplKind(%d)", uint8(k))
	}
}

// Valid reports whether the kind is defined.
func (k ReplKind) Valid() bool { return k >= ReplHello && k < replKindMax && k != replRetired }

// ReplMessage is one decoded replication message.
type ReplMessage struct {
	Kind    ReplKind
	Epoch   uint64
	Seq     uint64
	Payload []byte
}

// Replication decoding errors.
var (
	ErrReplBadMagic   = errors.New("wire: bad replication magic")
	ErrReplBadVersion = errors.New("wire: unsupported replication version")
	ErrReplBadKind    = errors.New("wire: invalid replication message kind")
	ErrReplTruncated  = errors.New("wire: truncated replication message")
	ErrReplTrailing   = errors.New("wire: trailing bytes after replication message")
)

// AppendReplMessage encodes m appended to dst.
func AppendReplMessage(dst []byte, m ReplMessage) ([]byte, error) {
	if !m.Kind.Valid() {
		return nil, ErrReplBadKind
	}
	var hdr [ReplHeaderBytes]byte
	binary.LittleEndian.PutUint16(hdr[0:], ReplMagic)
	hdr[2] = ReplVersion
	hdr[3] = uint8(m.Kind)
	binary.LittleEndian.PutUint64(hdr[4:], m.Epoch)
	binary.LittleEndian.PutUint64(hdr[12:], m.Seq)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(len(m.Payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, m.Payload...), nil
}

// DecodeReplMessage unpacks one replication message, which must fill pkt
// exactly: a frame carries one message, so bytes past its payload are
// damage, not a second message. Every message it accepts re-encodes to
// pkt byte for byte (FuzzDecodeReplMessage).
func DecodeReplMessage(pkt []byte) (ReplMessage, error) {
	var m ReplMessage
	if len(pkt) < ReplHeaderBytes {
		return m, ErrReplTruncated
	}
	if binary.LittleEndian.Uint16(pkt[0:]) != ReplMagic {
		return m, ErrReplBadMagic
	}
	if pkt[2] != ReplVersion {
		return m, ErrReplBadVersion
	}
	m.Kind = ReplKind(pkt[3])
	if !m.Kind.Valid() {
		return m, ErrReplBadKind
	}
	m.Epoch = binary.LittleEndian.Uint64(pkt[4:])
	m.Seq = binary.LittleEndian.Uint64(pkt[12:])
	plen := int(binary.LittleEndian.Uint32(pkt[20:]))
	body := pkt[ReplHeaderBytes:]
	if len(body) < plen {
		return m, ErrReplTruncated
	}
	if len(body) > plen {
		return m, ErrReplTrailing
	}
	if plen > 0 {
		m.Payload = body[:plen:plen]
	}
	return m, nil
}
