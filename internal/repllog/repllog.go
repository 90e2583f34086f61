// Package repllog is the replication log shared by primaries and
// backups in a replica group (kvrepl).
//
// The log is an in-memory, bounded window of sequence-numbered entries:
// the primary appends every mutating operation before shipping it, and
// each backup appends every entry it applies, so whichever replica is
// promoted can replay its own tail to the others. Entries are dense
// (seq N is always followed by N+1) and the window is truncated from
// the front once it exceeds its capacity — a replica that has fallen
// behind the window's first retained entry must catch up by snapshot
// instead of replay, exactly the Raft-style compaction split.
package repllog

import (
	"errors"
	"sync"

	"kvdirect/internal/wire"
)

// DefaultWindow is the default number of retained entries.
const DefaultWindow = 4096

// Entry is one replicated mutating operation.
type Entry struct {
	Seq   uint64 // dense, starting at 1
	Epoch uint64 // election epoch of the primary that created it
	// Packet is the encoded single-operation request packet
	// (wire.AppendRequests of one mutating op) — the same bytes a
	// client would have sent, so replicas reuse the standard decoder.
	Packet []byte
}

// NewEntry encodes req into an entry with the given seq and epoch.
func NewEntry(seq, epoch uint64, req wire.Request) (Entry, error) {
	// One allocation, sized for the op plus the trace context a sampled
	// write stamps on afterwards.
	size := wire.HeaderBytes + 8 + len(req.Key) + len(req.Value) + len(req.Param) + wire.TraceContextBytes
	pkt, err := wire.AppendRequests(make([]byte, 0, size), []wire.Request{req})
	if err != nil {
		return Entry{}, err
	}
	return Entry{Seq: seq, Epoch: epoch, Packet: pkt}, nil
}

// Log errors.
var (
	// ErrGap reports an append whose seq is not exactly lastSeq+1.
	ErrGap = errors.New("repllog: sequence gap")
	// ErrTruncated reports a replay request below the retained window.
	ErrTruncated = errors.New("repllog: sequence truncated out of the window")
)

// Log is a bounded, dense window of entries, kept in a ring: appending
// to a full window overwrites its oldest slot, so no operation costs
// more than the entries it returns. It is safe for concurrent use: the
// primary's client path appends while peer-sync goroutines read tails
// for replay.
type Log struct {
	mu     sync.Mutex
	ring   []Entry // the i-th retained entry sits at slot(i); every other slot is zero
	head   int     // ring index of the oldest retained entry
	n      int     // retained entries
	first  uint64  // seq of the oldest retained entry; meaningful when n > 0
	last   uint64  // last appended seq (survives truncation)
	window int
	pinned uint64 // entries with Seq >= pinned survive truncation; 0 = unpinned
}

// New returns an empty log retaining at most window entries
// (DefaultWindow if window <= 0).
func New(window int) *Log {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Log{window: window, ring: make([]Entry, window)}
}

// slot maps the i-th retained entry (0 <= i <= len(ring)) to its ring index.
func (l *Log) slot(i int) int {
	if i += l.head; i >= len(l.ring) {
		i -= len(l.ring)
	}
	return i
}

// appendFrom appends the i-th and later retained entries to buf, in order.
func (l *Log) appendFrom(buf []Entry, i int) []Entry {
	from, end := l.slot(i), l.slot(l.n)
	if from < end || i == l.n {
		return append(buf, l.ring[from:end]...)
	}
	return append(append(buf, l.ring[from:]...), l.ring[:end]...)
}

// resize moves the retained entries into a fresh ring of capacity c >= n.
// The old ring is dropped whole, so nothing it referenced stays reachable.
func (l *Log) resize(c int) {
	l.ring, l.head = l.appendFrom(make([]Entry, 0, c), 0)[:c], 0
}

// Append adds e to the log. The first append fixes the log's base; every
// later append must continue the dense sequence or ErrGap is returned.
// Once the window is full the oldest entry is evicted — its slot zeroed,
// so the packet is collectable at once — unless a pin holds it, in which
// case the ring grows instead.
//
//kvd:hotpath
func (l *Log) Append(e Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.last != 0 && e.Seq != l.last+1 {
		return ErrGap
	}
	if l.n == 0 {
		l.first = e.Seq
	}
	// Evict down to window-1 entries to make room, but never at or past
	// the pin: entries a live migration still has to hand off stay
	// retained even when the window overflows.
	drop := l.n + 1 - l.window
	if below := max(l.pinned, l.first) - l.first; l.pinned != 0 && drop > 0 && uint64(drop) > below {
		drop = int(below)
	}
	for ; drop > 0; drop-- {
		l.ring[l.head] = Entry{}
		l.head = l.slot(1)
		l.first++
		l.n--
	}
	if l.n == len(l.ring) {
		l.resize(2 * len(l.ring)) //lint:allow hotalloc -- only a pin fills the ring; doubling amortizes its growth
	} else if len(l.ring) > l.window && l.n < l.window {
		l.resize(l.window) //lint:allow hotalloc -- once per released pin: the log is back inside its window
	}
	l.ring[l.slot(l.n)] = e
	l.n++
	l.last = e.Seq
	return nil
}

// Pin fences truncation at seq: every retained entry with Seq >= seq
// survives window overflow until Unpin (or a later Pin) releases it —
// the ring grows past the window instead of evicting. A migration pins
// the tail it still has to hand off so a burst of writes cannot evict
// entries between two shipping rounds. Pinning does not resurrect
// entries already truncated.
func (l *Log) Pin(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pinned = seq
}

// Unpin releases the truncation fence; the next Append trims the log
// back to its window and shrinks a grown ring.
func (l *Log) Unpin() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pinned = 0
}

// LastSeq returns the highest appended sequence number (0 when nothing
// was ever appended).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// FirstSeq returns the lowest retained sequence number, ok=false when
// the log holds no entries.
func (l *Log) FirstSeq() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == 0 {
		return 0, false
	}
	return l.first, true
}

// Len returns the number of retained entries.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Since copies every retained entry with Seq > seq, in order, into
// buf[:0] (growing it if needed) and returns it; a shipping loop passes
// the same buffer back each round and so copies only the tail it asked
// for. It returns ErrTruncated when entries after seq have already been
// dropped from the window (the caller must fall back to a snapshot).
func (l *Log) Since(seq uint64, buf []Entry) ([]Entry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	buf = buf[:0]
	if seq >= l.last {
		return buf, nil
	}
	if l.n == 0 || seq+1 < l.first {
		return buf, ErrTruncated
	}
	return l.appendFrom(buf, int(seq+1-l.first)), nil
}

// Reset drops every entry and re-bases the log so the next append must
// carry seq+1, used after a snapshot install sets a new applied frontier.
func (l *Log) Reset(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.ring)
	l.head, l.n = 0, 0
	l.last = seq
}
