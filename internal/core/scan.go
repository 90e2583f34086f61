package core

import (
	"bytes"
	"errors"
	"slices"

	"kvdirect/internal/hashtable"
	"kvdirect/internal/ordered"
	"kvdirect/internal/wire"
)

// The ordered secondary index (internal/ordered) is built by a store's
// first scan and from then on kept coherent with the hash table at the
// single point every mutation funnels through: the executor the
// out-of-order engine issues to. Client PUT/DELETE, atomic
// read-modify-writes and the engine's deferred dirty-value write-backs
// all land here, so the index is exact whenever the pipeline is drained.
// Until the first scan there is no index, and the store pays exactly the
// paper's hash-only DMAs.

// ErrBadScanLimit rejects non-positive scan limits.
var ErrBadScanLimit = errors.New("core: scan limit must be positive")

// ErrScanEntryTooLarge reports an entry that alone exceeds a scan page's
// byte budget; returning an empty page with an unmoved cursor would stall
// a paged scan forever, so the scan fails loudly instead.
var ErrScanEntryTooLarge = errors.New("core: entry exceeds scan page budget")

// indexedExec wraps the hash table as the engine's executor, mirroring
// creates and deletes into the ordered index (idx is nil until the first
// scan builds it). The table goes first: it alone knows whether a PUT
// creates the key, and an overwrite — the common PUT, and every
// write-back onto an existing key — leaves the index untouched, so it
// costs no index seek.
type indexedExec struct {
	table *hashtable.Table
	idx   *ordered.Index
}

func (e *indexedExec) Get(key []byte) ([]byte, bool) { return e.table.Get(key) }

//kvd:hotpath
func (e *indexedExec) Put(key, value []byte) error {
	created, err := e.table.Put(key, value)
	return e.mirror(key, created, false, err)
}

func (e *indexedExec) Delete(key []byte) bool {
	ok := e.table.Delete(key)
	if ok && e.idx != nil {
		e.idx.Delete(key)
	}
	return ok
}

// Modify is the table's one-walk read-modify-write (Table.Modify), its
// create or delete mirrored into the index as Put and Delete mirror
// theirs.
func (e *indexedExec) Modify(key []byte, fn func(old []byte, found bool) ([]byte, hashtable.Edit)) error {
	created, deleted, err := e.table.Modify(key, fn)
	return e.mirror(key, created, deleted, err)
}

// mirror carries a table mutation's change to the key set into the index.
// A key the table accepted fits the index (both cap keys at 255 B), so
// a create fails only when its node cannot be allocated — the store is
// full — or when a corrupt link cuts the index walk short, which the op
// reports as that error. Either way the create is undone, and the key is
// in neither structure.
func (e *indexedExec) mirror(key []byte, created, deleted bool, err error) error {
	if err != nil || e.idx == nil {
		return err
	}
	if created {
		if _, err := e.idx.Insert(key); err != nil {
			e.table.Delete(key)
			if errors.Is(err, ordered.ErrCorrupt) {
				return err
			}
			return ErrFull
		}
	}
	if deleted {
		e.idx.Delete(key)
	}
	return nil
}

// ScanEntry is one key/value pair returned by an ordered scan.
type ScanEntry = wire.ScanEntry

// Scan returns up to limit pairs in ascending key order, starting at the
// first key >= start (nil start scans from the smallest key). The second
// return is the continuation cursor: the smallest key not yet returned,
// nil when the key space past start is exhausted. Resuming a scan at the
// cursor (inclusive) continues exactly where the page ended.
//
// The pipeline is drained first, so a page is a consistent snapshot of
// all operations submitted before the call. A store's first scan builds
// the ordered index (see buildIndex); it answers ErrFull, and the store
// stays unindexed, when the slabs have no room for the index.
func (s *Store) Scan(start []byte, limit int) ([]ScanEntry, []byte, error) {
	return s.scanBounded(start, limit, 0)
}

// scanBounded is Scan with an optional byte budget for the page's
// encoded entries (0 = unbounded), used by the wire path to fit pages
// under the response-value cap.
func (s *Store) scanBounded(start []byte, limit, maxBytes int) ([]ScanEntry, []byte, error) {
	if limit <= 0 {
		return nil, nil, ErrBadScanLimit
	}
	s.engine.Flush()
	if s.exec.idx == nil {
		if err := s.buildIndex(); err != nil {
			return nil, nil, err
		}
	}
	var entries []ScanEntry
	var cursor []byte
	var scanErr error
	pageBytes := 0
	err := s.exec.idx.Visit(start, func(key []byte) bool {
		// The index hands out a scratch-buffer view; the entry (and the
		// cursor) need stable copies.
		if len(entries) == limit {
			cursor = append([]byte(nil), key...)
			return false
		}
		value, ok := s.table.Get(key)
		if !ok {
			// Unreachable while the index is coherent; skipping (rather
			// than fabricating an entry) keeps a scan honest if a fault
			// ever corrupts one structure but not the other.
			return true
		}
		e := ScanEntry{Key: append([]byte(nil), key...), Value: value}
		if maxBytes > 0 && pageBytes+e.EncodedSize() > maxBytes {
			if len(entries) == 0 {
				scanErr = ErrScanEntryTooLarge
				return false
			}
			cursor = e.Key
			return false
		}
		pageBytes += e.EncodedSize()
		entries = append(entries, e)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if scanErr != nil {
		return nil, nil, scanErr
	}
	return entries, cursor, nil
}

// buildIndex builds the ordered index from the hash table: one table walk
// copies every key out (a read per bucket, and one per pair held in a
// slab), the copies are sorted, and they go into a new index in ascending
// order, so every insert after the first appends at the finger at no
// index read. A build that cannot place a node frees every node it placed
// and answers ErrFull, leaving the store unindexed as it was.
func (s *Store) buildIndex() error {
	idx, err := ordered.New(s.disp, s.alloc, s.cfg.Seed)
	if err != nil {
		return ErrFull // the head node found no slab
	}
	var keys [][]byte
	s.table.Scan(func(key, _ []byte) bool {
		keys = append(keys, bytes.Clone(key))
		return true
	})
	slices.SortFunc(keys, bytes.Compare)
	for _, key := range keys {
		if _, err := idx.Insert(key); err != nil {
			if rerr := idx.Release(); rerr != nil {
				return rerr
			}
			if errors.Is(err, ordered.ErrCorrupt) {
				return err
			}
			return ErrFull
		}
	}
	s.exec.idx = idx
	return nil
}
