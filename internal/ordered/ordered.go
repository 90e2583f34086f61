// Package ordered implements the ordered secondary index that gives the
// KV-Direct reproduction real range scans (YCSB-E): a deterministic skip
// list keyed on user keys, layered beside the hash index over the same
// slab storage.
//
// KV-Direct's hash index (paper §3) cannot serve ordered ranges; "Employ
// SmartNICs' DPAs for Ordered Key-Value Stores" shows NIC-offloaded KV
// extends naturally to ordered structures. The index lives entirely in
// the simulated NIC-accessible memory: every node is a slab allocation
// and every node touch goes through the counted memory.Engine, so index
// maintenance and scan traversal are charged to the performance model
// exactly like hash-table DMAs (the unaccountedaccess and walltime
// analyzers audit this package like any other model package).
//
// The index stores keys only — values stay in the hash table's slabs, so
// a scan pays one index walk plus one hash lookup per returned entry,
// mirroring a secondary index on real hardware.
//
// Node layout in slab memory (little-endian):
//
//	node := level u8 | klen u8 | pad u16 | next[level] link | key [klen]
//	link := addr u48 | klen u8 | level u8
//
// A link — one forward pointer of a tower — carries the target's level
// and key length beside its slab address, so a walk knows a node's size
// before reading it and fetches each node it compares whole, with one
// DMA. Every step is checked: a link must stay inside the slab region,
// the fetched header must match the link, and a step must land on a
// strictly larger key than the node it leaves. A walk that breaks a rule
// stops, the event is counted (Stats.Corrupt), and the op reports
// ErrCorrupt rather than looping on a damaged pointer.
//
// A seek resumes from the last one when it can. The Index keeps the
// last seek's walk — each level's predecessor and successor — with a
// copy of every successor's key and of the key sought: NIC-side state,
// like the reservation station. A seek for a larger key keeps every
// level whose successor is still >= the key and walks on from the
// highest successor that is not, so a sorted run of creates pays for
// the upper levels once rather than per create.
//
// The tower height is drawn from a seeded splitmix64 stream (p = 1/4 per
// extra level, capped at MaxLevel), keeping the structure deterministic
// for a given seed and operation sequence — the same determinism contract
// the rest of the model obeys.
package ordered

import (
	"bytes"
	"errors"
	"fmt"

	"kvdirect/internal/memory"
	"kvdirect/internal/slab"
)

const (
	// MaxLevel caps the skip-list tower height. With p = 1/4 this keeps
	// expected search cost logarithmic up to ~4^12 ≈ 16M keys, and the
	// biggest node (full tower + 255-byte key) still fits a 512 B slab.
	MaxLevel = 12

	// MaxKeyLen mirrors the hash table's key limit.
	MaxKeyLen = 255

	headerBytes  = 4 // level u8 | klen u8 | pad u16
	ptrBytes     = 8
	maxNodeBytes = headerBytes + MaxLevel*ptrBytes + MaxKeyLen

	// addrBits is the width of a link's slab address; the key length
	// and the level sit in the two bytes above it.
	addrBits = 48
	addrMask = 1<<addrBits - 1

	// nilPtr marks the end of a level's chain. Zero is not usable as the
	// sentinel: with a zero-sized hash-index partition, address 0 is a
	// valid slab. No link collides with it: its level byte would be 255,
	// and a level is at most MaxLevel.
	nilPtr = ^uint64(0)
)

var (
	// ErrKeyTooLong rejects keys over MaxKeyLen bytes.
	ErrKeyTooLong = errors.New("ordered: key exceeds 255 bytes")

	// ErrCorrupt reports a walk cut short by a damaged link or node.
	ErrCorrupt = errors.New("ordered: corrupt index link")
)

// Stats counts index activity.
type Stats struct {
	Keys      uint64 // live indexed keys (= skip-list nodes, head excluded)
	NodeBytes uint64 // slab bytes held by live nodes
	Inserts   uint64 // keys added
	Deletes   uint64 // keys removed
	Seeks     uint64 // ordered lookups (scans + insert/delete searches)
	Visited   uint64 // nodes stepped through during scans
	Corrupt   uint64 // walks cut short by a corrupt link or node
}

// Index is one store's ordered secondary index. Like the rest of the KV
// processor it is not safe for concurrent use; the owning Store's
// pipeline serializes access.
type Index struct {
	mem   memory.Engine
	alloc *slab.Allocator
	slabs memory.Partition // alloc's region: every node lives inside it
	head  uint64           // link to the head tower node (level MaxLevel, empty key)
	rng   uint64           // splitmix64 state for deterministic level draws
	stats Stats

	// The walk of the op in progress. seek leaves, for every level l,
	// pred[l] (link to the last node whose key is < the sought key) and
	// succ[l] (the link pred[l] holds at level l). buf holds the last two
	// nodes fetched, held[i] naming buf[i]'s link (nilPtr: nothing). The
	// buffers keep the hot path at zero allocations; Visit callbacks see
	// views into them, which pins the no-reentrancy contract — callbacks
	// must not call back into the same Index.
	pred, succ [MaxLevel]uint64
	buf        [2][maxNodeBytes]byte
	held       [2]uint64
	ptr        [ptrBytes]byte

	// The finger. While finger is set, pred and succ are the walk of the
	// last seek, for fkey (after an Insert, pred names the new node at
	// its levels), and skey[l] copies succ[l]'s key wherever succ[l] is
	// not nilPtr. Delete, a failed node allocation and a corrupt walk
	// drop it, and the next seek goes from the head.
	finger bool
	fkey   keyCopy
	skey   [MaxLevel]keyCopy
}

// keyCopy holds a key in the Index's own state, not in simulated memory.
type keyCopy struct {
	n int
	b [MaxKeyLen]byte
}

func (k *keyCopy) set(key []byte) { k.n = copy(k.b[:], key) }
func (k *keyCopy) bytes() []byte  { return k.b[:k.n] }

// New builds an empty index over the given counted memory engine and
// slab allocator (shared with the hash table, so index nodes and KV
// payloads compete for the same storage, as a real co-located secondary
// index would).
func New(mem memory.Engine, alloc *slab.Allocator, seed uint64) (*Index, error) {
	x := &Index{mem: mem, alloc: alloc, slabs: alloc.Region(), rng: seed ^ 0x6F7264657265645F,
		held: [2]uint64{nilPtr, nilPtr}}
	size := nodeSize(MaxLevel, 0)
	addr, err := alloc.Alloc(size)
	if err != nil {
		return nil, fmt.Errorf("ordered: head allocation: %w", err)
	}
	x.head = makeLink(addr, MaxLevel, 0)
	buf := x.buf[0][:size]
	buf[0] = MaxLevel
	buf[1], buf[2], buf[3] = 0, 0, 0
	for l := 0; l < MaxLevel; l++ {
		putU64(buf[headerBytes+l*ptrBytes:], nilPtr)
	}
	x.mem.Write(addr, buf)
	return x, nil
}

func nodeSize(level, klen int) int { return headerBytes + level*ptrBytes + klen }

func makeLink(addr uint64, level, klen int) uint64 {
	return addr | uint64(klen)<<addrBits | uint64(level)<<(addrBits+8)
}

func linkAddr(link uint64) uint64 { return link & addrMask }

func linkShape(link uint64) (level, klen int) {
	return int(link >> (addrBits + 8)), int(link >> addrBits & 0xFF)
}

// nextLink and nodeKey read a fetched node's tower and key.
func nextLink(node []byte, l int) uint64 { return getU64(node[headerBytes+l*ptrBytes:]) }
func nodeKey(node []byte) []byte         { return node[nodeSize(int(node[0]), 0):] }

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func getU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// fetch reads the node link names, whole, into buf[i] (one DMA). A link
// whose level is out of range or whose node would leave the slab region,
// or a node whose header disagrees with its link, is corrupt: the walk
// is counted as cut short and fetch reports false.
func (x *Index) fetch(link uint64, i int) ([]byte, bool) {
	level, klen := linkShape(link)
	if level < 1 || level > MaxLevel {
		return nil, x.corrupt()
	}
	addr, size := linkAddr(link), nodeSize(level, klen)
	if addr < x.slabs.Base || addr > x.slabs.End() || uint64(size) > x.slabs.End()-addr {
		return nil, x.corrupt()
	}
	node := x.buf[i][:size]
	x.mem.Read(addr, node)
	if int(node[0]) != level || int(node[1]) != klen {
		x.held[i] = nilPtr
		return nil, x.corrupt()
	}
	x.held[i] = link
	return node, true
}

// load returns the node link names from the buffer already holding it,
// or fetches it into the buffer other than keep, and says which buffer
// that is.
func (x *Index) load(link uint64, keep int) (int, []byte, bool) {
	for i, h := range x.held {
		if h == link {
			return i, x.buf[i][:nodeSize(linkShape(link))], true
		}
	}
	node, ok := x.fetch(link, 1-keep)
	return 1 - keep, node, ok
}

// corrupt counts a walk cut short, drops the finger and reports false,
// for its caller to return.
func (x *Index) corrupt() bool {
	x.stats.Corrupt++
	x.finger = false
	return false
}

// writeNext stores one forward pointer of the node at link (one DMA).
func (x *Index) writeNext(link uint64, lvl int, next uint64) {
	putU64(x.ptr[:], next)
	x.mem.Write(linkAddr(link)+headerBytes+uint64(lvl)*ptrBytes, x.ptr[:])
}

// splitmix64 advances the deterministic level-draw stream.
func (x *Index) splitmix64() uint64 {
	x.rng += 0x9E3779B97F4A7C15
	z := x.rng
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// drawLevel samples a tower height: geometric with p = 1/4, capped.
func (x *Index) drawLevel() int {
	z := x.splitmix64()
	lvl := 1
	for lvl < MaxLevel && z&3 == 0 {
		z >>= 2
		lvl++
	}
	return lvl
}

// seek descends the towers toward key, fetching each node it compares
// whole with one DMA; a predecessor's tower comes from its buffer, and a
// node found >= key at one level is not fetched again when a lower
// level meets its link. seek fills pred and succ and returns succ[0] —
// the first node with key >= key, nilPtr if none — with whether its key
// equals key. ok is false if a corrupt link cut the walk short.
//
// A seek for a key above the finger's starts from the finger instead of
// the head: the levels from the lowest one whose successor is >= key up
// are settled without a DMA, and the walk resumes from the successor of
// the level below them, which must still hold the key the finger copied.
//
//kvd:hotpath
func (x *Index) seek(key []byte) (link uint64, found, ok bool) {
	x.stats.Seeks++
	x.held = [2]uint64{nilPtr, nilPtr}
	cur, top := 0, MaxLevel
	var curNode []byte
	ge, geKey := nilPtr, []byte(nil) // the nearest node known to be >= key, and its key
	if x.finger && bytes.Compare(key, x.fkey.bytes()) > 0 {
		top = 0
		for top < MaxLevel && x.succ[top] != nilPtr && bytes.Compare(x.skey[top].bytes(), key) < 0 {
			top++
		}
		if top < MaxLevel {
			ge, geKey = x.succ[top], x.skey[top].bytes()
		}
		if top > 0 {
			if curNode, ok = x.fetch(x.succ[top-1], cur); !ok {
				return nilPtr, false, false
			}
			if !bytes.Equal(nodeKey(curNode), x.skey[top-1].bytes()) {
				return nilPtr, false, x.corrupt()
			}
		}
	} else if curNode, ok = x.fetch(x.head, cur); !ok {
		return nilPtr, false, false
	}
	for l := top - 1; l >= 0; l-- {
		next := nextLink(curNode, l)
		for next != nilPtr && next != ge {
			node, ok := x.fetch(next, 1-cur)
			if !ok {
				return nilPtr, false, false
			}
			if bytes.Compare(nodeKey(node), key) >= 0 {
				ge, geKey = next, nodeKey(node)
				break
			}
			// A step must land on a strictly larger key than the node
			// it leaves (the head sorts before every key), or a damaged
			// link could send the walk round a cycle.
			if x.held[cur] != x.head && bytes.Compare(nodeKey(node), nodeKey(curNode)) <= 0 {
				return nilPtr, false, x.corrupt()
			}
			cur, curNode = 1-cur, node
			next = nextLink(curNode, l)
		}
		// next is ge (or nilPtr). Its key is copied unless this level's
		// successor did not change: a link names one key while its node
		// is in the list, and the seek after a Delete starts from the
		// head, so it records every level before a freed node's slab
		// can be reused.
		if next != nilPtr {
			if next != x.succ[l] {
				x.skey[l].set(geKey)
			}
			geKey = x.skey[l].bytes()
		}
		x.pred[l], x.succ[l] = x.held[cur], next
	}
	x.finger = true
	x.fkey.set(key)
	return x.succ[0], x.succ[0] != nilPtr && bytes.Equal(x.skey[0].bytes(), key), true
}

// Insert adds key to the index, reporting whether it was newly inserted
// (false: already present, the index is unchanged). The key bytes are
// copied into simulated memory.
func (x *Index) Insert(key []byte) (bool, error) {
	if len(key) > MaxKeyLen {
		return false, ErrKeyTooLong
	}
	_, found, ok := x.seek(key)
	if !ok {
		return false, ErrCorrupt
	}
	if found {
		return false, nil
	}
	level := x.drawLevel()
	size := nodeSize(level, len(key))
	addr, err := x.alloc.Alloc(size)
	if err != nil {
		x.finger = false
		return false, fmt.Errorf("ordered: node allocation: %w", err)
	}
	x.held[0] = nilPtr
	buf := x.buf[0][:size]
	buf[0] = uint8(level)
	buf[1] = uint8(len(key))
	buf[2], buf[3] = 0, 0
	for l := 0; l < level; l++ {
		putU64(buf[headerBytes+l*ptrBytes:], x.succ[l])
	}
	copy(buf[nodeSize(level, 0):], key)
	x.mem.Write(addr, buf) // one DMA: the node is a single contiguous write
	link := makeLink(addr, level, len(key))
	for l := 0; l < level; l++ {
		x.writeNext(x.pred[l], l, link)
		x.pred[l] = link // the finger: the new node precedes any larger key
	}
	x.stats.Keys++
	x.stats.NodeBytes += uint64(slabSize(size))
	x.stats.Inserts++
	return true, nil
}

// slabSize rounds a node size up to its slab class (for NodeBytes).
func slabSize(n int) int {
	if c, ok := slab.ClassFor(n); ok {
		return slab.Sizes[c]
	}
	return n
}

// Delete removes key from the index, reporting whether it was present
// (false too if a corrupt link cut the search short).
func (x *Index) Delete(key []byte) bool {
	if len(key) > MaxKeyLen {
		return false
	}
	link, found, ok := x.seek(key)
	x.finger = false // the splice below may free a node the finger names
	if !ok || !found {
		return false
	}
	_, node, ok := x.load(link, 0)
	if !ok {
		return false
	}
	level, klen := linkShape(link)
	for l := 0; l < level; l++ {
		// pred[l] precedes the node at every level it occupies; splice it
		// out by forwarding the predecessor past it.
		if x.succ[l] == link {
			x.writeNext(x.pred[l], l, nextLink(node, l))
		}
	}
	size := nodeSize(level, klen)
	x.alloc.Free(linkAddr(link), size)
	x.stats.Keys--
	x.stats.NodeBytes -= uint64(slabSize(size))
	x.stats.Deletes++
	return true
}

// Contains reports whether key is indexed (false if a corrupt link cut
// the search short).
func (x *Index) Contains(key []byte) bool {
	if len(key) > MaxKeyLen {
		return false
	}
	_, found, ok := x.seek(key)
	return ok && found
}

// Len returns the number of indexed keys.
func (x *Index) Len() uint64 { return x.stats.Keys }

// Stats returns a snapshot of the counters.
func (x *Index) Stats() Stats { return x.stats }

// Visit walks keys in ascending order starting at the first key >= start,
// calling fn for each until fn returns false or the index is exhausted,
// one fetch per node. The key slice is only valid during the callback,
// and fn must not call back into the Index (the walk owns the buffers).
// A walk cut short by a corrupt link returns ErrCorrupt.
//
//kvd:hotpath
func (x *Index) Visit(start []byte, fn func(key []byte) bool) error {
	link, _, ok := x.seek(start)
	if !ok {
		return ErrCorrupt
	}
	var prev []byte
	for keep := 1; link != nilPtr; {
		i, node, ok := x.load(link, keep)
		if !ok {
			return ErrCorrupt
		}
		key := nodeKey(node)
		if prev != nil && bytes.Compare(key, prev) <= 0 {
			x.corrupt()
			return ErrCorrupt
		}
		x.stats.Visited++
		if !fn(key) {
			return nil
		}
		link, prev, keep = nextLink(node, 0), key, i
	}
	return nil
}
