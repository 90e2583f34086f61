// Package hashtable implements the KV-Direct hash index (paper §3.3.1,
// Figure 5): a fixed array of 64-byte hash buckets, each holding 10
// five-byte hash slots (31-bit pointer + 9-bit secondary hash), 3 bits of
// slab type per slot, bitmaps marking inline KV pairs, and a pointer to
// the next chained bucket on collision.
//
// Small KVs are stored inline in the hash index, spanning one or more hash
// slots, to save the extra memory access for fetching KV data. Larger KVs
// live in dynamically allocated slab memory, addressed by a slot pointer
// at 32-byte granularity; the slot's slab-type bits tell the KV processor
// how many bytes to fetch in a single DMA. Values too large for one slab
// chain across 512-byte slabs.
//
// Chaining resolves hash collisions (chosen over cuckoo/hopscotch to
// balance GET and PUT cost and stay robust to hash clustering); chained
// buckets are allocated from the slab region.
//
// All table state lives in a memory.Engine, so every DMA the hardware
// would issue is counted by the underlying simulated memory — the
// measurements behind Figures 6, 9, 10 and 11.
package hashtable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"kvdirect/internal/memory"
	"kvdirect/internal/slab"
)

// Bucket geometry (Figure 5).
const (
	BucketBytes    = 64
	SlotsPerBucket = 10
	SlotBytes      = 5

	slotArea = SlotsPerBucket * SlotBytes // bytes 0..49: slot storage
	offTypes = 50                         // u32: 3 type bits per slot (30 bits)
	offStart = 54                         // u16: inline-entry start bitmap
	offOcc   = 56                         // u16: slot occupancy bitmap
	offChain = 58                         // u32: chained-bucket granule + 1

	// MaxInlineData is the most bytes one bucket can hold inline
	// (2-byte header + key + value across all 10 slots).
	MaxInlineData = slotArea

	ptrBits     = 31 // slot pointer width (32 B granules)
	sechashBits = 9  // secondary hash width (1/512 false positives)
	sechashMask = (1 << sechashBits) - 1

	ptrGranule = 32 // slot pointers address 32 B granules

	// Non-inline KV data layout: [klen u16][vlen u16][key][value...].
	dataHeader = 4
	// Chained value slabs reserve a trailing next-pointer.
	chainPtrBytes = 4
	chunkPayload  = slab.MaxSlab - chainPtrBytes // 508 B per chained slab
)

// Limits.
const (
	MaxKeyLen   = 255
	MaxValueLen = 64 << 10 // header stores vlen as u16; capped below 65536
)

// Errors returned by table operations.
var (
	ErrFull          = errors.New("hashtable: table full")
	ErrKeyTooLarge   = errors.New("hashtable: key exceeds 255 bytes")
	ErrValueTooLarge = errors.New("hashtable: value exceeds 64 KiB - 1")
	ErrEmptyKey      = errors.New("hashtable: empty key")
)

// Config parameterizes a Table.
type Config struct {
	// Index is the hash-index partition (a whole number of 64 B buckets).
	Index memory.Partition
	// InlineThreshold is the maximum key+value size stored inline in the
	// hash index. 0 disables inlining entirely ("offline" in Figure 9).
	// Values above MaxInlineData-2 are clamped.
	InlineThreshold int
	// Seed perturbs the hash function (deterministic experiments use
	// distinct seeds per trial).
	Seed uint64
}

// Table is the KV-Direct hash index over a memory engine plus slab
// allocator. It is not safe for concurrent use: the KV processor's
// out-of-order engine guarantees no two operations on the same key are in
// the pipeline simultaneously, and the pipeline itself serializes
// memory-engine access.
type Table struct {
	eng   memory.Engine
	alloc *slab.Allocator
	cfg   Config
	slabs memory.Partition // alloc's region: where every chain bucket and KV chunk lives

	numBuckets uint64

	// Occupancy metrics.
	numKeys      uint64
	payloadBytes uint64 // sum of key+value sizes currently stored
	chainBuckets uint64 // chained buckets currently allocated

	// corruptChains counts chain walks cut short by a corrupted pointer
	// (e.g. an undetected memory fault): a bucket chain past the hop
	// bound, which would otherwise loop forever, or a chain or slab
	// pointer outside the slab region, which would load out of range.
	corruptChains uint64

	// Working memory of the operation in progress, reused so the data path
	// stays off the allocator (the table is single-threaded). Views into
	// it — lookup's entryRef.value — are valid until the next operation.
	bs    []bkt              // bucket chain loaded by walk
	data  []byte             // KV payload being read or built
	addrs []uint64           // chunk addresses of a chained value being written
	chunk [slab.MaxSlab]byte // one chained chunk being written, or a tail pointer being read
}

// New creates a table. The index partition must hold at least one bucket.
func New(eng memory.Engine, alloc *slab.Allocator, cfg Config) (*Table, error) {
	if cfg.Index.Size/BucketBytes == 0 {
		return nil, fmt.Errorf("hashtable: index partition too small (%d B)", cfg.Index.Size)
	}
	if cfg.InlineThreshold > MaxInlineData-2 {
		cfg.InlineThreshold = MaxInlineData - 2
	}
	return &Table{
		eng:        eng,
		alloc:      alloc,
		cfg:        cfg,
		slabs:      alloc.Region(),
		numBuckets: cfg.Index.Size / BucketBytes,
	}, nil
}

// NumKeys returns the number of stored KV pairs.
func (t *Table) NumKeys() uint64 { return t.numKeys }

// PayloadBytes returns the total key+value bytes currently stored.
func (t *Table) PayloadBytes() uint64 { return t.payloadBytes }

// ChainBuckets returns the number of chained overflow buckets in use.
func (t *Table) ChainBuckets() uint64 { return t.chainBuckets }

// CorruptChains returns how many chain walks were cut short by a
// corrupted pointer: the hop bound, or a pointer outside the slab region.
func (t *Table) CorruptChains() uint64 { return t.corruptChains }

// NumBuckets returns the number of primary hash buckets.
func (t *Table) NumBuckets() uint64 { return t.numBuckets }

// Utilization returns payload bytes over the given total memory size —
// the paper's memory-utilization metric.
func (t *Table) Utilization(totalBytes uint64) float64 {
	if totalBytes == 0 {
		return 0
	}
	return float64(t.payloadBytes) / float64(totalBytes)
}

// --- hashing ---

func (t *Table) hash(key []byte) uint64 {
	// FNV-1a 64 with seed folding, then a finalizing mix.
	h := uint64(14695981039346656037) ^ t.cfg.Seed
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

func (t *Table) bucketIndex(h uint64) uint64 { return h % t.numBuckets }

func sechash(h uint64) uint16 { return uint16((h >> 48) & sechashMask) }

// --- bucket view ---

// bkt is one bucket loaded into the KV processor, plus dirtiness tracking
// so each mutated bucket costs exactly one DMA write per operation.
type bkt struct {
	addr  uint64
	raw   [BucketBytes]byte
	dirty bool
}

// load reads the bucket at addr into b.
func (t *Table) load(b *bkt, addr uint64) {
	b.addr, b.dirty = addr, false
	t.eng.Read(addr, b.raw[:])
}

// flush writes the loaded chain's mutated buckets back, in chain order.
func (t *Table) flush() {
	for i := range t.bs {
		t.writeBack(&t.bs[i])
	}
}

func (t *Table) writeBack(b *bkt) {
	if b.dirty {
		t.eng.Write(b.addr, b.raw[:])
		b.dirty = false
	}
}

func (b *bkt) occ() uint16     { return binary.LittleEndian.Uint16(b.raw[offOcc:]) }
func (b *bkt) starts() uint16  { return binary.LittleEndian.Uint16(b.raw[offStart:]) }
func (b *bkt) setOcc(v uint16) { binary.LittleEndian.PutUint16(b.raw[offOcc:], v) }
func (b *bkt) setStarts(v uint16) {
	binary.LittleEndian.PutUint16(b.raw[offStart:], v)
}

func (b *bkt) occupied(i int) bool { return b.occ()&(1<<i) != 0 }
func (b *bkt) isStart(i int) bool  { return b.starts()&(1<<i) != 0 }

func (b *bkt) setOccupied(i int, v bool) {
	o := b.occ()
	if v {
		o |= 1 << i
	} else {
		o &^= 1 << i
	}
	b.setOcc(o)
}

func (b *bkt) setStart(i int, v bool) {
	s := b.starts()
	if v {
		s |= 1 << i
	} else {
		s &^= 1 << i
	}
	b.setStarts(s)
}

func (b *bkt) typ(i int) uint8 {
	v := binary.LittleEndian.Uint32(b.raw[offTypes:])
	return uint8(v >> (3 * i) & 0x7)
}

func (b *bkt) setTyp(i int, c uint8) {
	v := binary.LittleEndian.Uint32(b.raw[offTypes:])
	v &^= 0x7 << (3 * i)
	v |= uint32(c&0x7) << (3 * i)
	binary.LittleEndian.PutUint32(b.raw[offTypes:], v)
}

func (b *bkt) chain() uint32 { return binary.LittleEndian.Uint32(b.raw[offChain:]) }
func (b *bkt) setChain(v uint32) {
	binary.LittleEndian.PutUint32(b.raw[offChain:], v)
}

// slotPtr decodes slot i's (granule pointer, secondary hash).
func (b *bkt) slotPtr(i int) (ptr uint64, sh uint16) {
	var v uint64
	for j := 0; j < SlotBytes; j++ {
		v |= uint64(b.raw[i*SlotBytes+j]) << (8 * j)
	}
	return v & ((1 << ptrBits) - 1), uint16(v >> ptrBits & sechashMask)
}

func (b *bkt) setSlotPtr(i int, ptr uint64, sh uint16) {
	v := ptr&((1<<ptrBits)-1) | uint64(sh&sechashMask)<<ptrBits
	for j := 0; j < SlotBytes; j++ {
		b.raw[i*SlotBytes+j] = byte(v >> (8 * j))
	}
}

// inlineSlots returns how many slots an inline entry of k+v payload needs.
func inlineSlots(kv int) int { return (2 + kv + SlotBytes - 1) / SlotBytes }

// entryRef locates a stored entry in the loaded chain.
type entryRef struct {
	bi     int // index of its bucket in Table.bs
	slot   int
	inline bool
	nslots int // inline: slots spanned
	klen   int
	vlen   int
	ptr    uint64 // non-inline: data address
	class  uint8  // non-inline: slab class of the first chunk
	value  []byte // view of the stored value, valid until the next operation
}

// span returns how many slots the entry starting at slot i covers and
// whether it is inline; 0 means slot i is free. Stepping by the span
// visits each entry once and skips inline continuation slots.
func (b *bkt) span(i int) (n int, inline bool) {
	if !b.occupied(i) {
		return 0, false
	}
	if !b.isStart(i) {
		return 1, false
	}
	return inlineSlots(int(b.raw[i*SlotBytes]) + int(b.raw[i*SlotBytes+1])), true
}

// inlineEntry decodes the inline entry starting at slot i.
func (b *bkt) inlineEntry(i int) (key, value []byte, nslots int) {
	klen := int(b.raw[i*SlotBytes])
	vlen := int(b.raw[i*SlotBytes+1])
	base := i*SlotBytes + 2
	return b.raw[base : base+klen], b.raw[base+klen : base+klen+vlen], inlineSlots(klen + vlen)
}

// --- chain walking ---

// chainAddr converts a chain field to a bucket address (0 = none).
func chainAddr(c uint32) (uint64, bool) {
	if c == 0 {
		return 0, false
	}
	return uint64(c-1) * BucketBytes, true
}

func chainField(addr uint64) uint32 { return uint32(addr/BucketBytes) + 1 }

// maxChainHops bounds a chain walk. No healthy chain approaches this (it
// would need thousands of hash collisions on one bucket); a chain field
// corrupted into a cycle would otherwise walk forever.
const maxChainHops = 4096

// inSlab reports whether [addr, addr+n) lies inside the slab region,
// where every chained bucket and every KV data chunk is allocated. A
// pointer that leads anywhere else is corrupt.
func (t *Table) inSlab(addr uint64, n int) bool {
	return addr >= t.slabs.Base && addr <= t.slabs.End() && uint64(n) <= t.slabs.End()-addr
}

// next returns the address of the bucket chained after b, if any. A chain
// field pointing outside the slab region is corrupt: the event is
// counted and the chain ends at b.
func (t *Table) next(b *bkt) (uint64, bool) {
	addr, ok := chainAddr(b.chain())
	if ok && !t.inSlab(addr, BucketBytes) {
		t.corruptChains++
		return 0, false
	}
	return addr, ok
}

// chunkAt returns the address of the chained value chunk a next pointer
// names (0 = none); one outside the slab region is counted as corrupt
// and ends the chunk chain like 0.
func (t *Table) chunkAt(next uint32) (uint64, bool) {
	if next == 0 {
		return 0, false
	}
	addr := uint64(next-1) * ptrGranule
	if !t.inSlab(addr, slab.MaxSlab) {
		t.corruptChains++
		return 0, false
	}
	return addr, true
}

// walk loads the bucket chain for hash h into t.bs. A damaged pointer
// degrades to a miss instead of a hang or an out-of-range load: a chain
// longer than maxChainHops, or one whose next pointer leaves the slab
// region, is treated as corrupt — the walk stops there and the event is
// counted.
func (t *Table) walk(h uint64) {
	t.bs = t.bs[:0]
	addr := t.cfg.Index.Base + t.bucketIndex(h)*BucketBytes
	for {
		t.bs = append(t.bs, bkt{})
		tail := &t.bs[len(t.bs)-1]
		t.load(tail, addr)
		next, ok := t.next(tail)
		if !ok {
			return
		}
		if len(t.bs) >= maxChainHops {
			t.corruptChains++
			return
		}
		addr = next
	}
}

// lookup loads key's bucket chain and searches it, reading slab data to
// verify candidates whose secondary hash matches (the key is always
// checked to ensure correctness, at the cost of one additional memory
// access on the 1/512 false positives).
func (t *Table) lookup(h uint64, key []byte) (entryRef, bool) {
	t.walk(h)
	sh := sechash(h)
	for bi := range t.bs {
		b := &t.bs[bi]
		for i := 0; i < SlotsPerBucket; {
			n, inline := b.span(i)
			if n == 0 {
				i++
				continue
			}
			if inline {
				if k, v, _ := b.inlineEntry(i); bytes.Equal(k, key) {
					return entryRef{bi: bi, slot: i, inline: true, nslots: n,
						klen: len(k), vlen: len(v), value: v}, true
				}
			} else if ptr, slotSH := b.slotPtr(i); slotSH == sh {
				addr, class := ptr*ptrGranule, b.typ(i)
				// A key mismatch here is a secondary-hash false positive.
				if k, v, ok := t.readData(addr, class, &t.data); ok && bytes.Equal(k, key) {
					return entryRef{bi: bi, slot: i, klen: len(k), vlen: len(v),
						ptr: addr, class: class, value: v}, true
				}
			}
			i += n
		}
	}
	return entryRef{}, false
}

// --- slab data encoding ---

// dataFootprint returns the slab chunks needed for a k+v payload: the
// class of the first chunk and the number of 512 B continuation chunks.
func dataFootprint(klen, vlen int) (class uint8, chunks int) {
	total := dataHeader + klen + vlen
	if total <= slab.MaxSlab {
		c, _ := slab.ClassFor(total)
		return uint8(c), 1
	}
	// Chained: every chunk is a 512 B slab with a trailing next pointer
	// (the last chunk's pointer is zero).
	n := (total + chunkPayload - 1) / chunkPayload
	return uint8(slab.NumClasses - 1), n
}

// buildData assembles [klen][vlen][key][value] in t.data.
func (t *Table) buildData(key, value []byte) []byte {
	t.data = append(t.data[:0], byte(len(key)), byte(len(key)>>8), byte(len(value)), byte(len(value)>>8))
	t.data = append(t.data, key...)
	t.data = append(t.data, value...)
	return t.data
}

// writeChunk writes one chained 512 B slab at addr: the next payload
// bytes, zero padding, and the trailing pointer already in t.chunk.
// It returns the payload bytes left.
func (t *Table) writeChunk(addr uint64, payload []byte) []byte {
	n := copy(t.chunk[:chunkPayload], payload)
	clear(t.chunk[n:chunkPayload])
	t.eng.Write(addr, t.chunk[:])
	return payload[n:]
}

// writeData allocates and writes [klen][vlen][key][value], returning the
// address of the first chunk. On allocation failure it frees partial
// chunks and reports ErrFull.
func (t *Table) writeData(key, value []byte) (uint64, uint8, error) {
	class, chunks := dataFootprint(len(key), len(value))
	payload := t.buildData(key, value)

	if chunks == 1 {
		addr, err := t.alloc.Alloc(len(payload))
		if err != nil {
			return 0, 0, ErrFull
		}
		t.eng.Write(addr, payload)
		return addr, class, nil
	}

	t.addrs = t.addrs[:0]
	for i := 0; i < chunks; i++ {
		a, err := t.alloc.Alloc(slab.MaxSlab)
		if err != nil {
			for _, done := range t.addrs {
				t.alloc.Free(done, slab.MaxSlab)
			}
			return 0, 0, ErrFull
		}
		t.addrs = append(t.addrs, a)
	}
	for i, a := range t.addrs {
		next := uint32(0)
		if i+1 < chunks {
			next = uint32(t.addrs[i+1]/ptrGranule) + 1
		}
		binary.LittleEndian.PutUint32(t.chunk[chunkPayload:], next)
		payload = t.writeChunk(a, payload)
	}
	return t.addrs[0], class, nil
}

// readData reads the KV data starting at addr with the given first-chunk
// class into *buf (grown as needed), following the chunk chain for large
// values. One DMA per chunk. The returned key and value are views of *buf.
// Data that is not all inside the slab region is counted as corrupt and
// unreadable.
func (t *Table) readData(addr uint64, class uint8, buf *[]byte) (key, value []byte, ok bool) {
	if int(class) >= slab.NumClasses {
		return nil, nil, false
	}
	size := slab.Sizes[class]
	if !t.inSlab(addr, size) {
		t.corruptChains++
		return nil, nil, false
	}
	b := grow(buf, size)
	t.eng.Read(addr, b[:size])
	klen := int(binary.LittleEndian.Uint16(b[0:]))
	vlen := int(binary.LittleEndian.Uint16(b[2:]))
	total := dataHeader + klen + vlen
	if total > size {
		if size != slab.MaxSlab {
			return nil, nil, false // corrupt: chained data must use 512 B chunks
		}
		// Each further chunk lands on the previous one's trailing pointer,
		// so the payload ends up contiguous.
		got := chunkPayload
		next, more := t.chunkAt(binary.LittleEndian.Uint32(b[got:]))
		for got < total && more {
			b = grow(buf, got+slab.MaxSlab)
			t.eng.Read(next, b[got:got+slab.MaxSlab])
			got += chunkPayload
			next, more = t.chunkAt(binary.LittleEndian.Uint32(b[got:]))
		}
		if got < total {
			return nil, nil, false
		}
	}
	return b[dataHeader : dataHeader+klen], b[dataHeader+klen : total], true
}

// grow returns *buf with length at least n, reallocating (and keeping the
// contents) only when its capacity is short.
func grow(buf *[]byte, n int) []byte {
	if n > cap(*buf) {
		*buf = append((*buf)[:cap(*buf)], make([]byte, n-cap(*buf))...)
	}
	*buf = (*buf)[:cap(*buf)]
	return *buf
}

// freeData releases the chunk chain starting at addr.
func (t *Table) freeData(addr uint64, class uint8, klen, vlen int) {
	_, chunks := dataFootprint(klen, vlen)
	if chunks == 1 {
		t.alloc.Free(addr, dataHeader+klen+vlen)
		return
	}
	for i := 0; i < chunks; i++ {
		var next uint32
		if i+1 < chunks {
			tail := t.chunk[:chainPtrBytes]
			t.eng.Read(addr+chunkPayload, tail)
			next = binary.LittleEndian.Uint32(tail)
		}
		t.alloc.Free(addr, slab.MaxSlab)
		var more bool
		if addr, more = t.chunkAt(next); !more {
			break
		}
	}
}

// --- public operations ---

func validate(key, value []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKeyLen {
		return ErrKeyTooLarge
	}
	if len(value) >= MaxValueLen {
		return ErrValueTooLarge
	}
	return nil
}

// Get returns a copy of the value for key.
//
//kvd:hotpath
func (t *Table) Get(key []byte) ([]byte, bool) {
	if validate(key, nil) != nil {
		return nil, false
	}
	ref, ok := t.lookup(t.hash(key), key) //lint:allow hotalloc -- scratch grows to the longest chain and largest value seen, then is reused
	if !ok {
		return nil, false
	}
	return append([]byte(nil), ref.value...), true //lint:allow hotalloc -- the caller owns the returned value: a GET's one allocation
}

// inlineOK reports whether a k+v payload should be stored inline.
func (t *Table) inlineOK(kv int) bool {
	return kv <= t.cfg.InlineThreshold && 2+kv <= MaxInlineData
}

// Put inserts or replaces key's value, reporting whether it created the
// key (false: an existing value was overwritten).
//
//kvd:hotpath
func (t *Table) Put(key, value []byte) (created bool, err error) {
	if err := validate(key, value); err != nil {
		return false, err
	}
	h := t.hash(key)
	ref, exists := t.lookup(h, key) //lint:allow hotalloc -- scratch grows to the longest chain and largest value seen, then is reused
	//lint:allow hotalloc -- in-place overwrites allocate nothing; a create or a footprint change may grow scratch or extend the chain
	if err := t.write(ref, exists, key, value, sechash(h)); err != nil {
		return false, err
	}
	return !exists, nil
}

// Edit is a Modify callback's decision about the key it was shown.
type Edit uint8

// Modify outcomes.
const (
	Keep   Edit = iota // leave the key as it is
	Store              // store the returned value, creating the key if absent
	Remove             // delete the key (nothing to do if absent)
)

// Modify reads, checks and writes key in one chain walk: the KV
// processor's read-modify-write as one lookup and one write-back
// (§3.3.3). fn sees the stored value (nil and false when absent) as a
// view valid only during the call, and decides what becomes of the key.
// A value it stores must not alias the old one: the write reuses the
// scratch and the bucket that view points into. A key Get could never
// find reads as absent, and storing under it fails validation as Put
// does. created and deleted report a change to the key set.
//
//kvd:hotpath
func (t *Table) Modify(key []byte, fn func(old []byte, found bool) ([]byte, Edit)) (created, deleted bool, err error) {
	h := t.hash(key)
	var ref entryRef
	exists := false
	if validate(key, nil) == nil {
		ref, exists = t.lookup(h, key) //lint:allow hotalloc -- scratch grows to the longest chain and largest value seen, then is reused
	}
	value, edit := fn(ref.value, exists)
	switch {
	case edit == Store:
		if err := validate(key, value); err != nil {
			return false, false, err
		}
		//lint:allow hotalloc -- in-place overwrites allocate nothing; a create or a footprint change may grow scratch or extend the chain
		if err := t.write(ref, exists, key, value, sechash(h)); err != nil {
			return false, false, err
		}
		return !exists, false, nil
	case edit == Remove && exists:
		t.erase(ref)
		return false, true, nil
	}
	return false, false, nil
}

// write stores value under key once lookup has found ref (exists) or
// nothing: the update or insert, the key and payload bookkeeping, and
// the flush of the chain's dirty buckets. On failure the table is as
// lookup left it (an overwritten entry stays intact).
func (t *Table) write(ref entryRef, exists bool, key, value []byte, sh uint16) error {
	if exists {
		if err := t.update(ref, key, value, sh); err != nil {
			return err
		}
		t.payloadBytes -= uint64(ref.klen + ref.vlen)
	} else {
		if err := t.insert(key, value, sh); err != nil {
			return err
		}
		t.numKeys++
	}
	t.payloadBytes += uint64(len(key) + len(value))
	t.flush()
	return nil
}

// update overwrites an existing entry, in place when the footprint allows.
// On a footprint change the new entry is inserted before the old one is
// removed, so a failed insert (table full) leaves the old value intact.
func (t *Table) update(ref entryRef, key, value []byte, sh uint16) error {
	kv := len(key) + len(value)
	if ref.inline && t.inlineOK(kv) && inlineSlots(kv) == ref.nslots {
		writeInline(&t.bs[ref.bi], ref.slot, key, value)
		return nil
	}
	if !ref.inline && !t.inlineOK(kv) {
		oldClass, oldChunks := dataFootprint(ref.klen, ref.vlen)
		newClass, newChunks := dataFootprint(len(key), len(value))
		if oldClass == newClass && oldChunks == newChunks {
			// Same footprint: rewrite the data chunks in place, bucket
			// untouched (pointer, class and secondary hash unchanged).
			t.rewriteData(ref.ptr, key, value)
			return nil
		}
	}
	// Footprint change: place the new entry first, then remove the old.
	if err := t.insert(key, value, sh); err != nil {
		return err
	}
	t.remove(ref)
	return nil
}

// remove clears ref's slots in its loaded bucket and frees its slab data.
func (t *Table) remove(ref entryRef) {
	b := &t.bs[ref.bi]
	if ref.inline {
		clearInline(b, ref.slot, ref.nslots)
	} else {
		t.freeData(ref.ptr, ref.class, ref.klen, ref.vlen)
		b.setOccupied(ref.slot, false)
		b.setTyp(ref.slot, 0)
	}
	b.dirty = true
}

// rewriteData overwrites an existing same-footprint chunk chain.
func (t *Table) rewriteData(addr uint64, key, value []byte) {
	payload := t.buildData(key, value)
	if len(payload) <= slab.MaxSlab {
		t.eng.Write(addr, payload)
		return
	}
	for {
		// The chunk keeps its next pointer: read it straight into place.
		t.eng.Read(addr+chunkPayload, t.chunk[chunkPayload:])
		next := binary.LittleEndian.Uint32(t.chunk[chunkPayload:])
		payload = t.writeChunk(addr, payload)
		if len(payload) == 0 {
			return
		}
		var more bool
		if addr, more = t.chunkAt(next); !more {
			return
		}
	}
}

// insert places a new entry somewhere in the loaded chain, extending it
// with a freshly allocated bucket if necessary. A new bucket is written
// at once; the rest of the chain is flushed by the caller.
func (t *Table) insert(key, value []byte, sh uint16) error {
	kv := len(key) + len(value)
	if t.inlineOK(kv) {
		need := inlineSlots(kv)
		for i := range t.bs {
			if slot, ok := findRun(&t.bs[i], need); ok {
				writeInline(&t.bs[i], slot, key, value)
				return nil
			}
		}
		nb, err := t.extendChain()
		if err != nil {
			return err
		}
		writeInline(nb, 0, key, value)
		t.writeBack(nb)
		return nil
	}

	addr, class, err := t.writeData(key, value)
	if err != nil {
		return err
	}
	for i := range t.bs {
		if slot, ok := findRun(&t.bs[i], 1); ok {
			placePtr(&t.bs[i], slot, addr, sh, class)
			return nil
		}
	}
	nb, err := t.extendChain()
	if err != nil {
		t.freeData(addr, class, len(key), len(value))
		return err
	}
	placePtr(nb, 0, addr, sh, class)
	t.writeBack(nb)
	return nil
}

// placePtr points slot i at the slab data at addr.
func placePtr(b *bkt, i int, addr uint64, sh uint16, class uint8) {
	b.setSlotPtr(i, addr/ptrGranule, sh)
	b.setOccupied(i, true)
	b.setStart(i, false)
	b.setTyp(i, class)
	b.dirty = true
}

// extendChain allocates a new chained bucket, links it from the chain
// tail, appends it to the loaded chain and returns it. The caller writes
// the new bucket; the tail link is flushed with the rest of the chain.
func (t *Table) extendChain() (*bkt, error) {
	addr, err := t.alloc.Alloc(BucketBytes)
	if err != nil {
		return nil, ErrFull
	}
	tail := &t.bs[len(t.bs)-1]
	tail.setChain(chainField(addr))
	tail.dirty = true
	t.chainBuckets++
	t.bs = append(t.bs, bkt{addr: addr})
	return &t.bs[len(t.bs)-1], nil
}

// findRun returns the first index of `need` consecutive free slots.
func findRun(b *bkt, need int) (int, bool) {
	occ := b.occ()
	run := 0
	for i := 0; i < SlotsPerBucket; i++ {
		if occ&(1<<i) == 0 {
			run++
			if run == need {
				return i - need + 1, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// writeInline stores an inline entry at slot i (caller guarantees room).
func writeInline(b *bkt, i int, key, value []byte) {
	base := i * SlotBytes
	b.raw[base] = byte(len(key))
	b.raw[base+1] = byte(len(value))
	copy(b.raw[base+2:], key)
	copy(b.raw[base+2+len(key):], value)
	n := inlineSlots(len(key) + len(value))
	for j := 0; j < n; j++ {
		b.setOccupied(i+j, true)
		b.setStart(i+j, false)
		b.setTyp(i+j, 0)
	}
	b.setStart(i, true)
	b.dirty = true
}

// clearInline removes the inline entry spanning [i, i+n).
func clearInline(b *bkt, i, n int) {
	for j := 0; j < n; j++ {
		b.setOccupied(i+j, false)
		b.setStart(i+j, false)
	}
}

// Delete removes key, returning whether it was present.
//
//kvd:hotpath
func (t *Table) Delete(key []byte) bool {
	if validate(key, nil) != nil {
		return false
	}
	ref, ok := t.lookup(t.hash(key), key) //lint:allow hotalloc -- scratch grows to the longest chain and largest value seen, then is reused
	if ok {
		t.erase(ref)
	}
	return ok
}

// erase deletes the entry lookup found and flushes its bucket.
func (t *Table) erase(ref entryRef) {
	t.remove(ref)
	t.flush()
	t.numKeys--
	t.payloadBytes -= uint64(ref.klen + ref.vlen)
}
