// Package nicdram models the programmable NIC's on-board DRAM (paper
// §3.3.4, §4): a 4 GiB, 12.8 GB/s DDR3 channel used as a cache for the
// cache-able portion of the host-memory KVS.
//
// The cache is direct-mapped at 64-byte line granularity. Each line carries
// an address tag and a dirty flag — the metadata the hardware squeezes into
// spare ECC bits (the paper widens the parity granularity from 64 to 256
// data bits to free 6 bits per 64 B line; no valid bit is needed because
// the NIC accesses KVS storage exclusively). Here the metadata lives in
// ordinary Go slices, but the accounting is the same: no extra host-memory
// accesses are charged for metadata. The line data itself is mapped
// outside the Go heap, as host memory is (memory.MapDRAM).
//
// Host-memory traffic (fills and dirty write-backs) goes through the
// underlying memory.Memory, so PCIe DMA counts stay authoritative; DRAM
// traffic is counted locally for bandwidth modeling.
package nicdram

import (
	"fmt"
	"runtime"

	"kvdirect/internal/ecc"
	"kvdirect/internal/fault"
	"kvdirect/internal/memory"
)

// LineBytes is the cache line size (matches memory.LineBytes).
const LineBytes = memory.LineBytes

// DefaultSizeBytes and DefaultBandwidth are the paper's NIC DRAM parameters.
const (
	DefaultSizeBytes = 4 << 30 // 4 GiB
	DefaultBandwidth = 12.8e9  // bytes/s, one DDR3-1600 channel
)

// Stats counts cache activity. Hits/Misses are per request; line counters
// track DRAM bandwidth usage.
type Stats struct {
	Hits           uint64 // requests served entirely from NIC DRAM
	Misses         uint64 // requests needing at least one host-memory fill
	Fills          uint64 // lines installed from host memory
	DirtyEvictions uint64 // lines written back to host on eviction
	CleanEvictions uint64 // lines dropped without write-back
	DRAMLineReads  uint64 // 64 B lines read from NIC DRAM
	DRAMLineWrites uint64 // 64 B lines written to NIC DRAM

	// ECC events (only populated when EnableECC has armed the sideband).
	EccCorrected uint64 // single-bit DRAM faults repaired on access
	EccHealed    uint64 // uncorrectable clean lines dropped and refetched from host
	EccLost      uint64 // uncorrectable dirty lines: cached writes lost (escalated)
}

// Sub returns s - t, counter-wise; used to measure a window of activity
// (e.g. charging one traced op with its cache hits and misses).
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Hits:           s.Hits - t.Hits,
		Misses:         s.Misses - t.Misses,
		Fills:          s.Fills - t.Fills,
		DirtyEvictions: s.DirtyEvictions - t.DirtyEvictions,
		CleanEvictions: s.CleanEvictions - t.CleanEvictions,
		DRAMLineReads:  s.DRAMLineReads - t.DRAMLineReads,
		DRAMLineWrites: s.DRAMLineWrites - t.DRAMLineWrites,
		EccCorrected:   s.EccCorrected - t.EccCorrected,
		EccHealed:      s.EccHealed - t.EccHealed,
		EccLost:        s.EccLost - t.EccLost,
	}
}

// HitRate returns hits/(hits+misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a direct-mapped write-back cache over host memory.
// It is not safe for concurrent use; the KV processor pipeline serializes
// memory-engine requests just as the hardware's single DRAM controller does.
type Cache struct {
	host  memory.Engine
	lines int // capacity in 64 B lines

	tags  []int64 // host line index occupying each slot, -1 = empty
	dirty []bool
	// lines * 64 bytes, mapped outside the Go heap: Release or, for a
	// cache dropped unreleased, a finalizer unmaps them, so Read, Write
	// and Flush end in runtime.KeepAlive(c).
	data []byte

	// ECC sideband, armed by EnableECC: CheckBytes per slot holding the
	// 8x7 Hamming bits, widened parity and the cache metadata (address
	// tag + dirty flag) in the freed spare bits — the paper's §3.3.4
	// trick, actually exercised bit-for-bit under fault injection.
	side     []byte
	faults   *fault.Injector
	poisoned []bool               // per slot: the line's data is lost (no intact copy anywhere)
	hostECC  *ecc.ProtectedMemory // the host's poison, inherited by fills and kept on write-back

	aligned []byte // scratch: the line-aligned region a miss or a write merges in

	stats Stats
}

// New creates a cache of sizeBytes (rounded down to whole lines) over host.
func New(host memory.Engine, sizeBytes uint64) *Cache {
	n := int(sizeBytes / LineBytes)
	if n <= 0 {
		panic(fmt.Sprintf("nicdram: cache too small: %d bytes", sizeBytes))
	}
	c := &Cache{
		host:  host,
		lines: n,
		tags:  make([]int64, n),
		dirty: make([]bool, n),
		data:  memory.MapDRAM(uint64(n) * LineBytes),
	}
	runtime.SetFinalizer(c, (*Cache).Release)
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
}

// Release unmaps the line data now, dirty lines included (the owner is
// done with the cache), and cancels the finalizer. The slice is emptied
// first, so a later access fails lineData's slicing with a recoverable
// panic instead of faulting on unmapped pages. Release is idempotent.
func (c *Cache) Release() {
	data := c.data
	c.data = nil
	runtime.SetFinalizer(c, nil)
	memory.UnmapDRAM(data)
}

// EnableECC arms the per-line SECDED sideband and attaches inj as the
// source of injected DRAM faults. Single-bit flips in resident lines are
// corrected transparently; uncorrectable (double-bit) faults on clean
// lines self-heal by dropping the line and refetching from host memory,
// while faults on dirty lines are counted as lost so the store can
// escalate instead of serving corrupt data. A lost line stays poisoned —
// counted as lost on every access, and poisoned in host (which may be nil)
// when written back — until a write covers all of it; a fill from a
// poisoned host line is poisoned too. With ECC disabled the hooks cost
// one nil check per request.
func (c *Cache) EnableECC(inj *fault.Injector, host *ecc.ProtectedMemory) {
	c.faults, c.hostECC = inj, host
	c.poisoned = make([]bool, c.lines)
	c.side = make([]byte, c.lines*ecc.CheckBytes)
	var zero [ecc.LineBytes]byte
	sealed := ecc.EncodeLine(&zero, 0)
	for slot := 0; slot < c.lines; slot++ {
		copy(c.side[slot*ecc.CheckBytes:], sealed.Check[:])
	}
}

// reseal recomputes slot's ECC sideband from its current data and
// metadata (short address tag + dirty flag packed into the spare bits).
func (c *Cache) reseal(slot int) {
	if c.side == nil {
		return
	}
	var d [ecc.LineBytes]byte
	copy(d[:], c.lineData(slot))
	var meta uint8
	if t := c.tags[slot]; t >= 0 {
		meta = ecc.PackCacheMeta(uint8(c.TagFor(uint64(t))), c.dirty[slot])
	}
	l := ecc.EncodeLine(&d, meta)
	copy(c.side[slot*ecc.CheckBytes:], l.Check[:])
}

// eccInject flips bits in one resident line covered by [first,
// first+count), per the injector's configured probabilities. Double
// flips use bit pair (0,1) of one word, which the widened-parity layout
// is guaranteed to detect (see internal/fault) — so never in the word a
// single flip just hit: three flips in one word are past SECDED.
func (c *Cache) eccInject(first uint64, count int) {
	resident := make([]int, 0, count)
	for i := 0; i < count; i++ {
		if line := first + uint64(i); c.present(line) {
			resident = append(resident, c.slotFor(line))
		}
	}
	if len(resident) == 0 {
		return
	}
	single := -1 // slot*8 + word of the single flip
	if c.faults.Should(fault.DRAMBitFlip) {
		slot := resident[c.faults.Intn(len(resident))]
		bit := c.faults.Intn(LineBytes * 8)
		single = slot*8 + bit/64
		c.lineData(slot)[bit/8] ^= 1 << (bit % 8)
	}
	if c.faults.Should(fault.DRAMDoubleBitFlip) {
		slot := resident[c.faults.Intn(len(resident))]
		word := c.faults.Intn(8)
		if slot*8+word != single {
			c.lineData(slot)[word*8] ^= 0b11
		}
	}
}

// eccVerify decodes every resident line covering [first, first+count):
// correctable faults are repaired in place, uncorrectable faults on
// clean lines invalidate the slot (the caller's miss path refetches the
// intact copy from host memory), and uncorrectable faults on dirty
// lines are counted as lost — the cached write no longer exists anywhere.
func (c *Cache) eccVerify(first uint64, count int) {
	for i := 0; i < count; i++ {
		line := first + uint64(i)
		if !c.present(line) {
			continue
		}
		slot := c.slotFor(line)
		if c.poisoned[slot] {
			c.stats.EccLost++
			continue
		}
		var l ecc.Line
		copy(l.Data[:], c.lineData(slot))
		copy(l.Check[:], c.side[slot*ecc.CheckBytes:])
		data, _, status, err := ecc.DecodeLine(&l)
		switch {
		case err != nil:
			if c.dirty[slot] {
				c.stats.EccLost++
				c.poisoned[slot] = true
			} else {
				c.tags[slot] = -1
				c.stats.EccHealed++
			}
		case status == ecc.Corrected:
			copy(c.lineData(slot), data[:])
			c.stats.EccCorrected++
		}
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// slotFor maps a host line index to a cache slot. The mapping is plain
// modulo, as in the hardware: with a 16:1 host-to-NIC memory ratio the
// ambiguity per slot is 16 lines, so the stored tag needs only 4 bits —
// which is what lets the tag + dirty flag fit in the spare ECC bits
// (see internal/ecc and TagFor).
func (c *Cache) slotFor(line uint64) int {
	return int(line % uint64(c.lines))
}

// TagFor returns the short tag that disambiguates which host line
// occupies a slot: line / cacheLines. With host:NIC ratios up to 16 it
// fits the 4 bits the ECC sideband provides.
func (c *Cache) TagFor(line uint64) uint64 {
	return line / uint64(c.lines)
}

func (c *Cache) lineData(slot int) []byte {
	return c.data[slot*LineBytes : (slot+1)*LineBytes]
}

// present reports whether host line `line` currently occupies its slot.
func (c *Cache) present(line uint64) bool {
	return c.tags[c.slotFor(line)] == int64(line)
}

// install makes `line` resident, evicting any previous occupant (writing it
// back to host memory if dirty) and filling from src (a full 64 B line).
func (c *Cache) install(line uint64, src []byte) {
	slot := c.slotFor(line)
	if old := c.tags[slot]; old >= 0 && old != int64(line) {
		if c.dirty[slot] {
			c.writeBack(slot)
		} else {
			c.stats.CleanEvictions++
		}
	}
	c.tags[slot] = int64(line)
	c.dirty[slot] = false
	if c.poisoned != nil {
		c.poisoned[slot] = c.hostECC != nil && c.hostECC.Poisoned(line)
	}
	copy(c.lineData(slot), src)
	c.reseal(slot)
	c.stats.Fills++
	c.stats.DRAMLineWrites++
}

// alignedBuf returns the scratch buffer sized to count lines. Its contents
// are stale: callers overwrite every byte before reading any.
func (c *Cache) alignedBuf(count int) []byte {
	if n := count * LineBytes; n > cap(c.aligned) {
		c.aligned = make([]byte, n)
	}
	return c.aligned[:count*LineBytes]
}

// span returns the first line index and line count of [addr, addr+n).
func span(addr uint64, n int) (first uint64, count int) {
	first = addr / LineBytes
	last := (addr + uint64(n) - 1) / LineBytes
	return first, int(last - first + 1)
}

// Read serves a read request of len(buf) bytes at addr. A request whose
// lines are all resident is a hit (served from DRAM); otherwise the aligned
// covering region is fetched from host memory in one DMA read and installed.
func (c *Cache) Read(addr uint64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	first, count := span(addr, len(buf))
	if c.side != nil {
		c.eccInject(first, count)
		c.eccVerify(first, count)
	}
	allHit := true
	for i := 0; i < count; i++ {
		if !c.present(first + uint64(i)) {
			allHit = false
			break
		}
	}
	if allHit {
		c.stats.Hits++
		c.copyOut(addr, buf)
		c.stats.DRAMLineReads += uint64(count)
		runtime.KeepAlive(c)
		return
	}
	c.stats.Misses++
	// One DMA read of the line-aligned covering region.
	alignedBase := first * LineBytes
	aligned := c.alignedBuf(count)
	c.host.Read(alignedBase, aligned)
	// Pass 1: overlay resident (possibly dirty) lines, which are newer than
	// host memory, before any install can evict them. Lines of one request
	// can collide in the direct map, so installs must not precede this.
	for i := 0; i < count; i++ {
		line := first + uint64(i)
		if c.present(line) {
			copy(aligned[i*LineBytes:(i+1)*LineBytes], c.lineData(c.slotFor(line)))
		}
	}
	// Pass 2: install missing lines from the merged view. An install may
	// evict another line of this request (direct-map collision); that line
	// re-installs from `aligned`, which already holds its latest data.
	for i := 0; i < count; i++ {
		line := first + uint64(i)
		if !c.present(line) {
			c.install(line, aligned[i*LineBytes:(i+1)*LineBytes])
		}
	}
	copy(buf, aligned[addr-alignedBase:])
	c.stats.DRAMLineReads += uint64(count)
	runtime.KeepAlive(c)
}

// copyOut copies [addr, addr+len(buf)) from resident cache lines.
func (c *Cache) copyOut(addr uint64, buf []byte) {
	off := 0
	for off < len(buf) {
		a := addr + uint64(off)
		line := a / LineBytes
		slot := c.slotFor(line)
		lo := int(a % LineBytes)
		n := LineBytes - lo
		if n > len(buf)-off {
			n = len(buf) - off
		}
		copy(buf[off:off+n], c.lineData(slot)[lo:lo+n])
		off += n
	}
}

// Write serves a write request. Write-allocate: missing lines not fully
// covered by the write are fetched from host memory first (one DMA read),
// then all lines are installed/overlaid in the cache and marked dirty.
func (c *Cache) Write(addr uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	first, count := span(addr, len(data))
	if c.side != nil {
		// Verify before merging: a corrupt resident line must not leak
		// into the write's read-modify-write (clean lines refetch from
		// host below; dirty ones are already counted as lost).
		c.eccVerify(first, count)
	}
	alignedBase := first * LineBytes
	aligned := c.alignedBuf(count)

	needFetch := false
	for i := 0; i < count; i++ {
		line := first + uint64(i)
		if c.present(line) {
			continue
		}
		lineStart := uint64(i) * LineBytes
		lineEnd := lineStart + LineBytes
		reqStart := addr - alignedBase
		reqEnd := reqStart + uint64(len(data))
		fullyCovered := reqStart <= lineStart && reqEnd >= lineEnd
		if !fullyCovered {
			needFetch = true
			break
		}
	}

	allHit := true
	for i := 0; i < count; i++ {
		if !c.present(first + uint64(i)) {
			allHit = false
			break
		}
	}
	if allHit {
		c.stats.Hits++
	} else {
		c.stats.Misses++
		if needFetch {
			c.host.Read(alignedBase, aligned)
		}
	}

	// Seed aligned with resident (possibly dirty) cache contents, which
	// supersede whatever the host fetch returned.
	for i := 0; i < count; i++ {
		line := first + uint64(i)
		if c.present(line) {
			slot := c.slotFor(line)
			copy(aligned[uint64(i)*LineBytes:], c.lineData(slot))
		}
	}
	// Overlay the write.
	copy(aligned[addr-alignedBase:], data)
	// Install/refresh every covered line as dirty.
	end := addr + uint64(len(data))
	for i := 0; i < count; i++ {
		line := first + uint64(i)
		slot := c.slotFor(line)
		if c.present(line) {
			copy(c.lineData(slot), aligned[uint64(i)*LineBytes:(uint64(i)+1)*LineBytes])
			c.stats.DRAMLineWrites++
		} else {
			c.install(line, aligned[uint64(i)*LineBytes:(uint64(i)+1)*LineBytes])
		}
		if c.poisoned != nil && addr <= line*LineBytes && end >= (line+1)*LineBytes {
			c.poisoned[slot] = false // written whole: new data
		}
		c.dirty[slot] = true
		c.reseal(slot)
	}
	runtime.KeepAlive(c)
}

// Flush writes every dirty line back to host memory and invalidates the
// cache. Used at shutdown and by tests to verify coherence.
func (c *Cache) Flush() {
	for slot := 0; slot < c.lines; slot++ {
		if c.tags[slot] >= 0 && c.dirty[slot] {
			c.writeBack(slot)
		}
		c.tags[slot] = -1
		c.dirty[slot] = false
	}
	runtime.KeepAlive(c)
}

// writeBack writes slot's dirty line to host memory; a lost line lands
// there poisoned, not resealed as good data.
func (c *Cache) writeBack(slot int) {
	line := uint64(c.tags[slot])
	c.host.Write(line*LineBytes, c.lineData(slot))
	if c.poisoned != nil && c.poisoned[slot] && c.hostECC != nil {
		c.hostECC.Poison(line)
	}
	c.stats.DirtyEvictions++
}

// Resident reports whether the line containing addr is cached (for tests).
func (c *Cache) Resident(addr uint64) bool { return c.present(addr / LineBytes) }
