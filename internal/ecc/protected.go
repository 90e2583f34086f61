package ecc

import (
	"kvdirect/internal/memory"
)

// ProtectedMemory wraps a simulated host memory with the line-level SECDED
// code, the way the ECC DIMMs behind KV-Direct's DMA engine do: every
// 64-byte line carries an 8-byte sideband (8x7 Hamming + widened parity +
// spare metadata bits). Reads verify and transparently correct single-bit
// faults; uncorrectable (double-bit) faults are counted and surfaced via
// Stats, mirroring a machine-check the host would log, and poison the line:
// it reads as uncorrectable until a write covers all of it, so no
// read-modify-write can reseal the damage into a clean-looking line.
//
// ProtectedMemory implements memory.Engine, so the whole KVS stack — hash
// index, slabs, dispatcher — can run on top of it unchanged; InjectBitFlip
// and Scrub exist for fault-injection testing.
type ProtectedMemory struct {
	mem    *memory.Memory
	side   []byte          // CheckBytes per line
	poison map[uint64]bool // lines an uncorrectable fault destroyed

	stats ProtectedStats
}

// ProtectedStats counts fault events.
type ProtectedStats struct {
	Corrected     uint64 // single-bit faults repaired on access
	Uncorrectable uint64 // double-bit faults detected (data served as-is)
	Scrubs        uint64 // lines repaired by Scrub
}

// NewProtectedMemory wraps mem, computing sidebands for its current
// contents (all-zero memory has a well-defined code too).
func NewProtectedMemory(mem *memory.Memory) *ProtectedMemory {
	nLines := mem.Size() / LineBytes
	p := &ProtectedMemory{
		mem:  mem,
		side: make([]byte, nLines*CheckBytes),
	}
	// Fast path for the common case of freshly allocated (zeroed) memory:
	// every all-zero line shares one sideband, so wrapping a multi-hundred-
	// megabyte KVS takes a scan instead of a full re-encode.
	var zero [LineBytes]byte
	zeroSide := EncodeLine(&zero, 0)
	var line [LineBytes]byte
	for i := uint64(0); i < nLines; i++ {
		mem.Peek(i*LineBytes, line[:])
		if line == zero {
			copy(p.side[i*CheckBytes:], zeroSide.Check[:])
			continue
		}
		l := EncodeLine(&line, 0)
		copy(p.side[i*CheckBytes:], l.Check[:])
	}
	return p
}

// Stats returns a snapshot of the fault counters.
func (p *ProtectedMemory) Stats() ProtectedStats { return p.stats }

// lineSpan returns the first line and count covering [addr, addr+n).
func lineSpan(addr uint64, n int) (first uint64, count int) {
	first = addr / LineBytes
	last := (addr + uint64(n) - 1) / LineBytes
	return first, int(last - first + 1)
}

// verifyLine decodes one line in place, repairing correctable faults in
// the underlying memory.
func (p *ProtectedMemory) verifyLine(line uint64) {
	var l Line
	p.mem.Peek(line*LineBytes, l.Data[:])
	copy(l.Check[:], p.side[line*CheckBytes:])
	data, _, status, err := DecodeLine(&l)
	switch {
	case err != nil || p.poison[line]:
		p.stats.Uncorrectable++
		p.Poison(line)
	case status == Corrected:
		p.stats.Corrected++
		p.mem.Poke(line*LineBytes, data[:])
	}
}

// Read implements memory.Engine: one counted DMA for the payload, with
// every covered line ECC-verified (the DIMM checks on the fly; no extra
// DMA is charged for the sideband, which travels with the line).
func (p *ProtectedMemory) Read(addr uint64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	first, count := lineSpan(addr, len(buf))
	for i := 0; i < count; i++ {
		p.verifyLine(first + uint64(i))
	}
	p.mem.Read(addr, buf)
}

// Write implements memory.Engine: one counted DMA, then the sidebands of
// every touched line are recomputed. A partial line is a read-modify-write
// inside the DIMM, which verifies the line first: one found uncorrectable
// stays poisoned under the new bytes. A line written whole is new data.
func (p *ProtectedMemory) Write(addr uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	first, count := lineSpan(addr, len(data))
	end := addr + uint64(len(data))
	for i := 0; i < count; i++ {
		if ln := first + uint64(i); addr > ln*LineBytes || end < (ln+1)*LineBytes {
			p.verifyLine(ln)
		} else {
			delete(p.poison, ln)
		}
	}
	p.mem.Write(addr, data)
	var line [LineBytes]byte
	for i := 0; i < count; i++ {
		ln := first + uint64(i)
		p.mem.Peek(ln*LineBytes, line[:])
		l := EncodeLine(&line, 0)
		copy(p.side[ln*CheckBytes:], l.Check[:])
	}
}

// Poison marks line as destroyed: every read of it is uncorrectable until
// a write covers all of it. A cache writing back a line it lost calls it.
func (p *ProtectedMemory) Poison(line uint64) {
	if p.poison == nil {
		p.poison = map[uint64]bool{}
	}
	p.poison[line] = true
}

// Poisoned reports whether line is poisoned, for a cache filling from it.
func (p *ProtectedMemory) Poisoned(line uint64) bool { return p.poison[line] }

// InjectBitFlip flips one data bit without updating the sideband — a
// simulated DRAM fault.
func (p *ProtectedMemory) InjectBitFlip(addr uint64, bit uint) {
	var b [1]byte
	p.mem.Peek(addr, b[:])
	b[0] ^= 1 << (bit % 8)
	p.mem.Poke(addr, b[:])
}

// Scrub walks the whole memory, repairing every correctable fault (the
// background patrol scrubber real memory controllers run). It returns the
// number of lines repaired and the number found uncorrectable.
func (p *ProtectedMemory) Scrub() (repaired, uncorrectable uint64) {
	before := p.stats
	nLines := p.mem.Size() / LineBytes
	for i := uint64(0); i < nLines; i++ {
		p.verifyLine(i)
	}
	p.stats.Scrubs += p.stats.Corrected - before.Corrected
	return p.stats.Corrected - before.Corrected, p.stats.Uncorrectable - before.Uncorrectable
}
