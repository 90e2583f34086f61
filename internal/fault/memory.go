package fault

import (
	"sync/atomic"

	"kvdirect/internal/ecc"
	"kvdirect/internal/memory"
)

// Memory is a memory.Engine that injects DMA-level faults between the
// KV processor's memory clients (hash table, slab allocator, NIC DRAM
// cache fills) and the ECC-protected host memory:
//
//   - HostBitFlip / HostDoubleBitFlip corrupt a bit (or an uncorrectable
//     bit pair) inside the lines a DMA read is about to cover, so the
//     SECDED layer underneath sees the fault on that very access —
//     single flips are repaired transparently, double flips are detected
//     and escalated by the store.
//   - PCIeDropTag models a lost read completion: the DMA engine re-issues
//     the request, costing a second counted DMA.
//   - PCIeStall is recorded for visibility (latency-only; the PCIe event
//     simulation models its timing effect).
type Memory struct {
	eng  memory.Engine
	prot *ecc.ProtectedMemory
	inj  *Injector

	retries atomic.Uint64
	stalls  atomic.Uint64
}

// MemoryStats counts recovered DMA-engine events.
type MemoryStats struct {
	Retries uint64 // reads re-issued after a dropped completion
	Stalls  uint64 // requests that hit an injected stall
}

// NewMemory wraps eng. prot (the ECC layer inside eng, may equal eng)
// receives the injected bit flips; with a nil prot, bit-flip points are
// inert — there would be no code to catch them.
func NewMemory(eng memory.Engine, prot *ecc.ProtectedMemory, inj *Injector) *Memory {
	return &Memory{eng: eng, prot: prot, inj: inj}
}

// Stats returns a snapshot of recovered-event counters.
func (m *Memory) Stats() MemoryStats {
	return MemoryStats{Retries: m.retries.Load(), Stalls: m.stalls.Load()}
}

// Read implements memory.Engine.
func (m *Memory) Read(addr uint64, buf []byte) {
	if n := len(buf); n > 0 && m.prot != nil {
		single := ^uint64(0) // the word a single flip hit
		if m.inj.Should(HostBitFlip) {
			off := addr + uint64(m.inj.Intn(n))
			m.prot.InjectBitFlip(off, uint(m.inj.Intn(8)))
			single = off &^ 7
		}
		if m.inj.Should(HostDoubleBitFlip) {
			// Flip bits 0 and 1 of a 64-bit word inside the read range.
			// Their Hamming positions (3 and 5) XOR to position 6 — a
			// data position, so the miscorrection leaves an odd flip
			// count and the widened parity always detects the fault —
			// unless the word also took the single flip: three flips in
			// one word are past what SECDED promises, so that pair is
			// not injected.
			if word := (addr + uint64(m.inj.Intn(n))) &^ 7; word != single {
				m.prot.InjectBitFlip(word, 0)
				m.prot.InjectBitFlip(word, 1)
			}
		}
	}
	if m.inj.Should(PCIeDropTag) {
		// Completion lost: the first DMA's data never arrives and the
		// engine re-issues the read, paying for both requests.
		m.eng.Read(addr, buf)
		m.retries.Add(1)
	}
	if m.inj.Should(PCIeStall) {
		m.stalls.Add(1)
	}
	m.eng.Read(addr, buf)
}

// Write implements memory.Engine. Posted writes have no completion to
// lose; only stalls are observable.
func (m *Memory) Write(addr uint64, data []byte) {
	if m.inj.Should(PCIeStall) {
		m.stalls.Add(1)
	}
	m.eng.Write(addr, data)
}
