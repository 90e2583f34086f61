// Package memory provides the simulated byte-addressable host memory that
// backs the KV-Direct store, with access accounting at DMA-request and
// cache-line granularity.
//
// The KV processor in the paper reaches host memory only through PCIe DMA,
// so "memory accesses per KV operation" — the quantity behind Figures 6,
// 9, 10 and 11 — is the number of DMA requests issued. Memory counts one
// access per Read/Write call (one DMA request, which may span several
// contiguous 64 B lines, like a multi-line TLP burst) and separately counts
// the lines touched for bandwidth modeling.
package memory

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// LineBytes is the access granularity used for line accounting, matching
// the paper's 64-byte DMA and cache-line granularity.
const LineBytes = 64

// Engine is the unified memory-access interface used by the KV processor
// (paper §3.3.4). Memory implements it directly; the DRAM load dispatcher
// wraps a Memory and implements it with NIC-DRAM caching.
type Engine interface {
	// Read copies len(buf) bytes starting at addr into buf.
	Read(addr uint64, buf []byte)
	// Write copies data into memory starting at addr.
	Write(addr uint64, data []byte)
}

// Stats is a snapshot of access counters.
type Stats struct {
	Reads      uint64 // DMA read requests
	Writes     uint64 // DMA write requests
	ReadLines  uint64 // 64 B lines covered by reads
	WriteLines uint64 // 64 B lines covered by writes
}

// Accesses returns total DMA requests (reads + writes).
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Lines returns total lines touched.
func (s Stats) Lines() uint64 { return s.ReadLines + s.WriteLines }

// Sub returns s - t, counter-wise; used to measure a window of activity.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:      s.Reads - t.Reads,
		Writes:     s.Writes - t.Writes,
		ReadLines:  s.ReadLines - t.ReadLines,
		WriteLines: s.WriteLines - t.WriteLines,
	}
}

// Memory is a simulated byte-addressable memory with atomic access counters.
// It is safe for concurrent use by multiple goroutines as long as they do
// not touch overlapping addresses (the same contract real DMA gives).
//
// The bytes live outside the Go heap (MapDRAM). Release frees them; a
// Memory dropped unreleased is released by a finalizer once unreachable.
// Every accessor that touches them ends in runtime.KeepAlive(m), so the
// finalizer cannot run in the middle of a copy.
type Memory struct {
	data []byte

	reads      atomic.Uint64
	writes     atomic.Uint64
	readLines  atomic.Uint64
	writeLines atomic.Uint64
}

// New maps a zeroed memory of the given size in bytes.
func New(size uint64) *Memory {
	m := &Memory{data: MapDRAM(size)}
	runtime.SetFinalizer(m, (*Memory).Release)
	return m
}

// Release unmaps the memory now and cancels the finalizer. The slice is
// emptied first, so a later access fails the accessors' bounds check
// with a recoverable panic instead of faulting on unmapped pages.
// Release is idempotent; it must not race with an access.
func (m *Memory) Release() {
	data := m.data
	m.data = nil
	runtime.SetFinalizer(m, nil)
	UnmapDRAM(data)
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// lines returns the number of LineBytes-aligned lines the range
// [addr, addr+n) overlaps.
func lines(addr uint64, n int) uint64 {
	if n <= 0 {
		return 0
	}
	first := addr / LineBytes
	last := (addr + uint64(n) - 1) / LineBytes
	return last - first + 1
}

func (m *Memory) check(addr uint64, n int) {
	if n < 0 || addr+uint64(n) > uint64(len(m.data)) || addr > uint64(len(m.data)) {
		panic(fmt.Sprintf("memory: access [%d,+%d) out of range [0,%d)", addr, n, len(m.data)))
	}
}

// Read implements Engine. It counts one DMA read request.
func (m *Memory) Read(addr uint64, buf []byte) {
	m.check(addr, len(buf))
	copy(buf, m.data[addr:addr+uint64(len(buf))])
	m.reads.Add(1)
	m.readLines.Add(lines(addr, len(buf)))
	runtime.KeepAlive(m)
}

// Write implements Engine. It counts one DMA write request.
func (m *Memory) Write(addr uint64, data []byte) {
	m.check(addr, len(data))
	copy(m.data[addr:addr+uint64(len(data))], data)
	m.writes.Add(1)
	m.writeLines.Add(lines(addr, len(data)))
	runtime.KeepAlive(m)
}

// Peek reads without counting an access. It is intended for tests and
// for components that model host-side work (the ECC layer's check bits
// and scrub), which access host memory directly rather than over PCIe.
func (m *Memory) Peek(addr uint64, buf []byte) {
	m.check(addr, len(buf))
	copy(buf, m.data[addr:addr+uint64(len(buf))])
	runtime.KeepAlive(m)
}

// Poke writes without counting an access (host-CPU-side writes).
func (m *Memory) Poke(addr uint64, data []byte) {
	m.check(addr, len(data))
	copy(m.data[addr:addr+uint64(len(data))], data)
	runtime.KeepAlive(m)
}

// Stats returns a snapshot of the access counters.
func (m *Memory) Stats() Stats {
	return Stats{
		Reads:      m.reads.Load(),
		Writes:     m.writes.Load(),
		ReadLines:  m.readLines.Load(),
		WriteLines: m.writeLines.Load(),
	}
}

// ResetStats zeroes the access counters.
func (m *Memory) ResetStats() {
	m.reads.Store(0)
	m.writes.Store(0)
	m.readLines.Store(0)
	m.writeLines.Store(0)
}

// Partition describes a contiguous address range within a Memory, used to
// split the KVS space into hash index and slab regions.
type Partition struct {
	Base uint64
	Size uint64
}

// End returns the first address past the partition.
func (p Partition) End() uint64 { return p.Base + p.Size }

// Contains reports whether addr falls inside the partition.
func (p Partition) Contains(addr uint64) bool {
	return addr >= p.Base && addr < p.End()
}

// Split divides [0, total) into a hash-index partition covering ratio of
// the space (rounded down to a whole number of 64 B buckets) and a slab
// partition with the remainder, mirroring the paper's hash index ratio
// configured at initialization time.
func Split(total uint64, ratio float64) (index, slabs Partition) {
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	idxBytes := uint64(float64(total)*ratio) / LineBytes * LineBytes
	if idxBytes > total {
		idxBytes = total
	}
	index = Partition{Base: 0, Size: idxBytes}
	slabs = Partition{Base: idxBytes, Size: total - idxBytes}
	return index, slabs
}
