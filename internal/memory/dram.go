//go:build unix

package memory

import (
	"fmt"
	"syscall"
)

// MapDRAM returns size zeroed bytes for a simulated DRAM, mapped outside
// the Go heap: an anonymous private mapping with a transparent-huge-page
// hint (see adviseHuge). The collector neither scans nor counts the
// bytes, so a store costs its configured size, not the twice that a heap
// goal sets, and a random bucket read walks 2 MiB page tables instead
// of 4 KiB ones. The caller frees the bytes with UnmapDRAM, exactly
// once, after its last access. A failed map panics, as make does when
// memory runs out: there is no heap fallback.
func MapDRAM(size uint64) []byte {
	if size == 0 {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(fmt.Sprintf("memory: map %d bytes: %v", size, err))
	}
	adviseHuge(b)
	return b
}

// UnmapDRAM releases bytes MapDRAM returned; nil is a no-op.
func UnmapDRAM(b []byte) {
	if b == nil {
		return
	}
	if err := syscall.Munmap(b); err != nil {
		panic(fmt.Sprintf("memory: unmap %d bytes: %v", len(b), err))
	}
}
