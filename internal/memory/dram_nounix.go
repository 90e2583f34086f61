//go:build !unix

package memory

// MapDRAM returns size zeroed bytes from the Go heap where there is no
// mmap; see dram.go for the mapped version every unix build uses.
func MapDRAM(size uint64) []byte { return make([]byte, size) }

// UnmapDRAM leaves the bytes to the collector.
func UnmapDRAM([]byte) {}
