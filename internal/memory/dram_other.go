//go:build !linux

package memory

// adviseHuge is a no-op where MADV_HUGEPAGE does not exist.
func adviseHuge([]byte) {}
