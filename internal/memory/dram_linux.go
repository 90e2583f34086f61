package memory

import "syscall"

// adviseHuge asks for transparent huge pages over b. Kernels that run
// THP in madvise mode back only hinted regions with them, and the Go
// heap never hints; the advice is best effort, so an error (THP off, an
// old kernel) leaves b on 4 KiB pages.
func adviseHuge(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) //lint:allow statuserr -- advisory: b works the same on 4 KiB pages
}
