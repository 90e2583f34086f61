package nicdram

import (
	"testing"

	"kvdirect/internal/ecc"
	"kvdirect/internal/fault"
	"kvdirect/internal/memory"
)

// TestEccSingleFlipsCorrected: with certain single-bit DRAM flips on every
// read, the sideband must repair each one and data must stay intact.
func TestEccSingleFlipsCorrected(t *testing.T) {
	host := memory.New(1 << 16)
	c := New(host, 1<<12) // 64 lines
	inj := fault.NewInjector(21).Set(fault.DRAMBitFlip, 1)
	c.EnableECC(inj, nil)

	pattern := make([]byte, 256)
	for i := range pattern {
		pattern[i] = byte(i*13 + 1)
	}
	c.Write(512, pattern)
	buf := make([]byte, 256)
	for i := 0; i < 50; i++ {
		c.Read(512, buf)
		for j := range buf {
			if buf[j] != pattern[j] {
				t.Fatalf("read %d byte %d = %#x, want %#x", i, j, buf[j], pattern[j])
			}
		}
	}
	st := c.Stats()
	if st.EccCorrected == 0 {
		t.Fatal("no corrections recorded")
	}
	if st.EccHealed != 0 || st.EccLost != 0 {
		t.Fatalf("unexpected uncorrectable events: healed=%d lost=%d", st.EccHealed, st.EccLost)
	}
	if inj.Injected(fault.DRAMBitFlip) == 0 {
		t.Fatal("no flips recorded")
	}
}

// TestEccCleanLineSelfHeals: an uncorrectable fault on a clean resident
// line must drop the slot and refetch the intact copy from host memory —
// the read still returns correct data.
func TestEccCleanLineSelfHeals(t *testing.T) {
	host := memory.New(1 << 16)
	c := New(host, 1<<12)
	inj := fault.NewInjector(23)
	c.EnableECC(inj, nil)

	pattern := make([]byte, 64)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	c.Write(0, pattern)
	c.Flush() // line now clean in host memory, cache empty
	buf := make([]byte, 64)
	c.Read(0, buf) // install clean

	inj.Set(fault.DRAMDoubleBitFlip, 1)
	c.Read(0, buf)
	inj.DisableAll()

	for j := range buf {
		if buf[j] != pattern[j] {
			t.Fatalf("byte %d = %#x, want %#x after self-heal", j, buf[j], pattern[j])
		}
	}
	st := c.Stats()
	if st.EccHealed == 0 {
		t.Fatal("no self-heal recorded")
	}
	if st.EccLost != 0 {
		t.Fatalf("clean-line fault counted as lost: %d", st.EccLost)
	}
	if !c.Resident(0) {
		t.Fatal("line not re-installed after heal")
	}
}

// TestEccDirtyLineLossCounted: an uncorrectable fault on a dirty line has
// no intact copy anywhere; it must be counted as lost (the store layer
// escalates), never silently healed — and stays lost: neither a partial
// write nor the write-back reseals the damage as good data.
func TestEccDirtyLineLossCounted(t *testing.T) {
	host := ecc.NewProtectedMemory(memory.New(1 << 16))
	c := New(host, 1<<12)
	inj := fault.NewInjector(29)
	c.EnableECC(inj, host)

	pattern := make([]byte, 64)
	for i := range pattern {
		pattern[i] = byte(255 - i)
	}
	c.Write(128, pattern) // dirty, never flushed

	inj.Set(fault.DRAMDoubleBitFlip, 1)
	buf := make([]byte, 64)
	c.Read(128, buf)
	inj.DisableAll()

	st := c.Stats()
	if st.EccLost == 0 {
		t.Fatal("dirty-line fault not counted as lost")
	}
	if st.EccHealed != 0 {
		t.Fatalf("dirty-line fault wrongly healed: %d", st.EccHealed)
	}
	c.Write(130, []byte{1})
	c.Read(128, buf)
	if c.Stats().EccLost == st.EccLost {
		t.Fatal("a partial write resealed a lost line as good data")
	}
	c.Flush()
	if !host.Poisoned(2) {
		t.Fatal("the lost line was written back as good data")
	}
}

// TestEccDisabledIsInert: without EnableECC the cache behaves exactly as
// before — no sideband, no counters.
func TestEccDisabledIsInert(t *testing.T) {
	host := memory.New(1 << 16)
	c := New(host, 1<<12)
	pattern := make([]byte, 64)
	for i := range pattern {
		pattern[i] = byte(i * 3)
	}
	c.Write(0, pattern)
	buf := make([]byte, 64)
	c.Read(0, buf)
	st := c.Stats()
	if st.EccCorrected != 0 || st.EccHealed != 0 || st.EccLost != 0 {
		t.Fatalf("ECC counters moved without EnableECC: %+v", st)
	}
}
