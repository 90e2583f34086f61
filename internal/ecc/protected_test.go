package ecc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"kvdirect/internal/hashtable"
	"kvdirect/internal/memory"
	"kvdirect/internal/slab"
)

func TestProtectedReadWriteClean(t *testing.T) {
	mem := memory.New(1 << 12)
	p := NewProtectedMemory(mem)
	data := []byte("protected payload spanning a couple of lines at least!!")
	p.Write(100, data)
	got := make([]byte, len(data))
	p.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Fatal("round trip corrupted data")
	}
	if s := p.Stats(); s.Corrected+s.Uncorrectable != 0 {
		t.Fatalf("clean traffic produced fault events: %+v", s)
	}
}

func TestProtectedCorrectsSingleBitFlip(t *testing.T) {
	mem := memory.New(1 << 12)
	p := NewProtectedMemory(mem)
	data := bytes.Repeat([]byte{0xA5}, 64)
	p.Write(0, data)
	p.InjectBitFlip(17, 3)
	got := make([]byte, 64)
	p.Read(0, got)
	if !bytes.Equal(got, data) {
		t.Fatal("single-bit fault not corrected on read")
	}
	if p.Stats().Corrected != 1 {
		t.Fatalf("Corrected = %d, want 1", p.Stats().Corrected)
	}
	// The repair is persistent: a second read sees no fault.
	p.Read(0, got)
	if p.Stats().Corrected != 1 {
		t.Fatal("fault not repaired in place")
	}
}

func TestProtectedDetectsDoubleBitFlip(t *testing.T) {
	mem := memory.New(1 << 12)
	p := NewProtectedMemory(mem)
	p.Write(0, bytes.Repeat([]byte{0xFF}, 64))
	// Two flips in the same 64-bit word (bits 0 and 1: syndrome 3^5=6,
	// a data position, so the miscorrection trips the widened parity —
	// see DecodeLine's guarantees for the rare aliasing escape class).
	p.InjectBitFlip(8, 0)
	p.InjectBitFlip(8, 1)
	got := make([]byte, 64)
	p.Read(0, got)
	if p.Stats().Uncorrectable == 0 {
		t.Fatal("double-bit fault not detected")
	}
}

func TestProtectedScrub(t *testing.T) {
	mem := memory.New(1 << 14)
	p := NewProtectedMemory(mem)
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, 1<<14)
	rng.Read(payload)
	p.Write(0, payload)
	// Sprinkle single-bit faults on distinct lines.
	for i := 0; i < 20; i++ {
		p.InjectBitFlip(uint64(i)*512+uint64(rng.Intn(64)), uint(rng.Intn(8)))
	}
	repaired, uncorrectable := p.Scrub()
	if repaired != 20 || uncorrectable != 0 {
		t.Fatalf("scrub repaired %d (want 20), uncorrectable %d", repaired, uncorrectable)
	}
	got := make([]byte, 1<<14)
	p.Read(0, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("scrubbed memory differs from original")
	}
}

func TestProtectedDMACountsUnchanged(t *testing.T) {
	// ECC verification must not charge extra DMAs: the sideband travels
	// with the line inside the DIMM.
	mem := memory.New(1 << 12)
	p := NewProtectedMemory(mem)
	buf := make([]byte, 100)
	p.Write(30, buf)
	p.Read(30, buf)
	if got := mem.Stats().Accesses(); got != 2 {
		t.Fatalf("ECC wrapper charged %d DMAs, want 2", got)
	}
}

func TestHashTableSurvivesBitFlips(t *testing.T) {
	// The full KVS stack on ECC-protected memory shrugs off single-bit
	// DRAM faults injected mid-workload.
	mem := memory.New(1 << 20)
	p := NewProtectedMemory(mem)
	idx, slabs := memory.Split(1<<20, 0.5)
	alloc := slab.New(slabs, slab.Options{})
	tbl, err := hashtable.New(p, alloc, hashtable.Config{Index: idx, InlineThreshold: 13, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	want := map[string][]byte{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("ecc-%04d", i)
		v := make([]byte, rng.Intn(200))
		rng.Read(v)
		if _, err := tbl.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// Inject faults into random populated addresses.
	for i := 0; i < 50; i++ {
		p.InjectBitFlip(uint64(rng.Intn(1<<20)), uint(rng.Intn(8)))
	}
	for k, v := range want {
		got, ok := tbl.Get([]byte(k))
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %s corrupted despite ECC", k)
		}
	}
	if _, err := tbl.Check(); err != nil {
		t.Fatalf("fsck after fault injection: %v", err)
	}
	st := p.Stats()
	if st.Corrected == 0 {
		t.Error("expected some corrected faults (50 injected)")
	}
	if st.Uncorrectable != 0 {
		t.Errorf("single-bit faults reported uncorrectable: %+v", st)
	}
}

// TestProtectedPartialWriteKeepsPoison: the read-modify-write of a line
// found uncorrectable must not reseal the damage as good data; only a
// write of the whole line is new data.
func TestProtectedPartialWriteKeepsPoison(t *testing.T) {
	p := NewProtectedMemory(memory.New(1 << 12))
	p.Write(0, bytes.Repeat([]byte{0xAB}, LineBytes))
	p.InjectBitFlip(8, 0)
	p.InjectBitFlip(8, 1)
	buf := make([]byte, 8)
	p.Write(32, []byte{1})
	before := p.Stats().Uncorrectable
	p.Read(0, buf)
	if p.Stats().Uncorrectable == before {
		t.Fatal("a partial write resealed an uncorrectable line as good data")
	}
	p.Write(0, make([]byte, LineBytes))
	before = p.Stats().Uncorrectable
	p.Read(0, buf)
	if p.Stats().Uncorrectable != before {
		t.Fatal("a whole-line write left the line poisoned")
	}
}
