package memory

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(1024)
	data := []byte("hello, kv-direct")
	m.Write(100, data)
	got := make([]byte, len(data))
	m.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q, want %q", got, data)
	}
}

func TestAccessCounting(t *testing.T) {
	m := New(4096)
	buf := make([]byte, 64)
	m.Read(0, buf)
	m.Read(64, buf)
	m.Write(128, buf)
	s := m.Stats()
	if s.Reads != 2 || s.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 2/1", s.Reads, s.Writes)
	}
	if s.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", s.Accesses())
	}
	if s.ReadLines != 2 || s.WriteLines != 1 {
		t.Errorf("read/write lines = %d/%d, want 2/1", s.ReadLines, s.WriteLines)
	}
}

func TestLineCountingSpansAndAlignment(t *testing.T) {
	cases := []struct {
		addr uint64
		n    int
		want uint64
	}{
		{0, 64, 1},  // aligned single line
		{0, 65, 2},  // spills one byte into next line
		{63, 2, 2},  // straddles boundary
		{64, 64, 1}, // aligned second line
		{10, 5, 1},  // within one line
		{0, 128, 2}, // two full lines
		{32, 64, 2}, // unaligned 64 B touches two lines
		{0, 256, 4}, // slab-sized burst
		{100, 0, 0}, // empty
	}
	for _, c := range cases {
		if got := lines(c.addr, c.n); got != c.want {
			t.Errorf("lines(%d, %d) = %d, want %d", c.addr, c.n, got, c.want)
		}
	}
}

func TestPeekPokeNotCounted(t *testing.T) {
	m := New(256)
	m.Poke(0, []byte{1, 2, 3})
	buf := make([]byte, 3)
	m.Peek(0, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Errorf("Peek = %v, want [1 2 3]", buf)
	}
	if s := m.Stats(); s.Accesses() != 0 {
		t.Errorf("Peek/Poke counted accesses: %+v", s)
	}
}

func TestResetStats(t *testing.T) {
	m := New(256)
	m.Write(0, []byte{1})
	m.ResetStats()
	if s := m.Stats(); s.Accesses() != 0 || s.Lines() != 0 {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestStatsSub(t *testing.T) {
	m := New(256)
	buf := make([]byte, 8)
	m.Read(0, buf)
	before := m.Stats()
	m.Read(0, buf)
	m.Write(0, buf)
	d := m.Stats().Sub(before)
	if d.Reads != 1 || d.Writes != 1 {
		t.Errorf("window delta = %+v, want 1 read 1 write", d)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(64)
	for name, fn := range map[string]func(){
		"read past end":  func() { m.Read(60, make([]byte, 8)) },
		"write past end": func() { m.Write(64, []byte{1}) },
		"huge addr":      func() { m.Read(1<<40, make([]byte, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSplitPartitions(t *testing.T) {
	idx, slab := Split(1<<20, 0.5)
	if idx.Base != 0 || idx.Size != 1<<19 {
		t.Errorf("index partition = %+v", idx)
	}
	if slab.Base != 1<<19 || slab.Size != 1<<19 {
		t.Errorf("slab partition = %+v", slab)
	}
	if idx.End() != slab.Base {
		t.Error("partitions not contiguous")
	}
}

func TestSplitRatioClamping(t *testing.T) {
	idx, slab := Split(1024, -1)
	if idx.Size != 0 || slab.Size != 1024 {
		t.Errorf("ratio<0: idx=%+v slab=%+v", idx, slab)
	}
	idx, slab = Split(1024, 2)
	if idx.Size != 1024 || slab.Size != 0 {
		t.Errorf("ratio>1: idx=%+v slab=%+v", idx, slab)
	}
}

func TestSplitBucketAligned(t *testing.T) {
	f := func(totalKB uint16, r uint8) bool {
		total := uint64(totalKB)*64 + 64 // at least one line, line-multiple
		ratio := float64(r) / 255
		idx, slab := Split(total, ratio)
		return idx.Size%LineBytes == 0 &&
			idx.Size+slab.Size == total &&
			idx.End() == slab.Base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionContains(t *testing.T) {
	p := Partition{Base: 100, Size: 50}
	for _, c := range []struct {
		addr uint64
		want bool
	}{{99, false}, {100, true}, {149, true}, {150, false}} {
		if got := p.Contains(c.addr); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestWriteReadBackProperty(t *testing.T) {
	m := New(1 << 16)
	f := func(addr uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := uint64(addr)
		if a+uint64(len(data)) > m.Size() {
			a = m.Size() - uint64(len(data))
		}
		m.Write(a, data)
		got := make([]byte, len(data))
		m.Read(a, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
