package slab

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"kvdirect/internal/memory"
)

func region(size uint64) memory.Partition {
	return memory.Partition{Base: 1 << 20, Size: size}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		n     int
		class int
		ok    bool
	}{
		{1, 0, true}, {32, 0, true}, {33, 1, true}, {64, 1, true},
		{65, 2, true}, {128, 2, true}, {256, 3, true}, {257, 4, true},
		{512, 4, true}, {513, 0, false}, {0, 0, false}, {-1, 0, false},
	}
	for _, c := range cases {
		got, ok := ClassFor(c.n)
		if ok != c.ok || (ok && got != c.class) {
			t.Errorf("ClassFor(%d) = %d,%v, want %d,%v", c.n, got, ok, c.class, c.ok)
		}
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := New(region(1<<16), Options{})
	addr, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if addr < 1<<20 || addr >= 1<<20+1<<16 {
		t.Errorf("addr %d outside region", addr)
	}
	if addr%128 != 0 {
		t.Errorf("addr %d not aligned to its 128 B class", addr)
	}
	a.Free(addr, 100)
	if got := a.FreeBytes(); got != 1<<16 {
		t.Errorf("FreeBytes = %d, want full region back", got)
	}
}

func TestAllocationsDoNotOverlap(t *testing.T) {
	a := New(region(1<<16), Options{})
	rng := rand.New(rand.NewSource(1))
	type alloc struct {
		addr uint64
		size int
	}
	var live []alloc
	for i := 0; i < 2000; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			a.Free(live[j].addr, live[j].size)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			continue
		}
		size := 1 + rng.Intn(512)
		addr, err := a.Alloc(size)
		if err != nil {
			continue // exhausted; fine
		}
		live = append(live, alloc{addr, size})
	}
	// Verify pairwise disjoint using rounded class sizes.
	sort.Slice(live, func(i, j int) bool { return live[i].addr < live[j].addr })
	for i := 1; i < len(live); i++ {
		c, _ := ClassFor(live[i-1].size)
		if live[i-1].addr+uint64(Sizes[c]) > live[i].addr {
			t.Fatalf("overlap: [%d,+%d) and %d", live[i-1].addr, Sizes[c], live[i].addr)
		}
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(region(1<<12), Options{})
	addr, _ := a.Alloc(64)
	a.Free(addr, 64)
	defer func() {
		if recover() == nil {
			t.Error("double free should panic")
		}
	}()
	a.Free(addr, 64)
}

func TestFreeOutsideRegionPanics(t *testing.T) {
	a := New(region(1<<12), Options{})
	defer func() {
		if recover() == nil {
			t.Error("free outside region should panic")
		}
	}()
	a.Free(0, 64)
}

func TestOversizeAllocFails(t *testing.T) {
	a := New(region(1<<12), Options{})
	if _, err := a.Alloc(513); err == nil {
		t.Error("alloc > MaxSlab should fail")
	}
}

func TestExhaustionThenRecovery(t *testing.T) {
	a := New(region(4096), Options{})
	var addrs []uint64
	for {
		addr, err := a.Alloc(512)
		if err != nil {
			break
		}
		addrs = append(addrs, addr)
	}
	if len(addrs) != 8 {
		t.Fatalf("allocated %d 512 B slabs from 4 KiB, want 8", len(addrs))
	}
	for _, addr := range addrs {
		a.Free(addr, 512)
	}
	if _, err := a.Alloc(512); err != nil {
		t.Errorf("alloc after full free failed: %v", err)
	}
}

func TestSplittingServesSmallClasses(t *testing.T) {
	a := New(region(1<<14), Options{}) // pools start with only 512 B slabs
	if _, err := a.Alloc(32); err != nil {
		t.Fatalf("32 B alloc needing splits failed: %v", err)
	}
	if a.Stats().Splits == 0 {
		t.Error("expected splits to satisfy 32 B allocation")
	}
}

func TestLazyMergeReassemblesLargeSlabs(t *testing.T) {
	a := New(region(4096), Options{})
	// Fragment the whole region into 32 B allocations.
	var addrs []uint64
	for {
		addr, err := a.Alloc(32)
		if err != nil {
			break
		}
		addrs = append(addrs, addr)
	}
	if len(addrs) != 128 {
		t.Fatalf("expected 128 granules, got %d", len(addrs))
	}
	for _, addr := range addrs {
		a.Free(addr, 32)
	}
	// All free memory is in the 32 B class now; a 512 B alloc requires
	// lazy merging to cascade granules back up.
	if _, err := a.Alloc(512); err != nil {
		t.Fatalf("512 B alloc after fragmentation failed: %v", err)
	}
	if a.Stats().MergedPairs == 0 {
		t.Error("expected merge activity")
	}
}

func TestAmortizedDMABelowPaperBound(t *testing.T) {
	a := New(region(1<<20), Options{})
	rng := rand.New(rand.NewSource(2))
	var live []uint64
	const size = 64
	for i := 0; i < 50000; i++ {
		if len(live) > 100 && rng.Intn(2) == 0 {
			j := rng.Intn(len(live))
			a.Free(live[j], size)
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else {
			addr, err := a.Alloc(size)
			if err == nil {
				live = append(live, addr)
			}
		}
	}
	st := a.Stats()
	got := float64(st.SyncDMAs) / float64(st.Allocs+st.Frees)
	// Paper §3.3.2: < 0.1 amortized DMA per allocation/deallocation.
	if got >= 0.1 {
		t.Errorf("amortized DMA per op = %.3f, want < 0.1", got)
	}
	if got == 0 {
		t.Error("expected some sync DMAs")
	}
}

func TestMergeAllBothAlgorithmsAgree(t *testing.T) {
	// Half of a 16 KiB region's 32 B granules free, in random order: both
	// algorithms merge the same buddy pairs and leave the same rest.
	rng := rand.New(rand.NewSource(3))
	var offs []uint64
	for off := uint64(0); off < 1<<14; off += 32 {
		offs = append(offs, off)
	}
	rng.Shuffle(len(offs), func(i, j int) { offs[i], offs[j] = offs[j], offs[i] })
	offs = offs[:len(offs)/2]
	sorted := func(xs []uint64) []uint64 {
		xs = append([]uint64(nil), xs...)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs
	}
	m1, r1 := MergeBitmap(offs, 32, 1<<14)
	m2, r2 := MergeRadix(offs, 32, 4)
	if !reflect.DeepEqual(sorted(m1), m2) || !reflect.DeepEqual(sorted(r1), r2) {
		t.Errorf("bitmap merged %d pairs (rest %d), radix %d (rest %d)", len(m1), len(r1), len(m2), len(r2))
	}
	if len(m1) == 0 {
		t.Error("no buddy pairs merged")
	}
}

func TestMergeBitmapPairs(t *testing.T) {
	// Offsets 0,32 are buddies; 96 is alone (64 is its buddy, absent);
	// 128,160 are buddies.
	merged, rest := MergeBitmap([]uint64{96, 0, 160, 32, 128}, 32, 4096)
	if len(merged) != 2 {
		t.Fatalf("merged = %v, want 2 pairs", merged)
	}
	wantM := map[uint64]bool{0: true, 128: true}
	for _, m := range merged {
		if !wantM[m] {
			t.Errorf("unexpected merged offset %d", m)
		}
	}
	if len(rest) != 1 || rest[0] != 96 {
		t.Errorf("rest = %v, want [96]", rest)
	}
}

func TestMergeRadixPairs(t *testing.T) {
	merged, rest := MergeRadix([]uint64{96, 0, 160, 32, 128}, 32, 2)
	if len(merged) != 2 || len(rest) != 1 || rest[0] != 96 {
		t.Errorf("radix merge = %v / %v", merged, rest)
	}
}

func TestMergeRespectsAlignment(t *testing.T) {
	// 32 and 64 are adjacent but 32 is not 64-aligned: NOT buddies.
	merged, rest := MergeRadix([]uint64{32, 64}, 32, 1)
	if len(merged) != 0 || len(rest) != 2 {
		t.Errorf("unaligned pair merged: %v / %v", merged, rest)
	}
}

func TestMergeEmpty(t *testing.T) {
	if m, r := MergeBitmap(nil, 32, 1024); m != nil || r != nil {
		t.Error("empty bitmap merge should return nils")
	}
	if m, r := MergeRadix(nil, 32, 4); m != nil || r != nil {
		t.Error("empty radix merge should return nils")
	}
}

func TestRadixSortMatchesStdSort(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%20000 + 1
		rng := rand.New(rand.NewSource(seed))
		in := make([]uint64, n)
		for i := range in {
			in[i] = uint64(rng.Intn(1 << 20))
		}
		got := RadixSort(in, 4)
		want := append([]uint64(nil), in...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := make([]uint64, 100000)
	for i := range in {
		in[i] = uint64(rng.Int63n(1 << 30))
	}
	want := RadixSort(in, 1)
	for _, w := range []int{2, 4, 8, 32} {
		got := RadixSort(in, w)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d diverges at %d", w, i)
			}
		}
	}
}

func TestAllocatorInvariantProperty(t *testing.T) {
	// Random alloc/free sequences preserve: freeBytes + live bytes == carved.
	f := func(seed int64) bool {
		a := New(region(1<<14), Options{})
		carved := a.FreeBytes()
		rng := rand.New(rand.NewSource(seed))
		type alloc struct {
			addr uint64
			size int
		}
		var live []alloc
		liveBytes := uint64(0)
		for i := 0; i < 500; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				j := rng.Intn(len(live))
				a.Free(live[j].addr, live[j].size)
				c, _ := ClassFor(live[j].size)
				liveBytes -= uint64(Sizes[c])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				size := 1 + rng.Intn(512)
				addr, err := a.Alloc(size)
				if err != nil {
					continue
				}
				c, _ := ClassFor(size)
				liveBytes += uint64(Sizes[c])
				live = append(live, alloc{addr, size})
			}
			if a.FreeBytes()+liveBytes != carved {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
