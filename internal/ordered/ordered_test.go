package ordered

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kvdirect/internal/memory"
	"kvdirect/internal/slab"
)

func newTestIndex(t *testing.T, seed uint64) (*Index, *memory.Memory) {
	t.Helper()
	mem := memory.New(1 << 20)
	t.Cleanup(mem.Release)
	alloc := slab.New(memory.Partition{Base: 0, Size: 1 << 20}, slab.Options{})
	x, err := New(mem, alloc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return x, mem
}

// TestOrderedDifferential drives random inserts, deletes and range visits
// against a model sorted set and demands exact agreement.
func TestOrderedDifferential(t *testing.T) {
	x, _ := newTestIndex(t, 42)
	rng := rand.New(rand.NewSource(7))
	model := map[string]bool{}

	randKey := func() []byte {
		return []byte(fmt.Sprintf("key-%03d", rng.Intn(400)))
	}
	sortedModel := func() []string {
		keys := make([]string, 0, len(model))
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}

	for i := 0; i < 5000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // insert
			k := randKey()
			fresh, err := x.Insert(k)
			if err != nil {
				t.Fatal(err)
			}
			if fresh == model[string(k)] {
				t.Fatalf("insert %q: fresh=%v but model present=%v", k, fresh, model[string(k)])
			}
			model[string(k)] = true
		case 5, 6, 7: // delete
			k := randKey()
			if got := x.Delete(k); got != model[string(k)] {
				t.Fatalf("delete %q: got %v, model %v", k, got, model[string(k)])
			}
			delete(model, string(k))
		case 8: // membership probe
			k := randKey()
			if got := x.Contains(k); got != model[string(k)] {
				t.Fatalf("contains %q: got %v, model %v", k, got, model[string(k)])
			}
		default: // bounded range visit from a random start
			start := randKey()
			want := []string{}
			for _, k := range sortedModel() {
				if k >= string(start) && len(want) < 25 {
					want = append(want, k)
				}
			}
			got := []string{}
			if err := x.Visit(start, func(key []byte) bool {
				got = append(got, string(key))
				return len(got) < 25
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("visit from %q: %d keys, want %d", start, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("visit from %q: key %d is %q, want %q", start, j, got[j], want[j])
				}
			}
		}
	}
	if x.Len() != uint64(len(model)) {
		t.Fatalf("Len = %d, model has %d", x.Len(), len(model))
	}
}

// TestOrderedDeterminism: the same seed and op sequence must produce an
// identical structure — byte-identical visit order and identical DMA
// counts (the model's reproducibility contract).
func TestOrderedDeterminism(t *testing.T) {
	run := func() ([]string, memory.Stats) {
		x, mem := newTestIndex(t, 99)
		for i := 0; i < 500; i++ {
			if _, err := x.Insert([]byte(fmt.Sprintf("k%04d", i*7%500))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 250; i++ {
			x.Delete([]byte(fmt.Sprintf("k%04d", i*3%500)))
		}
		var keys []string
		if err := x.Visit(nil, func(k []byte) bool { keys = append(keys, string(k)); return true }); err != nil {
			t.Fatal(err)
		}
		return keys, mem.Stats()
	}
	k1, s1 := run()
	k2, s2 := run()
	if len(k1) != len(k2) {
		t.Fatalf("runs differ in size: %d vs %d", len(k1), len(k2))
	}
	for i := range k1 {
		if k1[i] != k2[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, k1[i], k2[i])
		}
	}
	if s1 != s2 {
		t.Fatalf("DMA counts diverge: %+v vs %+v", s1, s2)
	}
}

// TestOrderedAccessesCharged: every index operation must cost DMAs on the
// counted engine — a seek that touched nothing would mean the index
// bypassed the performance model.
func TestOrderedAccessesCharged(t *testing.T) {
	x, mem := newTestIndex(t, 1)
	before := mem.Stats()
	if _, err := x.Insert([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	mid := mem.Stats()
	if mid.Writes <= before.Writes {
		t.Fatal("insert issued no counted writes")
	}
	if mid.Reads <= before.Reads {
		t.Fatal("insert's seek issued no counted reads")
	}
	if err := x.Visit(nil, func([]byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	after := mem.Stats()
	if after.Reads <= mid.Reads {
		t.Fatal("visit issued no counted reads")
	}
	st := x.Stats()
	if st.Inserts != 1 || st.Keys != 1 || st.Seeks == 0 || st.Visited == 0 {
		t.Fatalf("stats not tracking: %+v", st)
	}
}

// TestOrderedKeyTooLong: oversized keys are rejected without touching the
// structure.
func TestOrderedKeyTooLong(t *testing.T) {
	x, _ := newTestIndex(t, 1)
	big := bytes.Repeat([]byte("x"), MaxKeyLen+1)
	if _, err := x.Insert(big); err != ErrKeyTooLong {
		t.Fatalf("Insert oversized: err = %v, want ErrKeyTooLong", err)
	}
	if x.Delete(big) {
		t.Fatal("Delete oversized reported true")
	}
	if x.Contains(big) {
		t.Fatal("Contains oversized reported true")
	}
	if x.Len() != 0 {
		t.Fatalf("index not empty: %d", x.Len())
	}
}

// TestOrderedMaxLenKey: a maximum-length key round-trips intact.
func TestOrderedMaxLenKey(t *testing.T) {
	x, _ := newTestIndex(t, 1)
	k := bytes.Repeat([]byte("m"), MaxKeyLen)
	if _, err := x.Insert(k); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := x.Visit(nil, func(key []byte) bool {
		got = append([]byte(nil), key...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, k) {
		t.Fatalf("round-trip corrupted a %d-byte key", MaxKeyLen)
	}
	if !x.Delete(k) {
		t.Fatal("delete of max-length key failed")
	}
}

// TestOrderedAllocExhaustion: allocation failure surfaces as a wrapped
// error and leaves the structure consistent.
func TestOrderedAllocExhaustion(t *testing.T) {
	mem := memory.New(8 << 10)
	alloc := slab.New(memory.Partition{Base: 0, Size: 8 << 10}, slab.Options{})
	x, err := New(mem, alloc, 3)
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for i := 0; i < 10000; i++ {
		if _, err := x.Insert([]byte(fmt.Sprintf("exhaust-%05d", i))); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("8 KiB region absorbed 10000 inserts")
	}
	// Whatever made it in must still visit in order.
	var prev []byte
	if err := x.Visit(nil, func(k []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("order broken after exhaustion: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedRelease: Release hands every node back, the head included,
// whatever the heights and key lengths, so a failed build leaks nothing.
func TestOrderedRelease(t *testing.T) {
	mem := memory.New(1 << 20)
	t.Cleanup(mem.Release)
	alloc := slab.New(memory.Partition{Size: 1 << 20}, slab.Options{})
	free := alloc.FreeBytes()
	x, err := New(mem, alloc, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if _, err := x.Insert(bytes.Repeat([]byte{byte('a' + i%26)}, 1+i*7919%MaxKeyLen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := x.Release(); err != nil {
		t.Fatal(err)
	}
	if got := alloc.FreeBytes(); got != free {
		t.Errorf("FreeBytes = %d after Release, want %d", got, free)
	}
	if st := x.Stats(); st.Keys != 0 || st.NodeBytes != 0 {
		t.Errorf("Stats after Release: %+v", st)
	}
}

// budget is a memory engine that fails the test once more than left
// reads have been issued: a walk round a damaged pointer cycle fails
// fast instead of hanging the test.
type budget struct {
	memory.Engine
	t    *testing.T
	left int
}

func (b *budget) Read(addr uint64, buf []byte) {
	if b.left--; b.left < 0 {
		b.t.Fatal("index walk did not return: read budget exhausted")
	}
	b.Engine.Read(addr, buf)
}

// TestOrderedCorruptLinkEndsWalk damages one level-0 link five ways — a
// cycle back to a smaller key or to the head, a target outside the slab
// region, a level no tower has, and a target whose header disagrees with
// the link — and demands that every operation whose walk crosses it
// returns within a small read budget, reports the damage (ErrCorrupt from
// Insert, Visit and Release, false from Delete and Contains) and counts
// it.
func TestOrderedCorruptLinkEndsWalk(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	for _, tc := range []struct {
		name string
		link func(x *Index) uint64
	}{
		{"cycle", func(x *Index) uint64 {
			link, found, ok := x.seek(key(10))
			if !found || !ok {
				t.Fatal("k010 not indexed")
			}
			return link
		}},
		{"cycle to the head", func(x *Index) uint64 { return x.head }},
		{"outside the slab region", func(x *Index) uint64 {
			return makeLink(x.slabs.End(), 1, 4)
		}},
		{"level out of range", func(x *Index) uint64 {
			return makeLink(x.slabs.Base, 0xFE, 4)
		}},
		{"header mismatch", func(x *Index) uint64 {
			link, found, ok := x.seek(key(60))
			if !found || !ok {
				t.Fatal("k060 not indexed")
			}
			level, klen := linkShape(link)
			return makeLink(linkAddr(link), level, klen+1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := memory.New(1 << 20)
			t.Cleanup(mem.Release)
			eng := &budget{Engine: mem, t: t, left: 1 << 30}
			x, err := New(eng, slab.New(memory.Partition{Size: 1 << 20}, slab.Options{}), 5)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if _, err := x.Insert(key(i)); err != nil {
					t.Fatal(err)
				}
			}
			victim, found, ok := x.seek(key(50))
			if !found || !ok {
				t.Fatal("k050 not indexed")
			}
			var word [ptrBytes]byte
			putU64(word[:], tc.link(x))
			mem.Poke(linkAddr(victim)+headerBytes, word[:])

			// Every op below walks level 0 out of k050.
			ops := []struct {
				name string
				run  func() error
			}{
				{"Insert", func() error { _, err := x.Insert([]byte("k050a")); return err }},
				{"Delete", func() error {
					if x.Delete(key(51)) {
						return errors.New("reported true")
					}
					return ErrCorrupt
				}},
				{"Contains", func() error {
					if x.Contains(key(51)) {
						return errors.New("reported true")
					}
					return ErrCorrupt
				}},
				{"Visit", func() error { return x.Visit(key(45), func([]byte) bool { return true }) }},
			}
			for _, op := range ops {
				eng.left = 64
				before := x.Stats().Corrupt
				if err := op.run(); err != ErrCorrupt {
					t.Errorf("%s: %v, want ErrCorrupt", op.name, err)
				}
				if got := x.Stats().Corrupt; got != before+1 {
					t.Errorf("%s: Corrupt %d -> %d, want one more", op.name, before, got)
				}
			}
			if x.Len() != 100 {
				t.Errorf("Len = %d after refused ops, want 100", x.Len())
			}
			eng.left = 64
			if !x.Contains(key(49)) {
				t.Error("a key before the damage is no longer found")
			}
			eng.left = 128
			if err := x.Release(); err != ErrCorrupt {
				t.Errorf("Release: %v, want ErrCorrupt", err)
			}
		})
	}
}

// fuzzKey maps a key id to a key: id 0 is the empty key, the rest vary
// in length (3 to 6 bytes) so nodes of many sizes share the list.
func fuzzKey(id byte) []byte {
	if id == 0 {
		return nil
	}
	return []byte(fmt.Sprintf("%s%03d", "kkk"[:id%4], id))
}

// runOrderedOps decodes ops two bytes each — opcode and key id — and
// applies them to x and to a sorted-set model, failing on the first
// disagreement. Opcode % 4 picks insert, delete, contains or visit; a
// visit starts at the key and stops after 1 + (opcode>>2)%32 keys.
func runOrderedOps(t *testing.T, x *Index, data []byte) {
	model := map[string]bool{}
	for ; len(data) >= 2; data = data[2:] {
		code, k := data[0], fuzzKey(data[1])
		if len(data) >= 4 {
			// After the previous op, before this one: the next key's
			// seek, and the smallest key above the finger's.
			checkFinger(t, x, k)
			checkFinger(t, x, append(slices.Clip(x.fkey.bytes()), 0))
		}
		switch code % 4 {
		case 0:
			fresh, err := x.Insert(k)
			if err != nil || fresh == model[string(k)] {
				t.Fatalf("insert %q: fresh=%v err=%v, model present=%v", k, fresh, err, model[string(k)])
			}
			model[string(k)] = true
		case 1:
			if got := x.Delete(k); got != model[string(k)] {
				t.Fatalf("delete %q: got %v, model %v", k, got, model[string(k)])
			}
			delete(model, string(k))
		case 2:
			if got := x.Contains(k); got != model[string(k)] {
				t.Fatalf("contains %q: got %v, model %v", k, got, model[string(k)])
			}
		default:
			limit := 1 + int(code>>2)%32
			var want, got []string
			for m := range model {
				if m >= string(k) {
					want = append(want, m)
				}
			}
			sort.Strings(want)
			want = want[:min(limit, len(want))]
			if err := x.Visit(k, func(key []byte) bool {
				got = append(got, string(key))
				return len(got) < limit
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("visit %q limit %d: got %q, want %q", k, limit, got, want)
			}
		}
	}
	if x.Len() != uint64(len(model)) || x.Stats().Corrupt != 0 {
		t.Fatalf("Len = %d, model has %d; Corrupt = %d", x.Len(), len(model), x.Stats().Corrupt)
	}
	checkTowers(t, x)
}

// checkFinger seeks key twice from the state x is in — as the index
// would, from the finger where it applies, and from the head with the
// finger dropped — and fails unless both walks end alike: the same
// result, pred, succ, finger key and successor key copies. x is left as
// it was.
func checkFinger(t *testing.T, x *Index, key []byte) {
	t.Helper()
	saved := *x
	walk := func() string {
		link, found, ok := x.seek(key)
		w := fmt.Sprintf("link=%#x found=%v ok=%v finger=%v fkey=%q pred=%#x succ=%#x",
			link, found, ok, x.finger, x.fkey.bytes(), x.pred, x.succ)
		for l, next := range x.succ {
			if next != nilPtr {
				w += fmt.Sprintf(" skey[%d]=%q", l, x.skey[l].bytes())
			}
		}
		return w
	}
	viaFinger := walk()
	*x = saved
	x.finger = false
	fromHead := walk()
	*x = saved
	if viaFinger != fromHead {
		t.Fatalf("seek %q with the finger at %q (set %v) disagrees with a head seek\nfinger: %s\nhead:   %s",
			key, saved.fkey.bytes(), saved.finger, viaFinger, fromHead)
	}
}

// checkTowers walks every level from the head: each level's keys must
// ascend strictly and be a subset of the level below. It returns the
// tallest tower.
func checkTowers(t *testing.T, x *Index) int {
	t.Helper()
	below := map[uint64]bool{}
	tallest := 0
	for l := 0; l < MaxLevel; l++ {
		here := map[uint64]bool{}
		head, ok := x.fetch(x.head, 0)
		if !ok {
			t.Fatal("head unreadable")
		}
		prev := []byte(nil)
		for link := nextLink(head, l); link != nilPtr; {
			node, ok := x.fetch(link, 1)
			if !ok {
				t.Fatalf("level %d: corrupt link %#x", l, link)
			}
			if level, _ := linkShape(link); level <= l {
				t.Fatalf("level %d: node of level %d", l, level)
			}
			if prev != nil && bytes.Compare(nodeKey(node), prev) <= 0 {
				t.Fatalf("level %d: %q after %q", l, nodeKey(node), prev)
			}
			if l > 0 && !below[link] {
				t.Fatalf("level %d: %q missing from level %d", l, nodeKey(node), l-1)
			}
			here[link], tallest = true, l+1
			prev = append(prev[:0:0], nodeKey(node)...)
			link = nextLink(node, l)
		}
		below = here
	}
	return tallest
}

// orderedSeeds are FuzzOrderedIndex's seed inputs: every key id inserted
// (tall towers), then deletes, probes and visits; a delete and re-insert
// of one key amid its neighbours; the empty key; and ascending runs
// spread across the list, the shape of the benchmark's preload.
func orderedSeeds() [][]byte {
	var all []byte
	for i := 0; i < 256; i++ {
		all = append(all, 0, byte(i*37))
	}
	for i := 0; i < 256; i += 3 {
		all = append(all, 1, byte(i))
	}
	for i := 0; i < 64; i++ {
		all = append(all, 2, byte(i*5), byte(3+i*4), byte(i*11))
	}
	var reinsert []byte
	for i := 40; i < 60; i++ {
		reinsert = append(reinsert, 0, byte(i))
	}
	reinsert = append(reinsert, 1, 50, 2, 50, 0, 50, 2, 50, 3+4*25, 45, 1, 50, 3+4*25, 0)
	return [][]byte{all, reinsert, {0, 0, 0, 1, 3, 0, 1, 0, 3, 0}, ascendingRuns()}
}

// ascendingRuns inserts all 256 keys in 16 runs, run r taking every 16th
// key in key order from the r-th, so each run ascends across the whole
// list as a preload chunk does; then probes and visits every 8th key and
// deletes every 5th, all in ascending order.
func ascendingRuns() []byte {
	order := make([]byte, 256) // key ids in key order
	for i := range order {
		order[i] = byte(i)
	}
	sort.Slice(order, func(i, j int) bool { return bytes.Compare(fuzzKey(order[i]), fuzzKey(order[j])) < 0 })
	var ops []byte
	for r := 0; r < 16; r++ {
		for i := r; i < 256; i += 16 {
			ops = append(ops, 0, order[i])
		}
	}
	for i := 0; i < 256; i += 8 {
		ops = append(ops, 2, order[i], 3+4*2, order[i])
	}
	for i := 0; i < 256; i += 5 {
		ops = append(ops, 1, order[i])
	}
	return ops
}

// TestOrderedSeedsBuildTallTowers keeps FuzzOrderedIndex's first seed
// tall enough to exercise the upper levels.
func TestOrderedSeedsBuildTallTowers(t *testing.T) {
	x, _ := newTestIndex(t, 11)
	runOrderedOps(t, x, orderedSeeds()[0][:512]) // the 256 inserts alone
	if tallest := checkTowers(t, x); tallest < 4 {
		t.Fatalf("tallest tower %d, want >= 4", tallest)
	}
}

// FuzzOrderedIndex drives decoded op sequences against a sorted-set
// model and checks every level's chain once they are done.
func FuzzOrderedIndex(f *testing.F) {
	for _, seed := range orderedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, _ := newTestIndex(t, 11)
		runOrderedOps(t, x, data)
	})
}

// recorder notes the address of every read.
type recorder struct {
	memory.Engine
	reads []uint64
}

func (r *recorder) Read(addr uint64, buf []byte) {
	r.reads = append(r.reads, addr)
	r.Engine.Read(addr, buf)
}

// newFingerIndex returns an index holding k000..k099, inserted in
// ascending order, over a recorder.
func newFingerIndex(t *testing.T) (*Index, *recorder, *memory.Memory) {
	t.Helper()
	mem := memory.New(1 << 20)
	t.Cleanup(mem.Release)
	rec := &recorder{Engine: mem}
	x, err := New(rec, slab.New(memory.Partition{Size: 1 << 20}, slab.Options{}), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := x.Insert(fingerKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	return x, rec, mem
}

func fingerKey(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }

// TestOrderedFingerHeadPath: a seek for a key above the finger's starts
// from the finger and reads neither the head nor more than a head seek
// would; a seek for a key at or below it starts from the head; and one
// whose successor the finger already holds reads nothing.
func TestOrderedFingerHeadPath(t *testing.T) {
	x, rec, _ := newFingerIndex(t)
	head := linkAddr(x.head)
	seek := func(i int) []uint64 {
		t.Helper()
		rec.reads = rec.reads[:0]
		if _, found, ok := x.seek(fingerKey(i)); !found || !ok {
			t.Fatalf("k%03d: found=%v ok=%v", i, found, ok)
		}
		return append([]uint64(nil), rec.reads...)
	}
	seek(50)
	for _, i := range []int{50, 30} {
		if reads := seek(i); len(reads) == 0 || reads[0] != head {
			t.Errorf("k%03d after k050: reads %#x, want a walk from the head %#x", i, reads, head)
		}
	}
	fromHead := len(seek(90))
	seek(50)
	reads := seek(90)
	if slices.Contains(reads, head) || len(reads) > fromHead {
		t.Errorf("k090 after k050: reads %#x, want no head read and at most the head walk's %d", reads, fromHead)
	}
	// A create leaves succ as it was, so a seek for the key after it
	// settles every level from the finger.
	if _, err := x.Insert([]byte("k090a")); err != nil {
		t.Fatal(err)
	}
	if reads := seek(91); len(reads) != 0 {
		t.Errorf("k091 right after creating k090a: reads %#x, want none", reads)
	}
}

// TestOrderedFingerDropped: Delete, a failed node allocation and a
// corrupt walk each drop the finger, and the next seek goes from the
// head.
func TestOrderedFingerDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(t *testing.T, x *Index, mem *memory.Memory)
	}{
		{"Delete", func(t *testing.T, x *Index, _ *memory.Memory) {
			x.seek(fingerKey(40))
			if !x.Delete(fingerKey(50)) {
				t.Fatal("k050 not deleted")
			}
		}},
		{"failed allocation", func(t *testing.T, x *Index, _ *memory.Memory) {
			x.alloc = slab.New(memory.Partition{Base: x.slabs.End(), Size: 0}, slab.Options{})
			if _, err := x.Insert(fingerKey(100)); err == nil {
				t.Fatal("insert into an empty region succeeded")
			}
		}},
		{"corrupt walk", func(t *testing.T, x *Index, mem *memory.Memory) {
			victim, _, _ := x.seek(fingerKey(50))
			var word [ptrBytes]byte
			putU64(word[:], makeLink(x.slabs.End(), 1, 4))
			mem.Poke(linkAddr(victim)+headerBytes, word[:])
			if _, err := x.Insert([]byte("k050a")); err != ErrCorrupt {
				t.Fatalf("insert across the damage: %v, want ErrCorrupt", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, rec, mem := newFingerIndex(t)
			tc.op(t, x, mem)
			if x.finger {
				t.Fatal("the finger survived")
			}
			rec.reads = rec.reads[:0]
			if !x.Contains(fingerKey(99)) {
				t.Fatal("k099 not found")
			}
			if len(rec.reads) == 0 || rec.reads[0] != linkAddr(x.head) {
				t.Fatalf("the next seek read %#x first, want the head", rec.reads)
			}
		})
	}
}

// TestOrderedFingerPokedSuccessor damages the node a finger seek resumes
// from — its header, or its key — and demands that the seek reports the
// damage once, drops the finger and leaves the index unchanged.
func TestOrderedFingerPokedSuccessor(t *testing.T) {
	for _, tc := range []struct {
		name string
		poke func(node []byte) // node: the fetched node, poked in place
	}{
		{"wrong header", func(node []byte) { node[1]++ }},
		{"wrong key", func(node []byte) { node[len(node)-1]-- }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, _, mem := newFingerIndex(t)
			x.seek(fingerKey(20))
			sought := []byte("k040a")
			top := 0
			for x.succ[top] != nilPtr && bytes.Compare(x.skey[top].bytes(), sought) < 0 {
				top++
			}
			if top == 0 {
				t.Fatal("the seek would not resume from a successor")
			}
			resume := x.succ[top-1]
			node := make([]byte, nodeSize(linkShape(resume)))
			mem.Peek(linkAddr(resume), node)
			tc.poke(node)
			mem.Poke(linkAddr(resume), node)

			before := x.Stats().Corrupt
			if _, err := x.Insert(sought); err != ErrCorrupt {
				t.Fatalf("Insert: %v, want ErrCorrupt", err)
			}
			if got := x.Stats().Corrupt; got != before+1 {
				t.Errorf("Corrupt %d -> %d, want one more", before, got)
			}
			if x.finger {
				t.Error("the finger survived")
			}
			if x.Len() != 100 {
				t.Errorf("Len = %d, want 100", x.Len())
			}
		})
	}
}
