package ordered

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

// TestOrderedCorruptLinkEndsWalk damages one level-0 link four ways — a
// cycle back to a smaller key, a target outside the slab region, a level
// no tower has, and a target whose header disagrees with the link — and
// demands that every
// operation whose walk crosses it returns within a small read budget,
// reports the damage (ErrCorrupt from Insert and Visit, false from
// Delete and Contains) and counts it.
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
// (tall towers), then deletes, probes and visits; and a delete and
// re-insert of one key amid its neighbours.
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
	return [][]byte{all, reinsert, {0, 0, 0, 1, 3, 0, 1, 0, 3, 0}}
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
