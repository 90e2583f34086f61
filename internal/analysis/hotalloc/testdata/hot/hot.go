// Fixture for //kvd:hotpath allocation detection.
package hot

import "fmt"

type entry struct {
	key []byte
	val []byte
}

type table struct {
	slots []entry
	stats map[string]uint64
}

func sink(v interface{}) { _ = v }

//kvd:hotpath
func (t *table) lookup(key []byte) []byte {
	for i := range t.slots {
		if string(t.slots[i].key) == string(key) { // want "conversion to string copies the bytes" "conversion to string copies the bytes"
			return t.slots[i].val
		}
	}
	e := &entry{key: key} // want "address of composite literal escapes to the heap"
	_ = e
	buf := make([]byte, 8)    // want "make allocates"
	buf = append(buf, key...) // want "append may grow and reallocate its backing array"
	_ = buf
	p := new(entry) // want "new allocates"
	_ = p
	m := map[string]int{} // want "map literal allocates"
	_ = m
	for k := range t.stats { // want "map iteration allocates its iterator"
		_ = k
	}
	fmt.Sprintf("key=%x", key) // want "hot path allocates: fmt.Sprintf allocates its formatted output"
	sink(42)                   // this literal is a constant: no boxing report
	n := len(key)
	sink(n)                        // want "argument boxes a int into an interface parameter"
	cb := func() { t.slots = nil } // want "function literal allocates a closure"
	_ = cb
	go t.compact() // want "go statement allocates a goroutine"
	return nil
}

// grow allocates; it is not annotated, so its body stays silent but
// hot-path callers see it through the transitive summary.
func (t *table) grow() {
	t.slots = append(t.slots, entry{})
}

//kvd:hotpath
func (t *table) insert(key, val []byte) {
	t.grow() // want "call to table.grow allocates \\(append may grow and reallocate its backing array\\)"
}

// compact is unannotated: nothing in here is reported.
func (t *table) compact() {
	b := make([]byte, 0, 64)
	_ = fmt.Sprintf("%d", len(b))
}

//kvd:hotpath
func (t *table) allowedAlloc() *entry {
	return &entry{} //lint:allow hotalloc -- fixture: deliberate per-op allocation, documented
}
