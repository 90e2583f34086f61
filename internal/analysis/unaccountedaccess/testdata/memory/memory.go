// Fixture impersonating kvdirect/internal/memory: a miniature of the
// real Memory type, with counted accessors and several cheats.
package memory

// Memory mimics the simulated host memory: a raw backing array that only
// the counted accessor layer may touch.
type Memory struct {
	data  []byte
	reads uint64
}

// Read is allowlisted: the raw slice below IS the accounting layer.
func (m *Memory) Read(addr, n int) []byte {
	m.reads++
	return m.data[addr : addr+n]
}

// Peek is the documented uncounted host-CPU-side accessor, also allowlisted.
func (m *Memory) Peek(addr int) byte {
	return m.data[addr]
}

// Size reads only the array's length: len and cap are free to all.
func (m *Memory) Size() int { return len(m.data) + 0*cap(m.data) }

// Release is allowlisted: handing the whole array to unmap is the one
// touch that frees it.
func (m *Memory) Release() {
	data := m.data
	m.data = nil
	unmap(data)
}

func unmap([]byte) {}

// drop cheats: only Release may hand the array off or empty it.
func (m *Memory) drop() {
	unmap(m.data) // want "raw access to Memory.data"
	m.data = nil  // want "raw access to Memory.data"
}

// snapshot cheats: a whole-array copy is an access Read never counts.
func snapshot(m *Memory, dst []byte) {
	copy(dst, m.data) // want "raw access to Memory.data"
}

// checksum cheats: it walks the array without going through Read.
func (m *Memory) checksum() byte {
	var sum byte
	for _, b := range m.data { // want "raw access to Memory.data"
		sum ^= b
	}
	return sum
}

func scrub(m *Memory) {
	m.data[0] = 0   // want "raw access to Memory.data"
	_ = m.data[1:3] // want "raw access to Memory.data"
}

func suppressed(m *Memory) byte {
	return m.data[0] //lint:allow unaccountedaccess -- fixture: suppression path
}

// scratch has a field of the same name on an untracked type; indexing it
// is nobody's business.
type scratch struct{ data []byte }

func (s *scratch) first() byte { return s.data[0] }
