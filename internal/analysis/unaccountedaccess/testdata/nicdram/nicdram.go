// Fixture impersonating kvdirect/internal/nicdram: only lineData may
// window into the cache's backing array.
package nicdram

const LineBytes = 64

type Cache struct {
	data []byte
}

func (c *Cache) lineData(slot int) []byte {
	return c.data[slot*LineBytes : (slot+1)*LineBytes]
}

func (c *Cache) readByte(off int) byte {
	return c.data[off] // want "raw access to Cache.data"
}

// Release is allowlisted: it empties the array before unmapping it.
func (c *Cache) Release() {
	data := c.data
	c.data = nil
	_ = data
}

// Flush is an entry point, not an accessor: it must window through
// lineData, and emptying the array is Release's alone.
func (c *Cache) Flush() {
	c.data = c.data[:0] // want "raw access to Cache.data" "raw access to Cache.data"
}
