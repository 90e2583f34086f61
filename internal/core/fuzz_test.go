package core

import (
	"bytes"
	"fmt"
	"testing"
)

// pairs returns every key/value pair a store holds.
func pairs(s *Store) map[string]string {
	out := map[string]string{}
	s.Walk(func(key, value []byte) bool {
		out[string(key)] = string(value)
		return true
	})
	return out
}

// FuzzStoreLoad drives the snapshot loader — the decoder every catch-up
// path (backup snapshot fallback, migration) feeds — with arbitrary
// bytes. Load must never panic, and a stream it accepts must leave a
// store whose own Dump loads into a fresh store holding the same pairs.
// Dump follows hash-walk order, so the property is on the pair set, not
// on bytes.
func FuzzStoreLoad(f *testing.F) {
	seed, err := NewStore(Config{MemoryBytes: 256 << 10, Seed: 42})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 70; i++ { // past one 64-op packet, so the seed has two frames
		k := fmt.Sprintf("seed-%02d", i)
		if err := seed.Put([]byte(k), bytes.Repeat([]byte{byte(i)}, i*3)); err != nil {
			f.Fatal(err)
		}
	}
	var dump bytes.Buffer
	if _, err := seed.Dump(&dump); err != nil {
		f.Fatal(err)
	}
	seed.Close()
	f.Add(dump.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Add(dump.Bytes()[:dump.Len()/2])

	f.Fuzz(func(t *testing.T, in []byte) {
		fresh := func() *Store {
			s, err := NewStore(Config{MemoryBytes: 256 << 10, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			return s
		}
		loaded := fresh()
		if _, err := loaded.Load(bytes.NewReader(in)); err != nil {
			return
		}
		var re bytes.Buffer
		if _, err := loaded.Dump(&re); err != nil {
			t.Fatalf("dump of an accepted stream: %v", err)
		}
		again := fresh()
		if _, err := again.Load(&re); err != nil {
			t.Fatalf("a store's own dump was rejected: %v", err)
		}
		want, got := pairs(loaded), pairs(again)
		if len(want) != len(got) {
			t.Fatalf("reloaded store holds %d pairs, the loaded one %d", len(got), len(want))
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Fatalf("key %q: reloaded %q (present %v), loaded %q", k, gv, ok, v)
			}
		}
	})
}
