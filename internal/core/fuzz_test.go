package core

import (
	"bytes"
	"fmt"
	"sort"
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

// FuzzScanBuild differential-tests the ordered index a store builds on its
// first scan. The input decodes three bytes an op — opcode, key id,
// argument — into PUTs (creates and overwrites, synchronous and
// pipelined, inline and slab-held), DELETEs and Scan(start, limit) calls,
// applied to a store and to a map. Every page, the build scan's and every
// later one's, must equal the map's sorted range, cursor included, and
// once built the index must hold exactly the table's keys.
func FuzzScanBuild(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 90, 1, 3, 7, 6, 0x80, 4, 0, 4, 1, 4, 1, 0, 7, 2, 3})
	f.Add([]byte{3, 9, 200, 3, 8, 1, 6, 8, 2, 5, 9, 0, 0, 10, 30, 7, 0x81, 12, 2, 7, 7, 6, 7, 1})
	f.Add([]byte{6, 0x80, 1, 0, 5, 5, 1, 6, 6, 6, 0x80, 11, 5, 5, 0, 7, 6, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := NewStore(Config{MemoryBytes: 256 << 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		key := func(id byte) []byte { return []byte(fmt.Sprintf("%s%02d", "kkk"[:1+id%3], id%48)) }
		model := map[string][]byte{}
		for i := 0; i+2 < len(in); i += 3 {
			op, id, arg := in[i]%8, in[i+1], in[i+2]
			k := key(id)
			switch {
			case op < 4:
				v := bytes.Repeat([]byte{arg}, int(arg)%7+int(arg)/64*70) // 0-6 B inline, up to 216 B in a slab
				if op == 3 {
					s.SubmitPut(k, v, nil)
				} else if err := s.Put(k, v); err != nil {
					t.Fatalf("op %d: Put: %v", i/3, err)
				}
				model[string(k)] = v
			case op < 6:
				_, want := model[string(k)]
				if got := s.Delete(k); got != want {
					t.Fatalf("op %d: Delete(%q) = %v, want %v", i/3, k, got, want)
				}
				delete(model, string(k))
			default:
				var start []byte
				if id&0x80 == 0 {
					start = k
				}
				limit := 1 + int(arg)%12
				entries, cursor, err := s.Scan(start, limit)
				if err != nil {
					t.Fatalf("op %d: Scan: %v", i/3, err)
				}
				var keys []string
				for mk := range model {
					if mk >= string(start) {
						keys = append(keys, mk)
					}
				}
				sort.Strings(keys)
				var wantCursor []byte
				if len(keys) > limit {
					keys, wantCursor = keys[:limit], []byte(keys[limit])
				}
				if len(entries) != len(keys) || !bytes.Equal(cursor, wantCursor) {
					t.Fatalf("op %d: Scan(%q, %d) = %d entries, cursor %q; want %d, %q",
						i/3, start, limit, len(entries), cursor, len(keys), wantCursor)
				}
				for j, e := range entries {
					if string(e.Key) != keys[j] || !bytes.Equal(e.Value, model[keys[j]]) {
						t.Fatalf("op %d: entry %d = %q=%q, want %q=%q", i/3, j, e.Key, e.Value, keys[j], model[keys[j]])
					}
				}
				if st := s.Stats(); st.Ordered.Keys != st.Keys {
					t.Fatalf("op %d: index holds %d keys, table %d", i/3, st.Ordered.Keys, st.Keys)
				}
			}
		}
	})
}
