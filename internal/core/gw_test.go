package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kvdirect/internal/dispatch"
	"kvdirect/internal/memory"
	"kvdirect/internal/nicdram"
	"kvdirect/internal/wire"
)

func gwStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func putVer(t *testing.T, s *Store, key string, mode wire.PutVerMode,
	expect uint64, flags uint32, payload string) wire.Response {
	t.Helper()
	param, err := wire.EncodePutVerParam(mode, expect)
	if err != nil {
		t.Fatal(err)
	}
	var val []byte
	if mode != wire.PutVerDelete {
		val, err = wire.EncodeGwValue(flags, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
	}
	return s.Apply(wire.Request{Code: wire.OpPutVer, Key: []byte(key), Value: val, Param: param})
}

func putVerOK(t *testing.T, s *Store, key string, mode wire.PutVerMode,
	expect uint64, flags uint32, payload string) (version uint64, existed bool, oldLen int) {
	t.Helper()
	resp := putVer(t, s, key, mode, expect, flags, payload)
	if resp.Status != wire.StatusOK {
		t.Fatalf("%v %q: status %v (%q)", mode, key, resp.Status, resp.Value)
	}
	version, existed, oldLen, err := wire.DecodePutVerReply(resp.Value)
	if err != nil {
		t.Fatal(err)
	}
	return version, existed, oldLen
}

func counterVer(t *testing.T, s *Store, key string, sub uint8,
	delta, initial uint64, create bool) wire.Response {
	t.Helper()
	param, err := wire.EncodeCounterParam(sub, delta, initial, create)
	if err != nil {
		t.Fatal(err)
	}
	return s.Apply(wire.Request{Code: wire.OpCounterVer, Key: []byte(key), Param: param})
}

func TestPutVerSetBumpsVersion(t *testing.T) {
	s := gwStore(t)
	ver, existed, _ := putVerOK(t, s, "k", wire.PutVerSet, 0, 7, "one")
	if ver != 1 || existed {
		t.Fatalf("first set gave ver=%d existed=%v", ver, existed)
	}
	ver, existed, oldLen := putVerOK(t, s, "k", wire.PutVerSet, 0, 9, "two!")
	if ver != 2 || !existed {
		t.Fatalf("second set gave ver=%d existed=%v", ver, existed)
	}
	if oldLen != wire.GwItemOverhead+3 {
		t.Fatalf("oldLen = %d", oldLen)
	}
	stored, ok := s.Get([]byte("k"))
	if !ok {
		t.Fatal("key missing")
	}
	it := wire.DecodeGwItem(stored)
	if it.Version != 2 || it.Flags != 9 || string(it.Payload) != "two!" {
		t.Fatalf("stored item %+v", it)
	}
}

func TestPutVerAddReplace(t *testing.T) {
	s := gwStore(t)
	if resp := putVer(t, s, "k", wire.PutVerReplace, 0, 0, "x"); resp.Status != wire.StatusNotFound {
		t.Fatalf("replace of missing key: %v", resp.Status)
	}
	putVerOK(t, s, "k", wire.PutVerAdd, 0, 0, "x")
	if resp := putVer(t, s, "k", wire.PutVerAdd, 0, 0, "y"); resp.Status != wire.StatusExists {
		t.Fatalf("add over existing key: %v", resp.Status)
	}
	ver, _, _ := putVerOK(t, s, "k", wire.PutVerReplace, 0, 0, "y")
	if ver != 2 {
		t.Fatalf("replace version %d", ver)
	}
}

func TestPutVerCAS(t *testing.T) {
	s := gwStore(t)
	if resp := putVer(t, s, "k", wire.PutVerCAS, 1, 0, "x"); resp.Status != wire.StatusNotFound {
		t.Fatalf("cas on missing key: %v", resp.Status)
	}
	ver, _, _ := putVerOK(t, s, "k", wire.PutVerSet, 0, 0, "x")
	if resp := putVer(t, s, "k", wire.PutVerCAS, ver+1, 0, "y"); resp.Status != wire.StatusExists {
		t.Fatalf("cas with stale token: %v", resp.Status)
	}
	ver2, _, _ := putVerOK(t, s, "k", wire.PutVerCAS, ver, 0, "y")
	if ver2 != ver+1 {
		t.Fatalf("cas bumped to %d", ver2)
	}
	// A native (headerless) value reads as version 0, which no live
	// token can match — but an unconditional SET takes it over.
	if err := s.Put([]byte("native"), []byte("raw")); err != nil {
		t.Fatal(err)
	}
	if resp := putVer(t, s, "native", wire.PutVerCAS, 1, 0, "y"); resp.Status != wire.StatusExists {
		t.Fatalf("cas over native value: %v", resp.Status)
	}
	ver, existed, _ := putVerOK(t, s, "native", wire.PutVerSet, 0, 0, "gw")
	if ver != 1 || !existed {
		t.Fatalf("set over native value gave ver=%d existed=%v", ver, existed)
	}
}

func TestPutVerAppendPrepend(t *testing.T) {
	s := gwStore(t)
	if resp := putVer(t, s, "k", wire.PutVerAppend, 0, 0, "x"); resp.Status != wire.StatusNotStored {
		t.Fatalf("append to missing key: %v", resp.Status)
	}
	if resp := putVer(t, s, "k", wire.PutVerPrepend, 0, 0, "x"); resp.Status != wire.StatusNotStored {
		t.Fatalf("prepend to missing key: %v", resp.Status)
	}
	putVerOK(t, s, "k", wire.PutVerSet, 0, 42, "mid")
	putVerOK(t, s, "k", wire.PutVerAppend, 0, 0, "-end")
	putVerOK(t, s, "k", wire.PutVerPrepend, 0, 0, "start-")
	stored, _ := s.Get([]byte("k"))
	it := wire.DecodeGwItem(stored)
	if string(it.Payload) != "start-mid-end" || it.Flags != 42 || it.Version != 3 {
		t.Fatalf("after append/prepend: %+v", it)
	}
	// Version-conditioned append with a stale token fails.
	if resp := putVer(t, s, "k", wire.PutVerAppend, 1, 0, "!"); resp.Status != wire.StatusExists {
		t.Fatalf("stale conditional append: %v", resp.Status)
	}
}

func TestPutVerDelete(t *testing.T) {
	s := gwStore(t)
	if resp := putVer(t, s, "k", wire.PutVerDelete, 0, 0, ""); resp.Status != wire.StatusNotFound {
		t.Fatalf("delete of missing key: %v", resp.Status)
	}
	putVerOK(t, s, "k", wire.PutVerSet, 0, 0, "x")
	if resp := putVer(t, s, "k", wire.PutVerDelete, 5, 0, ""); resp.Status != wire.StatusExists {
		t.Fatalf("conditional delete with stale token: %v", resp.Status)
	}
	ver, existed, oldLen := putVerOK(t, s, "k", wire.PutVerDelete, 1, 0, "")
	if ver != 1 || !existed || oldLen != wire.GwItemOverhead+1 {
		t.Fatalf("delete reply ver=%d existed=%v oldLen=%d", ver, existed, oldLen)
	}
	if _, ok := s.Get([]byte("k")); ok {
		t.Fatal("key survived delete")
	}
}

func TestPutVerBadInputs(t *testing.T) {
	s := gwStore(t)
	resp := s.Apply(wire.Request{Code: wire.OpPutVer, Key: []byte("k"), Param: []byte{1}})
	if resp.Status != wire.StatusError {
		t.Fatalf("short param: %v", resp.Status)
	}
	param, _ := wire.EncodePutVerParam(wire.PutVerSet, 0)
	resp = s.Apply(wire.Request{Code: wire.OpPutVer, Key: []byte("k"), Value: []byte{1}, Param: param})
	if resp.Status != wire.StatusError {
		t.Fatalf("short value: %v", resp.Status)
	}
	// An append that would grow the payload past the wire cap is Full.
	big := bytes.Repeat([]byte{'a'}, wire.MaxGwPayload)
	val, err := wire.EncodeGwValue(0, big)
	if err != nil {
		t.Fatal(err)
	}
	if resp = s.Apply(wire.Request{Code: wire.OpPutVer, Key: []byte("big"), Value: val, Param: param}); resp.Status != wire.StatusOK {
		t.Fatalf("max-size set: %v (%q)", resp.Status, resp.Value)
	}
	if resp = putVer(t, s, "big", wire.PutVerAppend, 0, 0, "x"); resp.Status != wire.StatusFull {
		t.Fatalf("overflow append: %v", resp.Status)
	}
}

func TestCounterVerSemantics(t *testing.T) {
	s := gwStore(t)
	// No create: missing key is NotFound.
	if resp := counterVer(t, s, "n", wire.CounterIncr, 1, 0, false); resp.Status != wire.StatusNotFound {
		t.Fatalf("incr no-create: %v", resp.Status)
	}
	// Vivify with initial value; delta is NOT applied on create.
	resp := counterVer(t, s, "n", wire.CounterIncr, 5, 100, true)
	if resp.Status != wire.StatusOK {
		t.Fatalf("vivify: %v", resp.Status)
	}
	val, ver, err := wire.DecodeCounterReply(resp.Value)
	if err != nil || val != 100 || ver != 1 {
		t.Fatalf("vivify reply %d/%d (%v)", val, ver, err)
	}
	// Increment applies the delta and bumps the version.
	resp = counterVer(t, s, "n", wire.CounterIncr, 5, 0, true)
	val, ver, _ = wire.DecodeCounterReply(resp.Value)
	if val != 105 || ver != 2 {
		t.Fatalf("incr reply %d/%d", val, ver)
	}
	// Decrement clamps at zero.
	resp = counterVer(t, s, "n", wire.CounterDecr, 1000, 0, true)
	val, ver, _ = wire.DecodeCounterReply(resp.Value)
	if val != 0 || ver != 3 {
		t.Fatalf("decr clamp reply %d/%d", val, ver)
	}
	// Stored representation is ASCII decimal and readable via GET.
	stored, _ := s.Get([]byte("n"))
	it := wire.DecodeGwItem(stored)
	if string(it.Payload) != "0" {
		t.Fatalf("stored counter %q", it.Payload)
	}
	// Non-numeric payload is BadDelta.
	putVerOK(t, s, "text", wire.PutVerSet, 0, 0, "hello")
	if resp := counterVer(t, s, "text", wire.CounterIncr, 1, 0, true); resp.Status != wire.StatusBadDelta {
		t.Fatalf("incr on text: %v", resp.Status)
	}
	// Flags survive counter updates.
	putVerOK(t, s, "f", wire.PutVerSet, 0, 77, "10")
	if r := counterVer(t, s, "f", wire.CounterIncr, 1, 0, true); r.Status != wire.StatusOK {
		t.Fatalf("incr on flagged counter: %v", r.Status)
	}
	stored, _ = s.Get([]byte("f"))
	if it := wire.DecodeGwItem(stored); it.Flags != 77 || string(it.Payload) != "11" {
		t.Fatalf("counter flags/value %+v", it)
	}
}

func TestCounterVerWraps(t *testing.T) {
	s := gwStore(t)
	max := ^uint64(0)
	putVerOK(t, s, "n", wire.PutVerSet, 0, 0, "18446744073709551615")
	resp := counterVer(t, s, "n", wire.CounterIncr, 2, 0, false)
	val, _, _ := wire.DecodeCounterReply(resp.Value)
	if val != 1 {
		t.Fatalf("wrap gave %d (max=%d)", val, max)
	}
	// Overflowing stored decimal (21 digits) is rejected as BadDelta.
	putVerOK(t, s, "big", wire.PutVerSet, 0, 0, "184467440737095516160")
	if resp := counterVer(t, s, "big", wire.CounterIncr, 1, 0, false); resp.Status != wire.StatusBadDelta {
		t.Fatalf("overflowing stored decimal: %v", resp.Status)
	}
}

// TestGwDeterministicVersions re-applies the same op log to a second
// store and requires byte-identical state — the property kvrepl backup
// replay depends on.
func TestGwDeterministicVersions(t *testing.T) {
	a, b := gwStore(t), gwStore(t)
	setP, _ := wire.EncodePutVerParam(wire.PutVerSet, 0)
	appP, _ := wire.EncodePutVerParam(wire.PutVerAppend, 0)
	incrP, _ := wire.EncodeCounterParam(wire.CounterIncr, 3, 7, true)
	v1, _ := wire.EncodeGwValue(1, []byte("alpha"))
	v2, _ := wire.EncodeGwValue(0, []byte("-beta"))
	log := []wire.Request{
		{Code: wire.OpPutVer, Key: []byte("k"), Value: v1, Param: setP},
		{Code: wire.OpPutVer, Key: []byte("k"), Value: v2, Param: appP},
		{Code: wire.OpCounterVer, Key: []byte("c"), Param: incrP},
		{Code: wire.OpCounterVer, Key: []byte("c"), Param: incrP},
	}
	ra := a.ApplyBatch(log)
	rb := b.ApplyBatch(log)
	for i := range ra {
		if ra[i].Status != rb[i].Status || !bytes.Equal(ra[i].Value, rb[i].Value) {
			t.Fatalf("op %d diverged: %+v vs %+v", i, ra[i], rb[i])
		}
	}
	for _, key := range []string{"k", "c"} {
		va, _ := a.Get([]byte(key))
		vb, _ := b.Get([]byte(key))
		if !bytes.Equal(va, vb) {
			t.Fatalf("stored %q diverged: %x vs %x", key, va, vb)
		}
	}
}

// TestGatewayWriteIsOneWalk holds a gateway write on an existing key to
// the charge of the native write it amounts to: a PutVer or CounterVer
// that stores an item costs what a PUT of the same bytes costs, and a
// PutVer DELETE what a DELETE costs — one table walk, no read ahead of
// it. Two stores are built identically; one runs the gateway op, the
// other the native one, and their host memory, NIC DRAM and dispatcher
// counters must move alike. The item sits in slab memory under the
// default config and inline in its bucket under the second.
func TestGatewayWriteIsOneWalk(t *testing.T) {
	type charge struct {
		mem   memory.Stats
		cache nicdram.Stats
		disp  dispatch.Stats
	}
	measure := func(s *Store, op func()) charge {
		before := s.Stats()
		op()
		after := s.Stats()
		return charge{after.Mem.Sub(before.Mem), after.Cache.Sub(before.Cache),
			after.Dispatch.Sub(before.Dispatch)}
	}
	const key = "item"
	for _, cfg := range []Config{
		{MemoryBytes: 8 << 20, Seed: 7},
		{MemoryBytes: 8 << 20, Seed: 7, InlineThreshold: 40},
	} {
		build := func() *Store {
			s, err := NewStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			for i := 0; i < 200; i++ {
				putVerOK(t, s, fmt.Sprintf("n-%03d", i), wire.PutVerSet, 0, 0, strings.Repeat("x", i))
			}
			putVerOK(t, s, key, wire.PutVerSet, 0, 3, "41") // version 1
			return s
		}
		for _, c := range []struct {
			name  string
			apply func(s *Store) wire.Response
		}{
			{"SET", func(s *Store) wire.Response { return putVer(t, s, key, wire.PutVerSet, 0, 5, "42") }},
			{"CAS", func(s *Store) wire.Response { return putVer(t, s, key, wire.PutVerCAS, 1, 5, "42") }},
			{"APPEND", func(s *Store) wire.Response { return putVer(t, s, key, wire.PutVerAppend, 0, 0, "0") }},
			{"INCR", func(s *Store) wire.Response { return counterVer(t, s, key, wire.CounterIncr, 1, 0, false) }},
			{"DELETE", func(s *Store) wire.Response { return putVer(t, s, key, wire.PutVerDelete, 1, 0, "") }},
		} {
			gw, native := build(), build()
			var resp wire.Response
			got := measure(gw, func() { resp = c.apply(gw) })
			if resp.Status != wire.StatusOK {
				t.Fatalf("%s: status %d %q", c.name, resp.Status, resp.Value)
			}
			var want charge
			if stored, ok := gw.Get([]byte(key)); ok {
				want = measure(native, func() { mustPut(t, native, []byte(key), stored) })
			} else {
				want = measure(native, func() {
					if !native.Delete([]byte(key)) {
						t.Fatal("native DELETE missed")
					}
				})
			}
			if got != want {
				t.Errorf("inline threshold %d, %s: the gateway write charged %+v, the native write %+v",
					cfg.InlineThreshold, c.name, got, want)
			}
		}
	}
}
