package kvnet_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// TestBackendContract holds every kvnet.Backend to the one contract the
// serving seam states: the plain store backend, a replica group of one
// (what kvdserver runs by default) and the primary of a replicated
// group. The same batch and span go in; out come (a) span counts equal
// to the store's own counter deltas, (b) one latency observation per op,
// (c) a panicking op answered as that op's error with its neighbours
// intact, (d) nothing retained — the caller scribbles over reqs and
// the bytes they point to after the return, as a connection's recycled
// frame does, and every copy of the data still reads the original —
// (e) concurrent callers served whole, the backend serializing itself,
// and (f) the answers written over the caller's response scratch, in
// place when it is large enough.
func TestBackendContract(t *testing.T) {
	cfg := kvdirect.Config{MemoryBytes: 8 << 20}
	// An implementer under test: the backend, the registry it records
	// into, every store that ends up holding its writes (the one it
	// applies to first), and a wait for the others to have caught up.
	type opened struct {
		backend kvnet.Backend
		tel     *telemetry.Registry
		stores  []*kvdirect.Store
		settle  func(*testing.T)
	}
	group := func(n int) func(*testing.T) opened {
		return func(t *testing.T) opened {
			coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{})
			t.Cleanup(coord.Close)
			g, err := kvrepl.StartGroup(coord, 0, n, cfg, kvrepl.Options{HeartbeatEvery: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = g.Close() })
			prim := g.Primary()
			if prim == nil {
				t.Fatal("no primary")
			}
			o := opened{backend: prim, tel: prim.Telemetry(), stores: []*kvdirect.Store{prim.Store()}}
			for _, r := range g.Replicas {
				if r != prim {
					o.stores = append(o.stores, r.Store())
				}
			}
			o.settle = func(t *testing.T) {
				deadline := time.Now().Add(5 * time.Second)
				for _, r := range g.Replicas {
					for r.LastApplied() != prim.LastApplied() {
						if time.Now().After(deadline) {
							t.Fatalf("replica %d stuck at %d of %d", r.ID(), r.LastApplied(), prim.LastApplied())
						}
						time.Sleep(time.Millisecond)
					}
				}
			}
			return o
		}
	}
	for _, impl := range []struct {
		name string
		open func(*testing.T) opened
	}{
		{"store", func(t *testing.T) opened {
			store, err := kvdirect.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(store.Close)
			tel := telemetry.NewRegistry()
			return opened{kvnet.NewStoreBackend(store, tel), tel, []*kvdirect.Store{store}, func(*testing.T) {}}
		}},
		{"replica-1x1", group(1)},
		{"primary-1x3", group(3)},
	} {
		t.Run(impl.name, func(t *testing.T) {
			o := impl.open(t)
			for _, s := range o.stores {
				s.RegisterUpdateFunc(100, func(e, p uint64) uint64 { return e / (p - p) })
			}
			store, lat := o.stores[0], o.tel.Histogram("server.op_latency_ns")

			frame := []byte("alphaonebetatwoboom")
			reqs := []wire.Request{
				{Code: wire.OpPut, Key: frame[0:5], Value: frame[5:8]},
				{Code: wire.OpUpdateScalar, Key: frame[15:19], FuncID: 100, ElemWidth: 8, Param: make([]byte, 8)},
				{Code: wire.OpPut, Key: frame[8:12], Value: frame[12:15]},
				{Code: wire.OpGet, Key: frame[0:5]},
			}
			before, observed := store.Stats(), lat.Count()
			span := &telemetry.Span{}
			scratch := make([]wire.Response, 1, len(reqs))
			scratch[0] = wire.Response{Status: 0xDB, Value: []byte("stale")}
			resps := o.backend.ApplyBatch(reqs, scratch, span)
			after := store.Stats()
			if len(resps) > 0 && &resps[0] != &scratch[0] {
				t.Error("the answers did not reuse the caller's response scratch")
			}

			if want := (kvdirect.Stats{
				Mem:      after.Mem.Sub(before.Mem),
				Cache:    after.Cache.Sub(before.Cache),
				Dispatch: after.Dispatch.Sub(before.Dispatch),
			}).AccessCounts(); span.Counts != want {
				t.Errorf("span counts %+v != the store's own delta %+v", span.Counts, want)
			}
			if got := lat.Count() - observed; got != uint64(len(reqs)) {
				t.Errorf("%d latency observations for %d ops", got, len(reqs))
			}
			if len(resps) != len(reqs) {
				t.Fatalf("%d responses for %d requests", len(resps), len(reqs))
			}
			if resps[1].Status != wire.StatusError || !strings.Contains(string(resps[1].Value), "panic") {
				t.Errorf("panicking op answered %+v, want its panic as an error", resps[1])
			}
			if o.tel.Counters().Get("server.panics") == 0 {
				t.Error("server.panics did not count the panicking op")
			}
			if resps[0].Status != wire.StatusOK || resps[2].Status != wire.StatusOK ||
				resps[3].Status != wire.StatusOK || string(resps[3].Value) != "one" {
				t.Errorf("the panicking op's neighbours: %+v", resps)
			}

			for i := range frame {
				frame[i] = 'X'
			}
			for i := range reqs {
				reqs[i] = wire.Request{Code: wire.OpDelete, Key: []byte("alpha")}
			}
			for key, want := range map[string]string{"alpha": "one", "beta": "two"} {
				got := o.backend.ApplyBatch([]wire.Request{{Code: wire.OpGet, Key: []byte(key)}}, nil, nil)
				if got[0].Status != wire.StatusOK || string(got[0].Value) != want {
					t.Errorf("GET %s after the caller recycled its buffers: %+v, want %q", key, got[0], want)
				}
			}
			// The panic left the engine whole: a key sharing the λ key's
			// reservation-station slot — the default 1024 slots, indexed
			// by core.keyHash (FNV-1a) — still applies, here and, shipped,
			// on every backup.
			mate := rsSlotMate([]byte("boom"), 1024)
			got := o.backend.ApplyBatch([]wire.Request{
				{Code: wire.OpPut, Key: mate, Value: []byte("mate")},
				{Code: wire.OpGet, Key: mate},
			}, nil, nil)
			if got[0].Status != wire.StatusOK || got[1].Status != wire.StatusOK || string(got[1].Value) != "mate" {
				t.Errorf("PUT+GET %q, which shares the panicking op's slot: %+v", mate, got)
			}
			// The same on the shipping path: what the backups were sent is
			// what the caller passed, not what it scribbled afterwards.
			o.settle(t)
			for i, s := range o.stores {
				if v, ok := s.Get([]byte("beta")); !ok || string(v) != "two" {
					t.Errorf("store %d holds beta=%q (found %v) after the caller recycled its buffers, want \"two\"", i, v, ok)
				}
				if v, ok := s.Get(mate); !ok || string(v) != "mate" {
					t.Errorf("store %d holds %s=%q (found %v), want \"mate\"", i, mate, v, ok)
				}
			}

			// (e) Concurrent callers, as a Server's connections are: the
			// backend serializes itself. Each caller alternates a PUT
			// batch and a GET batch of its own keys, scrapes now and then,
			// and every write reads back afterwards, on every store.
			const callers, batches = 8, 200
			key := func(c, i int) []byte { return fmt.Appendf(nil, "conc-%d-%03d", c, i) }
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < batches; i += 2 {
						k := key(c, i)
						put := o.backend.ApplyBatch([]wire.Request{{Code: wire.OpPut, Key: k, Value: k}}, nil, nil)
						get := o.backend.ApplyBatch([]wire.Request{{Code: wire.OpGet, Key: k}}, nil, nil)
						if put[0].Status != wire.StatusOK || get[0].Status != wire.StatusOK || string(get[0].Value) != string(k) {
							t.Errorf("caller %d: PUT %s answered %+v, GET %+v", c, k, put[0], get[0])
							return
						}
						if i%50 == 0 {
							o.backend.PublishTelemetry()
						}
					}
				}(c)
			}
			wg.Wait()
			o.settle(t)
			for c := 0; c < callers; c++ {
				for i := 0; i < batches; i += 2 {
					k := key(c, i)
					for si, s := range o.stores {
						if v, ok := s.Get(k); !ok || string(v) != string(k) {
							t.Fatalf("store %d holds %s=%q (found %v) after concurrent callers", si, k, v, ok)
						}
					}
				}
			}
			// (d) once more: an alias kept past a return and written
			// later (the scribbled frame, or the next batch's bytes in
			// its place) shows up as a key no caller sent.
			sent := map[string]bool{"alpha": true, "beta": true, string(mate): true}
			for c := 0; c < callers; c++ {
				for i := 0; i < batches; i += 2 {
					sent[string(key(c, i))] = true
				}
			}
			for si, s := range o.stores {
				s.Walk(func(k, _ []byte) bool {
					if !sent[string(k)] {
						t.Errorf("store %d holds %q, a key no caller sent", si, k)
					}
					return true
				})
			}
		})
	}
}

// rsSlotMate returns a key other than key in the same slot of a
// reservation station of n slots (core.keyHash: FNV-1a, modulo n).
func rsSlotMate(key []byte, n uint64) []byte {
	fnv := func(b []byte) uint64 {
		h := uint64(14695981039346656037)
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
		return h
	}
	for i := 0; ; i++ {
		if k := fmt.Appendf(nil, "mate-%d", i); fnv(k)%n == fnv(key)%n {
			return k
		}
	}
}

// TestServerApplyBatchAllocs pins the store backend's per-batch cost: a
// 32-op inline PUT batch answered into a recycled response scratch, as
// a connection's are, allocates nothing — per-op panic isolation, span
// charge and the run's one latency observation included.
func TestServerApplyBatchAllocs(t *testing.T) {
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tel := telemetry.NewRegistry()
	b := kvnet.NewStoreBackend(store, tel)
	reqs := make([]wire.Request, 32)
	for i := range reqs {
		reqs[i] = wire.Request{Code: wire.OpPut, Key: fmt.Appendf(nil, "key-%02d", i), Value: []byte("vvvv")}
	}
	var resps []wire.Response
	allocs := testing.AllocsPerRun(100, func() {
		if resps = b.ApplyBatch(reqs, resps, nil); resps[len(resps)-1].Status != wire.StatusOK {
			t.Fatalf("PUT answered %+v", resps[len(resps)-1])
		}
	})
	if allocs > 0 {
		t.Errorf("a 32-op inline PUT batch allocates %.0f objects, want 0", allocs)
	}
	if n := tel.Histogram("server.op_latency_ns").Count(); n != 101*32 {
		t.Errorf("server.op_latency_ns counted %d ops, want %d", n, 101*32)
	}
}
