package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// index is the registry's one lookup-or-register: name → stable *T, in
// registration order. Every named metric in the process — counter,
// gauge, signed gauge, histogram — lives in an index, so there is one
// place where "first use registers, later uses find the same handle"
// is decided. The zero value is ready to use.
type index[T any] struct {
	mu    sync.RWMutex
	order []string
	vals  map[string]*T
}

// handle returns the *T registered under name, creating it on first
// use with mk (new(T) when mk is nil). The pointer is stable for the
// index's lifetime, so hot paths resolve a name once.
func (x *index[T]) handle(name string, mk func(name string) *T) *T {
	if v := x.lookup(name); v != nil {
		return v
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	v := x.vals[name]
	if v == nil {
		if mk != nil {
			v = mk(name)
		} else {
			v = new(T)
		}
		if x.vals == nil {
			x.vals = map[string]*T{}
		}
		x.vals[name] = v
		x.order = append(x.order, name)
	}
	return v
}

// lookup returns name's handle, or nil if it was never registered.
func (x *index[T]) lookup(name string) *T {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.vals[name]
}

// each calls fn for every entry in registration order. fn runs under
// the read lock and must not register.
func (x *index[T]) each(fn func(name string, v *T)) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for _, name := range x.order {
		fn(name, x.vals[name])
	}
}

// atomicInt is the method set *atomic.Uint64 and *atomic.Int64 share.
type atomicInt[V any] interface {
	Load() V
	Store(V)
	Add(V) V
	CompareAndSwap(old, new V) bool
}

// Table is a set of named integer metrics, safe for concurrent use: an
// index of atomics plus the by-name conveniences. By-name calls take a
// read lock and a map lookup, so anything per-operation resolves a
// Handle once at construction and bumps the atomic directly (kvdlint's
// metricname pass rejects a by-name call inside a //kvd:hotpath
// function). The zero value is an empty table.
type Table[V uint64 | int64, A any, H interface {
	*A
	atomicInt[V]
}] struct {
	idx index[A]
}

// Counters, Gauges and IntGauges name Table's three instantiations. A
// counter accumulates events and is only ever Added to; a gauge reports
// a current level; a signed gauge is for levels that can transiently
// dip negative (replication lag while an ack races local bookkeeping),
// which would wrap to ~1.8e19 in an unsigned one.
type (
	Counters  = Table[uint64, atomic.Uint64, *atomic.Uint64]
	Gauges    = Table[uint64, atomic.Uint64, *atomic.Uint64]
	IntGauges = Table[int64, atomic.Int64, *atomic.Int64]
)

// Handle returns the atomic registered under name, creating it at zero
// on first use.
func (t *Table[V, A, H]) Handle(name string) H { return H(t.idx.handle(name, nil)) }

// Add moves name by delta.
func (t *Table[V, A, H]) Add(name string, delta V) { t.Handle(name).Add(delta) }

// Set stores the current level of name.
func (t *Table[V, A, H]) Set(name string, v V) { t.Handle(name).Store(v) }

// Get returns name's current value (zero if never registered).
func (t *Table[V, A, H]) Get(name string) V {
	if h := t.idx.lookup(name); h != nil {
		return H(h).Load()
	}
	return 0
}

// Entry is one (name, value) pair of a Table snapshot.
type Entry[V uint64 | int64] struct {
	Name  string
	Value V
}

// Snapshot returns every metric in registration order.
func (t *Table[V, A, H]) Snapshot() []Entry[V] {
	var out []Entry[V]
	t.idx.each(func(name string, v *A) {
		out = append(out, Entry[V]{Name: name, Value: H(v).Load()})
	})
	return out
}

// String renders the table as "name=value" lines in registration
// order, the server's status-register text format.
func (t *Table[V, A, H]) String() string {
	var b strings.Builder
	for _, e := range t.Snapshot() {
		fmt.Fprintf(&b, "%s=%d\n", e.Name, e.Value)
	}
	return b.String()
}

// StoreMax raises h to v if v is higher, for high-water marks.
func StoreMax[V uint64 | int64, H atomicInt[V]](h H, v V) {
	for {
		cur := h.Load()
		if v <= cur || h.CompareAndSwap(cur, v) {
			return
		}
	}
}
