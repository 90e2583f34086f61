// Package ooo implements KV-Direct's out-of-order execution engine (paper
// §3.3.3): a reservation station that tracks in-flight KV operations,
// resolves data dependencies without stalling the pipeline, forwards
// cached values to dependent operations, and issues write-backs.
//
// Two components are provided:
//
//   - Engine: the functional reservation station used by the KV processor.
//     Operations are submitted into a bounded in-flight window; dependent
//     operations (same reservation-station hash — false positives are
//     treated as dependencies, never missed ones) chain behind the head
//     and execute by data forwarding when it completes. This both merges
//     memory accesses and guarantees consistency: no two operations on the
//     same key are ever in the main pipeline simultaneously.
//
//   - the cycle-level timing simulator in sim.go, which reproduces
//     Figure 13's throughput comparison between out-of-order execution
//     and pipeline stalling.
package ooo

import "fmt"

// Default hardware parameters (paper §3.3.3).
const (
	// DefaultRSSlots is the number of reservation-station hash slots in
	// on-chip BRAM; 1024 keeps the collision probability below 25% with
	// 256 in-flight operations.
	DefaultRSSlots = 1024
	// DefaultWindow is the maximum in-flight operations needed to
	// saturate PCIe, DRAM and the processing pipeline.
	DefaultWindow = 256
)

// Kind is a KV operation type.
type Kind int

// Operation kinds.
const (
	Get Kind = iota
	Put
	Delete
	Atomic // read-modify-write with a user function
)

func (k Kind) String() string {
	switch k {
	case Get:
		return "GET"
	case Put:
		return "PUT"
	case Delete:
		return "DELETE"
	case Atomic:
		return "ATOMIC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Op is one KV operation flowing through the engine. Submit and Do copy
// it into engine-owned storage and do not retain the pointer, so a caller's
// &Op{...} stays on its stack.
type Op struct {
	Kind    Kind
	Key     []byte
	KeyHash uint64
	Value   []byte // Put: new value
	// Fn is an Atomic's read-modify-write function. It receives the old
	// value (nil if the key is absent) and returns the new value; a nil
	// return means "leave the store unchanged" (conditional updates and
	// read-only folds).
	Fn   func(old []byte) []byte
	Done func(value []byte, ok bool, err error)

	res int // engine's copy only: 1-based outcome slot in Engine.results, set by Do
}

// result is the outcome of one operation, as Done would receive it.
type result struct {
	value []byte
	ok    bool
	err   error
}

// Executor is the main processing pipeline the engine issues operations
// to — in KV-Direct, the hash table + slab allocator over the unified
// memory access engine.
type Executor interface {
	Get(key []byte) ([]byte, bool)
	Put(key, value []byte) error
	Delete(key []byte) bool
}

// Stats counts engine activity.
type Stats struct {
	Submitted       uint64
	Issued          uint64 // operations sent to the main pipeline
	Forwarded       uint64 // operations satisfied by data forwarding
	Writebacks      uint64 // cache write-back PUTs/DELETEs issued
	WritebackErrors uint64 // write-backs rejected by the pipeline (store full)
	MaxChain        int    // longest dependency chain observed
}

// MergeRatio returns the fraction of operations satisfied by forwarding
// instead of the main pipeline.
func (s Stats) MergeRatio() float64 {
	if s.Submitted == 0 {
		return 0
	}
	return float64(s.Forwarded) / float64(s.Submitted)
}

// entry is one reservation-station slot: the operation currently in the
// main pipeline plus its chain of dependent pending operations and the
// forwarding cache. Entries are recycled through Engine.free, keeping
// their chain's capacity.
type entry struct {
	rsIdx uint32
	head  Op // meaningless while writeback is set
	chain []Op

	// Forwarding cache for head.Key after the head completes.
	key     []byte
	cached  []byte
	present bool
	dirty   bool

	writeback bool // the pipeline slot holds a synthetic write-back, not a client op
}

// Engine is the functional out-of-order engine. Not safe for concurrent
// use: the hardware processes one decoded operation per clock cycle.
type Engine struct {
	exec  Executor
	slots []*entry
	free  []*entry // retired entries awaiting reuse

	// FIFO of entries whose head is in the main pipeline: a ring over
	// queue holding qlen entries from qhead. An entry is queued at most
	// once and only while it owns a slot, so len(slots) bounds it.
	queue       []*entry
	qhead, qlen int

	results []result // outcome slots of the Do calls in progress (nested calls stack)

	pending int // client ops somewhere in the engine
	window  int
	stats   Stats

	// Stall disables out-of-order execution: a submission whose key
	// conflicts with an in-flight operation drains the pipeline first
	// (the Figure 13 baseline).
	Stall bool
}

// NewEngine creates an engine issuing to exec with the given reservation
// station size and in-flight window (0 = defaults).
func NewEngine(exec Executor, rsSlots, window int) *Engine {
	if rsSlots <= 0 {
		rsSlots = DefaultRSSlots
	}
	if window <= 0 {
		window = DefaultWindow
	}
	return &Engine{
		exec:   exec,
		slots:  make([]*entry, rsSlots),
		queue:  make([]*entry, rsSlots),
		window: window,
	}
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// InFlight returns the number of client operations inside the engine.
func (e *Engine) InFlight() int { return e.pending }

// Submit feeds one operation into the engine. Its Done callback fires
// when the operation completes — possibly within this call (window full
// or dependency-stall drain) or on a later Submit/Flush.
//
//kvd:hotpath
func (e *Engine) Submit(op *Op) {
	done := false
	defer e.unwind(&done) //lint:allow hotalloc -- only a panic unwinding through the engine recycles entries, onto a free list bounded by the entries ever in flight
	e.submit(op, 0)       //lint:allow hotalloc -- see the allows in submit
	done = true
}

// submit is Submit with the engine's copy of op bound to outcome slot res
// (0 = none).
//
//kvd:hotpath
func (e *Engine) submit(op *Op, res int) {
	e.stats.Submitted++
	rs := uint32(op.KeyHash % uint64(len(e.slots)))
	cur := e.slots[rs]
	if cur != nil && e.Stall {
		// Baseline: drain until the conflicting entry retires, so the op
		// issues as its own head and pays its own access.
		e.drainEntry(cur) //lint:allow hotalloc -- retires entries; see the allows in retire
		cur = nil
	}
	if cur != nil {
		// Dependent (or hash-collision false positive): chain it.
		cur.chain = append(cur.chain, *op) //lint:allow hotalloc -- a recycled entry keeps its chain's capacity
		cur.chain[len(cur.chain)-1].res = res
		if n := len(cur.chain); n > e.stats.MaxChain {
			e.stats.MaxChain = n
		}
	} else {
		en := e.newEntry() //lint:allow hotalloc -- allocates only until the free list holds as many entries as were ever in flight
		en.rsIdx, en.head, en.key = rs, *op, op.Key
		en.head.res = res
		e.slots[rs] = en
		e.push(en) //lint:allow hotalloc -- the ring is sized to the slot count; growth is a defensive path
	}
	e.pending++
	e.fill() //lint:allow hotalloc -- retires entries; see the allows in retire
}

// Do submits op, drains the pipeline and returns op's outcome: the
// synchronous form of Submit, delivering the result through an
// engine-owned slot so the caller needs no Done closure.
//
// A Get, Put or Delete without a Done that finds the station empty (no
// entry in the pipeline FIFO) has nothing to depend on, so it issues
// straight to the pipeline, skipping the entry and queue bookkeeping
// (DESIGN.md's empty-station rule, held by FuzzEngineDo).
//
//kvd:hotpath
func (e *Engine) Do(op *Op) (value []byte, ok bool, err error) {
	if e.qlen == 0 && op.Kind != Atomic && op.Done == nil {
		e.stats.Submitted++
		var en entry
		return e.executeHead(&en, op) //lint:allow hotalloc -- only an Atomic head allocates, and an Atomic never issues here
	}
	done := false
	defer e.unwind(&done) //lint:allow hotalloc -- only a panic unwinding through the engine recycles entries, onto a free list bounded by the entries ever in flight

	e.results = append(e.results, result{}) //lint:allow hotalloc -- grows with Do nesting depth only; the capacity is kept
	res := len(e.results)
	e.submit(op, res) //lint:allow hotalloc -- see the allows in submit
	e.flush()         //lint:allow hotalloc -- retires entries; see the allows in retire
	r := &e.results[res-1]
	value, ok, err = r.value, r.ok, r.err
	*r = result{}
	e.results = e.results[:res-1]
	done = true
	return value, ok, err
}

// unwind is deferred by every entry point that runs caller code — an
// Atomic's Fn, a Done callback — with a flag set once the call returned.
// Unset, a panic is unwinding through the engine: the op that panicked
// has left the pipeline FIFO but still owns its reservation-station slot
// and its pending count, so every later op hashing to that slot would
// chain behind an entry nothing retires again and never execute. unwind
// drops the whole in-flight window instead — what was in flight is
// abandoned, its Done never fires — and lets the panic continue to the
// caller (core.Store.ApplyRun turns it into that op's error). On the
// serving path (Do) nothing else is ever in flight, so only the
// panicking op is lost. A returning call pays one flag test.
func (e *Engine) unwind(done *bool) {
	if *done {
		return
	}
	for i, en := range e.slots {
		if en != nil {
			e.slots[i] = nil
			clear(en.chain)
			e.release(en)
		}
	}
	clear(e.queue)
	e.qhead, e.qlen = 0, 0
	clear(e.results)
	e.results = e.results[:0]
	e.pending = 0
}

// newEntry takes an entry off the free list, or allocates the first time
// a slot's worth of concurrency is reached.
func (e *Engine) newEntry() *entry {
	if n := len(e.free); n > 0 {
		en := e.free[n-1]
		e.free = e.free[:n-1]
		return en
	}
	return &entry{}
}

// release recycles a retired entry, dropping every reference it holds.
func (e *Engine) release(en *entry) {
	*en = entry{chain: en.chain[:0]}
	e.free = append(e.free, en)
}

// push appends en to the pipeline FIFO.
func (e *Engine) push(en *entry) {
	if e.qlen == len(e.queue) {
		// Unreachable while every queued entry owns a slot. A Stall-mode
		// Done callback resubmitting onto its own draining slot can break
		// that, so grow rather than rely on it.
		grown := make([]*entry, 2*len(e.queue))
		n := copy(grown, e.queue[e.qhead:])
		copy(grown[n:], e.queue[:e.qhead])
		e.queue, e.qhead = grown, 0
	}
	tail := e.qhead + e.qlen
	if tail >= len(e.queue) {
		tail -= len(e.queue)
	}
	e.queue[tail] = en
	e.qlen++
}

// pop removes the oldest entry from the pipeline FIFO.
func (e *Engine) pop() *entry {
	en := e.queue[e.qhead]
	e.queue[e.qhead] = nil
	if e.qhead++; e.qhead == len(e.queue) {
		e.qhead = 0
	}
	e.qlen--
	return en
}

// fill retires entries while the window is over-subscribed.
func (e *Engine) fill() {
	for e.pending > e.window && e.qlen > 0 {
		e.retire()
	}
}

// Flush drains every in-flight operation.
func (e *Engine) Flush() {
	done := false
	defer e.unwind(&done)
	e.flush()
	done = true
}

func (e *Engine) flush() {
	for e.qlen > 0 {
		e.retire()
	}
}

// drainEntry retires queue heads until en has fully left the engine.
func (e *Engine) drainEntry(en *entry) {
	for e.slots[en.rsIdx] == en && e.qlen > 0 {
		e.retire()
	}
}

// retire completes the oldest main-pipeline operation and processes its
// dependency chain by data forwarding.
//
//kvd:hotpath
func (e *Engine) retire() {
	en := e.pop()

	// 1. The head completes in the main pipeline.
	if en.writeback {
		if en.present {
			// A write-back can fail if the store filled up after the
			// dependent operations were already acknowledged (the same
			// asynchrony the hardware has); it is counted so operators
			// can see it, and the stale value remains readable.
			if err := e.exec.Put(en.key, en.cached); err != nil {
				e.stats.WritebackErrors++
			}
		} else {
			e.exec.Delete(en.key)
		}
		en.dirty = false
		e.stats.Writebacks++
	} else {
		v, ok, err := e.executeHead(en, &en.head) //lint:allow hotalloc -- only an Atomic head allocates: the old-value copy handed to Fn and Done
		e.complete(&en.head, v, ok, err)
		e.pending--
	}

	// 2. Forward to dependent operations with a matching key, in order.
	if len(en.chain) > 0 {
		e.forwardChain(en) //lint:allow hotalloc -- only a forwarded Atomic allocates: the old-value copy handed to Fn and Done
	}

	switch {
	case en.dirty:
		// 3. Write back a dirty cached value, keeping the slot occupied so
		// no same-key operation can enter the main pipeline concurrently.
		en.writeback = true
	case len(en.chain) > 0:
		// 4. Non-matching chained ops (hash collisions): promote the first
		// to head and reissue.
		last := len(en.chain) - 1
		en.head = en.chain[0]
		copy(en.chain, en.chain[1:])
		en.chain[last] = Op{}
		en.chain = en.chain[:last]
		en.key = en.head.Key
		en.writeback = false
		en.cached, en.present = nil, false
	default:
		// 5. Slot free.
		e.slots[en.rsIdx] = nil
		e.release(en) //lint:allow hotalloc -- the free list stops growing once it holds every entry ever in flight
		return
	}
	e.push(en) //lint:allow hotalloc -- the ring is sized to the slot count; growth is a defensive path
}

// executeHead runs op, en's head, against the main pipeline, primes en's
// forwarding cache and returns op's outcome.
func (e *Engine) executeHead(en *entry, op *Op) (v []byte, ok bool, err error) {
	e.stats.Issued++
	switch op.Kind {
	case Get:
		v, ok = e.exec.Get(op.Key)
		en.cached, en.present = v, ok
	case Put:
		err = e.exec.Put(op.Key, op.Value)
		if ok = err == nil; ok {
			en.cached, en.present = op.Value, true
		}
	case Delete:
		ok = e.exec.Delete(op.Key)
		en.cached, en.present = nil, false
	case Atomic:
		var old []byte
		if old, ok = e.exec.Get(op.Key); ok {
			v = append([]byte(nil), old...)
		}
		if nv := op.Fn(v); nv == nil {
			en.cached, en.present = v, ok
		} else {
			en.cached, en.present, en.dirty = nv, true, true
		}
	}
	return v, ok, err
}

// forwardChain executes chained operations with a matching key against
// the forwarding cache (one per clock cycle in hardware), leaving
// non-matching (hash-collision) ops in place.
func (e *Engine) forwardChain(en *entry) {
	kept := 0
	for i := range en.chain {
		op := &en.chain[i]
		if !bytesEqual(op.Key, en.key) {
			en.chain[kept] = *op
			kept++
			continue
		}
		e.stats.Forwarded++
		e.pending--
		switch op.Kind {
		case Get:
			if en.present {
				e.complete(op, en.cached, true, nil)
			} else {
				e.complete(op, nil, false, nil)
			}
		case Put:
			en.cached = op.Value
			en.present = true
			en.dirty = true
			e.complete(op, nil, true, nil)
		case Delete:
			ok := en.present
			en.cached, en.present = nil, false
			en.dirty = true
			e.complete(op, nil, ok, nil)
		case Atomic:
			existed := en.present
			var old []byte
			if existed {
				old = append([]byte(nil), en.cached...)
			}
			if nv := op.Fn(old); nv != nil {
				en.cached = nv
				en.present = true
				en.dirty = true
			}
			e.complete(op, old, existed, nil)
		}
	}
	clear(en.chain[kept:])
	en.chain = en.chain[:kept]
}

// complete delivers op's outcome: into its Do slot, to its Done
// callback, or both.
func (e *Engine) complete(op *Op, v []byte, ok bool, err error) {
	if op.res != 0 {
		r := &e.results[op.res-1]
		r.value, r.ok, r.err = v, ok, err
	}
	if op.Done != nil {
		op.Done(v, ok, err)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
