// Package sim provides deterministic discrete-event simulation scaffolding
// shared by the KV-Direct hardware models: a nanosecond clock, an event
// queue, and seeded random-number utilities.
//
// Simulated time is expressed in nanoseconds as float64 so analytic latency
// models (which produce fractional nanoseconds) compose without rounding.
package sim

import (
	"container/heap"
	"math/rand"
)

// Clock tracks simulated time in nanoseconds.
type Clock struct {
	now float64
}

// Now returns the current simulated time in nanoseconds.
func (c *Clock) Now() float64 { return c.now }

// AdvanceTo moves the clock to time t if t is in the future.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Event is a scheduled callback in an EventQueue.
type Event struct {
	At float64 // absolute simulated time in ns
	Fn func()

	index int // heap bookkeeping
	seq   uint64
}

// EventQueue is a min-heap of events ordered by time, with FIFO tie-breaking
// so simulations are fully deterministic.
type EventQueue struct {
	h   eventHeap
	seq uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Schedule enqueues fn to run at absolute time at.
func (q *EventQueue) Schedule(at float64, fn func()) {
	q.seq++
	heap.Push(&q.h, &Event{At: at, Fn: fn, seq: q.seq})
}

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.h) }

// RunNext pops and runs the earliest event, advancing clk to its time.
// It returns false if the queue is empty.
func (q *EventQueue) RunNext(clk *Clock) bool {
	if len(q.h) == 0 {
		return false
	}
	ev := heap.Pop(&q.h).(*Event)
	clk.AdvanceTo(ev.At)
	ev.Fn()
	return true
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// RNG wraps math/rand with deterministic substream splitting so independent
// model components never share a sequence.
type RNG struct {
	*rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed))}
}

// Split derives an independent RNG from this one, keyed by label, without
// disturbing the parent stream's determinism guarantees beyond one draw.
func (r *RNG) Split(label int64) *RNG {
	// SplitMix-style derivation: mix the parent's next value with the label.
	z := uint64(r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 { return r.ExpFloat64() * mean }

// Normal returns a normally distributed value with the given mean and
// standard deviation, truncated below at lo.
func (r *RNG) Normal(mean, stddev, lo float64) float64 {
	v := r.NormFloat64()*stddev + mean
	if v < lo {
		return lo
	}
	return v
}
