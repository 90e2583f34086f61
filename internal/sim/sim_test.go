package sim

import (
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.AdvanceTo(12.5)
	if c.Now() != 12.5 {
		t.Errorf("Now = %g, want 12.5", c.Now())
	}
	c.AdvanceTo(10) // in the past, ignored
	if c.Now() != 12.5 {
		t.Errorf("AdvanceTo past changed clock: %g", c.Now())
	}
	c.AdvanceTo(20)
	if c.Now() != 20 {
		t.Errorf("AdvanceTo(20): Now = %g", c.Now())
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	var clk Clock
	var order []int
	q.Schedule(30, func() { order = append(order, 3) })
	q.Schedule(10, func() { order = append(order, 1) })
	q.Schedule(20, func() { order = append(order, 2) })
	for q.RunNext(&clk) {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events ran out of order: %v", order)
	}
	if clk.Now() != 30 {
		t.Errorf("clock = %g, want 30", clk.Now())
	}
}

func TestEventQueueFIFOTieBreak(t *testing.T) {
	q := NewEventQueue()
	var clk Clock
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func() { order = append(order, i) })
	}
	for q.RunNext(&clk) {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEventQueueSchedulingFromCallback(t *testing.T) {
	q := NewEventQueue()
	var clk Clock
	count := 0
	var step func()
	step = func() {
		count++
		if count < 5 {
			q.Schedule(clk.Now()+10, step)
		}
	}
	q.Schedule(0, step)
	for q.RunNext(&clk) {
	}
	if count != 5 {
		t.Errorf("chained events ran %d times, want 5", count)
	}
	if clk.Now() != 40 {
		t.Errorf("clock = %g, want 40", clk.Now())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Int63() == c2.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams look identical: %d/100 matches", same)
	}
}

func TestNormalTruncation(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		if v := r.Normal(0, 100, 5); v < 5 {
			t.Fatalf("Normal returned %g below floor 5", v)
		}
	}
}

func TestExpMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		sum := 0.0
		const n = 20000
		for i := 0; i < n; i++ {
			sum += r.Exp(100)
		}
		mean := sum / n
		return mean > 90 && mean < 110
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
