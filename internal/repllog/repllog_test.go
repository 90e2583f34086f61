package repllog

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"kvdirect/internal/wire"
)

func entry(t *testing.T, seq, epoch uint64) Entry {
	t.Helper()
	e, err := NewEntry(seq, epoch, wire.Request{
		Code:  wire.OpPut,
		Key:   []byte(fmt.Sprintf("k%06d", seq)),
		Value: []byte(fmt.Sprintf("v%06d", seq)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAppendSinceRoundTrip(t *testing.T) {
	l := New(100)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if got := l.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	tail, err := l.Since(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 6 || tail[0].Seq != 5 || tail[5].Seq != 10 {
		t.Fatalf("Since(4) = %d entries, first %d", len(tail), tail[0].Seq)
	}
	req, err := tail[0].Request()
	if err != nil {
		t.Fatal(err)
	}
	if req.Code != wire.OpPut || string(req.Key) != "k000005" {
		t.Fatalf("decoded %v %q", req.Code, req.Key)
	}
	if got, err := l.Since(10, nil); err != nil || got != nil {
		t.Fatalf("Since(last) = %v, %v", got, err)
	}
}

func TestAppendGapRejected(t *testing.T) {
	l := New(10)
	if err := l.Append(entry(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry(t, 3, 1)); !errors.Is(err, ErrGap) {
		t.Fatalf("gap append: got %v", err)
	}
	// The failed append must not disturb the sequence.
	if err := l.Append(entry(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestWindowTruncation(t *testing.T) {
	l := New(5)
	for seq := uint64(1); seq <= 12; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	first, ok := l.FirstSeq()
	if !ok || first != 8 {
		t.Fatalf("FirstSeq = %d,%v want 8,true", first, ok)
	}
	// Replay from inside the window works; from before it must demand a
	// snapshot.
	if tail, err := l.Since(7, nil); err != nil || len(tail) != 5 {
		t.Fatalf("Since(7): %d entries, %v", len(tail), err)
	}
	if _, err := l.Since(3, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(3): got %v, want ErrTruncated", err)
	}
}

func TestPinFencesTruncation(t *testing.T) {
	l := New(5)
	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Pin the tail a migration still has to hand off; a burst of appends
	// may overflow the window but must not evict the pinned range.
	l.Pin(3)
	for seq := uint64(6); seq <= 20; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	first, ok := l.FirstSeq()
	if !ok || first != 3 {
		t.Fatalf("pinned FirstSeq = %d,%v want 3,true", first, ok)
	}
	if l.Len() != 18 {
		t.Fatalf("pinned Len = %d, want 18 (window overflow allowed)", l.Len())
	}
	if tail, err := l.Since(2, nil); err != nil || len(tail) != 18 {
		t.Fatalf("Since(2) under pin: %d entries, %v", len(tail), err)
	}
	// Advancing the pin releases the head below it...
	l.Pin(10)
	if err := l.Append(entry(t, 21, 1)); err != nil {
		t.Fatal(err)
	}
	if first, _ = l.FirstSeq(); first != 10 {
		t.Fatalf("after re-pin: FirstSeq = %d, want 10", first)
	}
	// ...and Unpin restores plain window behavior on the next append.
	l.Unpin()
	if err := l.Append(entry(t, 22, 1)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("after Unpin: Len = %d, want window 5", l.Len())
	}
	if _, err := l.Since(9, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(9) after Unpin: got %v, want ErrTruncated", err)
	}
}

func TestPinDoesNotResurrectTruncated(t *testing.T) {
	l := New(3)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Seq 2 is long gone; pinning it only protects what is still here.
	l.Pin(2)
	if _, err := l.Since(2, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Since(2): got %v, want ErrTruncated", err)
	}
	if first, _ := l.FirstSeq(); first != 8 {
		t.Fatalf("FirstSeq = %d, want 8", first)
	}
}

func TestResetRebases(t *testing.T) {
	l := New(10)
	for seq := uint64(1); seq <= 4; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	// A snapshot installed as of seq 50 rebases the log.
	l.Reset(50)
	if l.Len() != 0 || l.LastSeq() != 50 {
		t.Fatalf("after Reset: len %d last %d", l.Len(), l.LastSeq())
	}
	if err := l.Append(entry(t, 60, 2)); !errors.Is(err, ErrGap) {
		t.Fatalf("append past rebase: got %v", err)
	}
	if err := l.Append(entry(t, 51, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppendAndReplay(t *testing.T) {
	l := New(64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			// Tail reads race appends; they must never observe a gap.
			tail, err := l.Since(0, nil)
			if errors.Is(err, ErrTruncated) {
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			for i := 1; i < len(tail); i++ {
				if tail[i].Seq != tail[i-1].Seq+1 {
					t.Errorf("gap in replay: %d then %d", tail[i-1].Seq, tail[i].Seq)
					return
				}
			}
		}
	}()
	for seq := uint64(1); seq <= 500; seq++ {
		if err := l.Append(entry(t, seq, 1)); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}
