package repllog

import (
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// sliceLog is the plain-slice log the ring replaced, kept as the oracle
// TestRingMatchesModel compares against: append, then copy the window
// forward when it overflows.
type sliceLog struct {
	entries []Entry
	first   uint64
	last    uint64
	window  int
	pinned  uint64
}

func (l *sliceLog) Append(e Entry) error {
	if l.last != 0 && e.Seq != l.last+1 {
		return ErrGap
	}
	if len(l.entries) == 0 {
		l.first = e.Seq
	}
	l.entries = append(l.entries, e)
	l.last = e.Seq
	if drop := len(l.entries) - l.window; drop > 0 {
		if l.pinned != 0 {
			limit := 0
			if l.pinned > l.first {
				limit = int(l.pinned - l.first)
			}
			drop = min(drop, limit)
		}
		if drop > 0 {
			l.entries = append(l.entries[:0], l.entries[drop:]...)
			l.first += uint64(drop)
		}
	}
	return nil
}

func (l *sliceLog) FirstSeq() (uint64, bool) {
	if len(l.entries) == 0 {
		return 0, false
	}
	return l.first, true
}

func (l *sliceLog) Since(seq uint64) ([]Entry, error) {
	if seq >= l.last {
		return nil, nil
	}
	if len(l.entries) == 0 || seq+1 < l.first {
		return nil, ErrTruncated
	}
	return l.entries[seq+1-l.first:], nil
}

func (l *sliceLog) Reset(seq uint64) {
	l.entries = l.entries[:0]
	l.last = seq
}

// TestRingMatchesModel drives the ring and the slice oracle through the
// same fixed-seed random walk and demands equal answers at every step:
// wrap-around, pins beyond capacity and below first, Since at both
// edges, ErrTruncated exactly when the oracle says, gaps, and rebases.
func TestRingMatchesModel(t *testing.T) {
	for _, window := range []int{1, 2, 7, 4096} {
		rng := rand.New(rand.NewSource(int64(window)))
		ring, model := New(window), &sliceLog{window: window}
		next := uint64(1)
		var buf []Entry
		for step := 0; step < 100_000; step++ {
			// Rebases are rare enough that every window fills and wraps
			// many times between two of them.
			switch op := rng.Intn(100); {
			case rng.Intn(4*window+50) == 0:
				seq := next + uint64(rng.Intn(5))
				ring.Reset(seq)
				model.Reset(seq)
				next = seq + 1
			case op < 60:
				seq := next
				if rng.Intn(50) == 0 {
					seq += uint64(1 + rng.Intn(3)) // a gap both must refuse
				}
				e := Entry{Seq: seq, Epoch: uint64(step), Packet: []byte{byte(seq)}}
				gotErr, wantErr := ring.Append(e), model.Append(e)
				if !errors.Is(gotErr, wantErr) {
					t.Fatalf("window %d step %d: Append(%d) = %v, model %v", window, step, seq, gotErr, wantErr)
				}
				if wantErr == nil {
					next = seq + 1
				}
			case op < 85:
				// Anywhere from well below the window to past the end.
				span := uint64(2*window + 4)
				seq := next - min(next, uint64(rng.Int63n(int64(span)))) + uint64(rng.Intn(2))
				var gotErr error
				buf, gotErr = ring.Since(seq, buf)
				want, wantErr := model.Since(seq)
				if !errors.Is(gotErr, wantErr) || len(buf) != len(want) {
					t.Fatalf("window %d step %d: Since(%d) = %d entries, %v; model %d entries, %v",
						window, step, seq, len(buf), gotErr, len(want), wantErr)
				}
				for i := range want {
					if buf[i].Seq != want[i].Seq || buf[i].Epoch != want[i].Epoch || &buf[i].Packet[0] != &want[i].Packet[0] {
						t.Fatalf("window %d step %d: Since(%d)[%d] = seq %d, model seq %d", window, step, seq, i, buf[i].Seq, want[i].Seq)
					}
				}
			case op < 92:
				// Pins land below first, inside the window and past last.
				seq := next - min(next, uint64(rng.Intn(3*window+3))) + uint64(rng.Intn(3))
				ring.Pin(seq)
				model.pinned = seq
			default:
				ring.Unpin()
				model.pinned = 0
			}
			gotFirst, gotOK := ring.FirstSeq()
			wantFirst, wantOK := model.FirstSeq()
			if ring.Len() != len(model.entries) || ring.LastSeq() != model.last || gotOK != wantOK || (wantOK && gotFirst != wantFirst) {
				t.Fatalf("window %d step %d: len %d first %d,%v last %d; model len %d first %d,%v last %d", window, step,
					ring.Len(), gotFirst, gotOK, ring.LastSeq(), len(model.entries), wantFirst, wantOK, model.last)
			}
		}
	}
}

// TestEvictedPacketsAreCollectable proves with finalizers that a packet
// is unreachable the moment its entry leaves the window — by eviction
// from a full ring, when Unpin lets a grown ring shrink, and on Reset.
// The slice log failed the first: copying the window forward left the
// backing array's tail pointing at the packets it had dropped.
func TestEvictedPacketsAreCollectable(t *testing.T) {
	const window = 8
	var freed atomic.Int64
	l := New(window)
	next := uint64(1)
	appendN := func(n int) {
		for ; n > 0; n-- {
			pkt := make([]byte, 64)
			runtime.SetFinalizer(&pkt[0], func(*byte) { freed.Add(1) })
			if err := l.Append(Entry{Seq: next, Packet: pkt}); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	// Every appended packet that is no longer retained must be collected.
	expectFreed := func(when string) {
		t.Helper()
		want := int64(next-1) - int64(l.Len())
		deadline := time.Now().Add(5 * time.Second)
		for freed.Load() < want && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if got := freed.Load(); got != want {
			t.Fatalf("%s: %d packets collected, want %d (retained %d of %d)", when, got, want, l.Len(), next-1)
		}
	}

	appendN(3*window + 3) // wraps the ring several times
	expectFreed("after eviction")

	l.Pin(next)
	appendN(5 * window) // the ring grows to hold the pinned tail
	if l.Len() <= window {
		t.Fatalf("pinned log holds %d entries, want more than the window", l.Len())
	}
	l.Unpin()
	appendN(1) // trims back to the window and shrinks the ring
	if l.Len() != window {
		t.Fatalf("after Unpin: Len = %d, want %d", l.Len(), window)
	}
	expectFreed("after Unpin shrank the ring")

	l.Reset(next - 1)
	expectFreed("after Reset")
	runtime.KeepAlive(l)
}

// BenchmarkLogAppendFullWindow is the steady state of every replica: a
// full default window, each append evicting one entry.
func BenchmarkLogAppendFullWindow(b *testing.B) {
	l := New(DefaultWindow)
	pkt := make([]byte, 90)
	seq := uint64(1)
	for ; seq <= DefaultWindow; seq++ {
		if err := l.Append(Entry{Seq: seq, Epoch: 1, Packet: pkt}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(Entry{Seq: seq, Epoch: 1, Packet: pkt}); err != nil {
			b.Fatal(err)
		}
		seq++
	}
}
