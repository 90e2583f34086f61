package kvdirect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"

	"kvdirect/internal/wire"
)

func TestOpLogRecordReplayRoundTrip(t *testing.T) {
	// Record a workload against one store, replay it against a fresh one,
	// and require identical final state.
	var buf bytes.Buffer
	tw := NewOpLogWriter(&buf)

	src, err := New(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Close)
	for batch := 0; batch < 20; batch++ {
		ops := make([]Op, 0, 10)
		for i := 0; i < 10; i++ {
			k := []byte(fmt.Sprintf("t-%02d-%02d", batch, i))
			switch i % 3 {
			case 0:
				ops = append(ops, Op{Code: OpPut, Key: k, Value: k})
			case 1:
				p := make([]byte, 8)
				binary.LittleEndian.PutUint64(p, uint64(batch))
				ops = append(ops, Op{Code: OpUpdateScalar, Key: []byte("ctr"),
					FuncID: FnAdd, ElemWidth: 8, Param: p})
			case 2:
				ops = append(ops, Op{Code: OpGet, Key: k})
			}
		}
		if err := tw.Record(ops); err != nil {
			t.Fatal(err)
		}
		Execute(src, ops)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	dst, err := New(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dst.Close)
	batches, ops, failed, err := Replay(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 20 || ops != 200 || failed != 0 {
		t.Fatalf("replay: %d batches %d ops %d failed", batches, ops, failed)
	}

	// Final states agree key by key.
	if src.NumKeys() != dst.NumKeys() {
		t.Fatalf("key counts differ: %d vs %d", src.NumKeys(), dst.NumKeys())
	}
	src.Walk(func(k, v []byte) bool {
		got, ok := dst.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("replayed store differs at %q", k)
		}
		return true
	})
}

func TestOpLogReplayAcrossConfigs(t *testing.T) {
	// An op-log captured once replays against a differently tuned store.
	var buf bytes.Buffer
	tw := NewOpLogWriter(&buf)
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("cfg-%03d", i))
		if err := tw.Record([]Op{{Code: OpPut, Key: k, Value: bytes.Repeat([]byte{1}, i*5)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, cfg := range []Config{
		{MemoryBytes: 8 << 20, InlineThreshold: -1},
		{MemoryBytes: 8 << 20, DisableCache: true},
		{MemoryBytes: 8 << 20, DisableOoO: true},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		if _, ops, failed, err := Replay(bytes.NewReader(buf.Bytes()), s); err != nil || failed != 0 || ops != 50 {
			t.Fatalf("cfg %+v: %v ops=%d failed=%d", cfg, err, ops, failed)
		}
		if s.NumKeys() != 50 {
			t.Fatalf("cfg %+v: %d keys", cfg, s.NumKeys())
		}
	}
}

func TestOpLogCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	tw := NewOpLogWriter(&buf)
	if err := tw.Record([]Op{{Code: OpPut, Key: []byte("k"), Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Each case damages the 8-byte len|crc header or the payload.
	hugeFrame := append([]byte{0xFF, 0xFF, 0xFF, 0xFF}, good[4:]...)
	garbage := append([]byte{3, 0, 0, 0, 0, 0, 0, 0}, 9, 9, 9)
	cases := map[string][]byte{
		"truncated header": good[:2],
		"truncated body":   good[:len(good)-2],
		"huge frame":       hugeFrame,
		"garbage packet":   garbage,
	}
	for name, data := range cases {
		s, _ := New(Config{MemoryBytes: 4 << 20})
		t.Cleanup(s.Close)
		if _, _, _, err := Replay(bytes.NewReader(data), s); err == nil {
			t.Errorf("%s: replay accepted corrupt op-log", name)
		}
	}
}

// opLogOneBatch records a single one-op batch and returns the raw bytes.
func opLogOneBatch(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewOpLogWriter(&buf)
	if err := tw.Record([]Op{{Code: OpPut, Key: []byte("key"), Value: []byte("value")}}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOpLogReplayTruncatedFrame(t *testing.T) {
	good := opLogOneBatch(t)
	// Every proper prefix except the full log (and the empty one,
	// which is a clean EOF) must fail with ErrOpLogCorrupt, whether the
	// cut lands in the header or the payload.
	for cut := 1; cut < len(good); cut++ {
		s, _ := New(Config{MemoryBytes: 4 << 20})
		t.Cleanup(s.Close)
		batches, _, _, err := Replay(bytes.NewReader(good[:cut]), s)
		if err == nil {
			t.Fatalf("cut at %d of %d: replay accepted truncated op-log", cut, len(good))
		}
		if !errors.Is(err, ErrOpLogCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrOpLogCorrupt", cut, err)
		}
		if batches != 0 {
			t.Fatalf("cut at %d: %d batches executed from a truncated op-log", cut, batches)
		}
	}
}

func TestOpLogReplayOversizedFrame(t *testing.T) {
	good := opLogOneBatch(t)
	// Declare a length just over the frame limit; the reader must
	// reject it from the header alone instead of allocating 16 MiB+.
	data := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(data[:4], 16<<20+1)
	s, _ := New(Config{MemoryBytes: 4 << 20})
	t.Cleanup(s.Close)
	_, _, _, err := Replay(bytes.NewReader(data), s)
	if !errors.Is(err, ErrOpLogCorrupt) {
		t.Fatalf("oversized frame: err = %v, want ErrOpLogCorrupt", err)
	}
}

func TestOpLogReplayCRCCorruptBatch(t *testing.T) {
	good := opLogOneBatch(t)
	// Flip one bit in every payload byte position in turn: the frame
	// length stays right, so only the checksum can catch it.
	for i := 8; i < len(good); i++ {
		data := append([]byte(nil), good...)
		data[i] ^= 0x10
		s, _ := New(Config{MemoryBytes: 4 << 20})
		t.Cleanup(s.Close)
		batches, _, _, err := Replay(bytes.NewReader(data), s)
		if !errors.Is(err, ErrOpLogCorrupt) {
			t.Fatalf("flip at %d: err = %v, want ErrOpLogCorrupt", i, err)
		}
		if batches != 0 {
			t.Fatalf("flip at %d: corrupt batch executed", i)
		}
	}
	// A corrupt CRC field itself is equally fatal.
	data := append([]byte(nil), good...)
	data[5] ^= 0xFF
	s, _ := New(Config{MemoryBytes: 4 << 20})
	t.Cleanup(s.Close)
	if _, _, _, err := Replay(bytes.NewReader(data), s); !errors.Is(err, ErrOpLogCorrupt) {
		t.Fatalf("corrupt crc field: err = %v, want ErrOpLogCorrupt", err)
	}
}

func TestOpLogEmptyAndCallbackError(t *testing.T) {
	s, _ := New(Config{MemoryBytes: 4 << 20})
	t.Cleanup(s.Close)
	if b, o, f, err := Replay(bytes.NewReader(nil), s); err != nil || b+o+f != 0 {
		t.Errorf("empty op-log: %d %d %d %v", b, o, f, err)
	}
	var buf bytes.Buffer
	tw := NewOpLogWriter(&buf)
	for i := 0; i < 2; i++ {
		if err := tw.Record([]Op{{Code: OpGet, Key: []byte("k")}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	stop := fmt.Errorf("stop")
	batches, _, err := ReplayFunc(bytes.NewReader(buf.Bytes()), func([]Op) error { return stop })
	if err != stop || batches != 1 {
		t.Errorf("callback error handling: batches=%d err=%v", batches, err)
	}
}

func TestOpLogWriterStickyError(t *testing.T) {
	tw := NewOpLogWriter(failWriter{})
	err1 := tw.Record([]Op{{Code: OpGet, Key: []byte("k")}})
	// A buffered writer may absorb the first small write; Flush must
	// surface the failure, and subsequent calls stay failed.
	flushErr := tw.Flush()
	if err1 == nil && flushErr == nil {
		t.Fatal("write to failing writer reported no error")
	}
	if tw.Record([]Op{{Code: OpGet, Key: []byte("k")}}) == nil && tw.Flush() == nil {
		t.Fatal("sticky error not preserved")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

// goldenOpLog is what commit 03caf94 (the last one with the op-log's own
// copy of the frame codec) wrote for goldenOpLogBatches — the on-disk
// format, pinned.
const goldenOpLog = "2600000068683274564b0103000200050300616c7068616f6e650201627261766f74776f0100050000616c706861" +
	"22000000361df0d3564b010200040003000063747201080805000000000000000300050000627261766f" +
	"05000000e63be7f7564b010000"

func goldenOpLogBatches() [][]Op {
	five := make([]byte, 8)
	binary.LittleEndian.PutUint64(five, 5)
	return [][]Op{
		{
			{Code: OpPut, Key: []byte("alpha"), Value: []byte("one")},
			{Code: OpPut, Key: []byte("bravo"), Value: []byte("two")},
			{Code: OpGet, Key: []byte("alpha")},
		},
		{
			{Code: OpUpdateScalar, Key: []byte("ctr"), FuncID: FnAdd, ElemWidth: 8, Param: five},
			{Code: OpDelete, Key: []byte("bravo")},
		},
		nil,
	}
}

// TestOpLogGoldenBytes: a log recorded before the codec moved replays
// batch for batch, and recording the same batches today writes the same
// bytes.
func TestOpLogGoldenBytes(t *testing.T) {
	golden, err := hex.DecodeString(goldenOpLog)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenOpLogBatches()
	var buf bytes.Buffer
	tw := NewOpLogWriter(&buf)
	for _, batch := range want {
		if err := tw.Record(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("recorded bytes changed:\n got %x\nwant %x", buf.Bytes(), golden)
	}
	var got [][]Op
	batches, ops, err := ReplayFunc(bytes.NewReader(golden), func(batch []Op) error {
		got = append(got, batch)
		return nil
	})
	if err != nil || batches != 3 || ops != 5 {
		t.Fatalf("replay: %d batches, %d ops, err %v", batches, ops, err)
	}
	for i, batch := range want {
		if len(got[i]) != len(batch) {
			t.Fatalf("batch %d: %d ops, want %d", i, len(got[i]), len(batch))
		}
		for j, op := range batch {
			g := got[i][j]
			if g.Code != op.Code || !bytes.Equal(g.Key, op.Key) || !bytes.Equal(g.Value, op.Value) ||
				g.FuncID != op.FuncID || g.ElemWidth != op.ElemWidth || !bytes.Equal(g.Param, op.Param) {
				t.Fatalf("batch %d op %d replayed as %+v, want %+v", i, j, g, op)
			}
		}
	}
}

// FuzzOpLogReplay is the op-log's round trip: whatever ReplayFunc
// accepts, re-recording its batches writes back byte for byte. One seed
// is a batch marked for tracing — a packet the server decodes, but not
// one Record writes — which must stay rejected.
func FuzzOpLogReplay(f *testing.F) {
	golden, err := hex.DecodeString(goldenOpLog)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(opLogOneBatch(f))
	pkt, err := EncodeBatch([]Op{
		{Code: OpPut, Key: []byte("k1"), Value: []byte("same")},
		{Code: OpPut, Key: []byte("k2"), Value: []byte("same")},
		{Code: OpGet, Key: []byte("k1")},
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := wire.MarkTraced(pkt); err != nil {
		f.Fatal(err)
	}
	var traced bytes.Buffer
	if err := wire.WriteFrame(&traced, pkt); err != nil {
		f.Fatal(err)
	}
	if _, _, err := ReplayFunc(bytes.NewReader(traced.Bytes()), func([]Op) error { return nil }); !errors.Is(err, ErrOpLogCorrupt) {
		f.Fatalf("a traced batch replayed: %v", err)
	}
	f.Add(traced.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, in []byte) {
		var re bytes.Buffer
		w := NewOpLogWriter(&re)
		_, _, err := ReplayFunc(bytes.NewReader(in), w.Record)
		if errors.Is(err, ErrOpLogCorrupt) {
			return
		}
		if err != nil {
			t.Fatalf("re-recording an accepted batch: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), in) {
			t.Fatalf("op-log not canonical: % x re-recorded as % x", in, re.Bytes())
		}
	})
}
