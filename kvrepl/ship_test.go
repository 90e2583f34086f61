package kvrepl

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// putBatch sends keys[i] = vals[i] as one packet and fails the test
// unless every PUT was acknowledged.
func putBatch(t *testing.T, sc *kvnet.Client, keys, vals []string) {
	t.Helper()
	ops := make([]kvdirect.Op, len(keys))
	for i := range keys {
		ops[i] = kvdirect.Op{Code: kvdirect.OpPut, Key: []byte(keys[i]), Value: []byte(vals[i])}
	}
	res, err := sc.Do(ops)
	if err != nil {
		t.Fatalf("batch of %d: %v", len(ops), err)
	}
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("put %s: %s", keys[i], r.Value)
		}
	}
}

// burst writes n keys through sc in batches of 32 and returns what was
// acknowledged.
func burst(t *testing.T, sc *kvnet.Client, prefix string, n int) map[string]string {
	t.Helper()
	acked := map[string]string{}
	for base := 0; base < n; base += 32 {
		var keys, vals []string
		for i := base; i < min(base+32, n); i++ {
			keys = append(keys, fmt.Sprintf("%s-%05d", prefix, i))
			vals = append(vals, fmt.Sprintf("v-%s-%05d", prefix, i))
		}
		putBatch(t, sc, keys, vals)
		for i := range keys {
			acked[keys[i]] = vals[i]
		}
	}
	return acked
}

// expectConverged waits for every replica to reach the primary's
// frontier, then demands every acknowledged write on every replica and
// identical contents across the group.
func expectConverged(t *testing.T, g *Group, acked map[string]string) {
	t.Helper()
	want := g.Primary().LastApplied()
	for _, r := range g.Replicas {
		r := r
		waitFor(t, 10*time.Second, fmt.Sprintf("replica %d convergence", r.ID()),
			func() bool { return r.LastApplied() >= want })
	}
	// Each replica's store hashes with its own seed, so Dump order differs
	// replica to replica; the contents, sorted, must not.
	var contents []string
	for _, r := range g.Replicas {
		for k, v := range acked {
			if got, ok := r.Store().Get([]byte(k)); !ok || string(got) != v {
				t.Fatalf("replica %d lost acked write %s: %q, %v", r.ID(), k, got, ok)
			}
		}
		var pairs []string
		r.Store().Walk(func(key, value []byte) bool {
			pairs = append(pairs, fmt.Sprintf("%q=%q", key, value))
			return true
		})
		sort.Strings(pairs)
		contents = append(contents, strings.Join(pairs, "\n"))
	}
	for i := 1; i < len(contents); i++ {
		if contents[i] != contents[0] {
			t.Fatalf("replica %d's store differs from replica 0's after convergence", i)
		}
	}
}

func startGroupAndClient(t *testing.T, opts Options) (*Group, *kvnet.Client) {
	t.Helper()
	coord := NewCoordinator(CoordOptions{LeaseTimeout: 5 * time.Second}) // no failover drill here; -race stalls must not depose the primary
	t.Cleanup(func() { coord.Close() })
	g, err := StartGroup(coord, 0, 3, kvdirect.Config{MemoryBytes: 8 << 20}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = g.Close() })
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	return g, sc
}

// TestChaosDropMidBatch: entries vanish from the middle of shipped
// batches. The backup must tear the stream down at the gap rather than
// apply past it, the redial must resync from its true frontier, and no
// acknowledged write may be missing anywhere afterwards.
func TestChaosDropMidBatch(t *testing.T) {
	inj := fault.NewInjector(5)
	inj.Set(fault.ReplDropEntry, 0.03) // about one entry per 32-entry batch
	opts := fastOpts()
	opts.Faults = inj
	g, sc := startGroupAndClient(t, opts)

	acked := burst(t, sc, "drop", 1500)
	prim := g.Primary()
	if prim.Counters().Get("repl.entries_dropped") == 0 {
		t.Fatal("fault schedule dropped nothing; the test exercised no gap")
	}
	inj.DisableAll()
	resyncs := uint64(0)
	for _, r := range g.Replicas {
		resyncs += r.Counters().Get("repl.gap_resyncs")
	}
	if resyncs == 0 {
		t.Fatal("entries were dropped mid-batch but no backup tore its stream down")
	}
	expectConverged(t, g, acked)
}

// replConn is the old stop-and-wait sender's half of a replication
// stream, kept here to prove the backup still serves one: every message
// is flushed alone and every append waits for its own ack.
type replConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialRepl(t *testing.T, r *Replica, epoch uint64) (*replConn, uint64) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", r.ReplAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	c := &replConn{t: t, conn: conn, br: bufio.NewReader(conn)}
	c.send(wire.ReplMessage{Kind: wire.ReplHello, Epoch: epoch})
	hello, err := c.recv()
	if err != nil || hello.Kind != wire.ReplHello {
		t.Fatalf("handshake: %v %v", hello.Kind, err)
	}
	return c, hello.Seq
}

func (c *replConn) send(msgs ...wire.ReplMessage) {
	c.t.Helper()
	var out bytes.Buffer
	for _, m := range msgs {
		pkt, err := wire.AppendReplMessage(nil, m)
		if err != nil {
			c.t.Fatal(err)
		}
		if err := kvnet.WriteFrame(&out, pkt); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, err := c.conn.Write(out.Bytes()); err != nil { // one write: the frames arrive together
		c.t.Fatal(err)
	}
}

func (c *replConn) recv() (wire.ReplMessage, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return wire.ReplMessage{}, err
	}
	pkt, err := kvnet.ReadFrame(c.br)
	if err != nil {
		return wire.ReplMessage{}, err
	}
	return wire.DecodeReplMessage(pkt)
}

func appendMsg(t *testing.T, seq uint64) wire.ReplMessage {
	t.Helper()
	e, err := repllog.NewEntry(seq, 1, wire.Request{
		Code: wire.OpPut, Key: []byte(fmt.Sprintf("k%04d", seq)), Value: []byte(fmt.Sprintf("v%04d", seq)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return wire.ReplMessage{Kind: wire.ReplAppend, Epoch: 1, Seq: seq, Payload: e.Packet}
}

// TestChaosStopAndWaitSender drives a lone backup over the raw stream.
// A sender that ships one entry per flush gets exactly one ack per
// entry, each naming that entry; a batch sent in one flush gets a
// cumulative ack that covers its last entry; the backup logs every entry
// as it was shipped; and a batch with a hole in it is applied up to the
// hole and then the stream is closed, the backup's frontier staying at
// the last dense entry for the resync.
func TestChaosStopAndWaitSender(t *testing.T) {
	r, err := NewReplica(0, 1, 3, testConfig(), "127.0.0.1:0", "127.0.0.1:0", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	c, frontier := dialRepl(t, r, 1)
	if frontier != 0 {
		t.Fatalf("fresh backup reports frontier %d", frontier)
	}
	const single = 100
	for seq := uint64(1); seq <= single; seq++ {
		c.send(appendMsg(t, seq))
		ack, err := c.recv()
		if err != nil || ack.Kind != wire.ReplAck || ack.Seq != seq {
			t.Fatalf("entry %d: ack %v seq %d, %v — a stop-and-wait sender needs one ack per entry", seq, ack.Kind, ack.Seq, err)
		}
	}

	// One flush of 40 entries: acks may be fewer than entries, never more,
	// and the last one covers the batch.
	var batch []wire.ReplMessage
	for seq := uint64(single + 1); seq <= single+40; seq++ {
		batch = append(batch, appendMsg(t, seq))
	}
	c.send(batch...)
	acks := 0
	for acked := uint64(0); acked < single+40; acks++ {
		ack, err := c.recv()
		if err != nil || ack.Kind != wire.ReplAck || ack.Seq <= acked {
			t.Fatalf("batched acks: %v seq %d after %d, %v", ack.Kind, ack.Seq, acked, err)
		}
		acked = ack.Seq
	}
	if acks > 40 {
		t.Fatalf("%d acks for 40 entries", acks)
	}
	// The backup's log keeps each entry's own packet, not a view of the
	// frame buffer the stream reuses: promoted, it ships from that log.
	logged, err := r.log.Since(0, nil)
	if err != nil || len(logged) != single+40 {
		t.Fatalf("backup log holds %d entries (%v), want %d", len(logged), err, single+40)
	}
	for _, e := range logged {
		if want := appendMsg(t, e.Seq).Payload; !bytes.Equal(e.Packet, want) {
			t.Fatalf("logged entry %d holds % x, shipped % x", e.Seq, e.Packet, want)
		}
	}

	// A hole at +4: entries +1..+3 apply, the stream dies at the gap.
	base := uint64(single + 40)
	c.send(appendMsg(t, base+1), appendMsg(t, base+2), appendMsg(t, base+3), appendMsg(t, base+5), appendMsg(t, base+6))
	for {
		ack, err := c.recv()
		if err != nil {
			break // closed at the gap
		}
		if ack.Seq > base+3 {
			t.Fatalf("backup acked seq %d across a gap at %d", ack.Seq, base+4)
		}
	}
	if got := r.LastApplied(); got != base+3 {
		t.Fatalf("frontier after the gap = %d, want %d", got, base+3)
	}
	if got := r.Counters().Get("repl.gap_resyncs"); got != 1 {
		t.Fatalf("repl.gap_resyncs = %d, want 1", got)
	}
	if _, frontier := dialRepl(t, r, 1); frontier != base+3 {
		t.Fatalf("redial learns frontier %d, want %d", frontier, base+3)
	}
}

// TestChaosBurstShipsInBatches: 2 000 PUTs arrive 32 to a packet at
// quorum 2. Every acknowledged write must be on every replica, the three
// stores must hold identical bytes, and the primary must have shipped
// more than one entry per flush — the batches really form.
func TestChaosBurstShipsInBatches(t *testing.T) {
	g, sc := startGroupAndClient(t, fastOpts())
	acked := burst(t, sc, "burst", 2000)
	expectConverged(t, g, acked)
	c := g.Primary().Counters()
	shipped, flushes := c.Get("repl.entries_shipped"), c.Get("repl.ship_flushes")
	if shipped != 2*2000 {
		t.Fatalf("repl.entries_shipped = %d, want %d (two backups)", shipped, 2*2000)
	}
	if flushes == 0 || shipped/flushes < 2 {
		t.Fatalf("%d entries went out in %d flushes: shipping is not batching", shipped, flushes)
	}
}

// TestShipFlushesCountOnlyEntries: with ReplDropEntry at 1.0 every batch
// a voting stream writes is empty, and an empty batch is no flush — so
// repl.ship_flushes never exceeds repl.entries_shipped, and once the
// fault lifts both count again.
func TestShipFlushesCountOnlyEntries(t *testing.T) {
	inj := fault.NewInjector(11)
	inj.Set(fault.ReplDropEntry, 1)
	opts := fastOpts()
	opts.AckTimeout = 50 * time.Millisecond
	opts.Faults = inj
	g, _ := startGroupAndClient(t, opts)
	prim := g.Primary()
	c := prim.Counters()
	check := func(when string) {
		t.Helper()
		if shipped, flushes := c.Get("repl.entries_shipped"), c.Get("repl.ship_flushes"); flushes > shipped {
			t.Fatalf("%s: %d flushes for %d entries shipped — empty batches counted as flushes", when, flushes, shipped)
		}
	}
	for i := 0; i < 4; i++ {
		if res := doOne(t, prim, putOp(fmt.Sprintf("drop-%d", i), "v")); res.OK() {
			t.Fatal("PUT acknowledged though every shipped entry was dropped")
		}
	}
	if c.Get("repl.entries_dropped") == 0 {
		t.Fatal("fault schedule dropped nothing")
	}
	check("every entry dropped")

	inj.DisableAll()
	waitFor(t, 5*time.Second, "a PUT to reach quorum once the fault lifts",
		func() bool { return doOne(t, prim, putOp("after", "v")).OK() })
	if c.Get("repl.ship_flushes") == 0 {
		t.Fatal("entries reached quorum but no flush was counted")
	}
	check("after the fault")
}

// TestGroupCommitSharesFlushes: 8 clients each write 500 single PUTs
// into a 1×3 group at quorum 2 on one P. A shipper woken by the first
// writer yields before it reads the log tail, so the writers already
// queued on the P append first and their entries share its flush and
// ack; and the writers one ack settles are released together, so their
// next PUTs share a flush again. Every acknowledged write must reach
// every replica, and the primary must average more than
// groupCommitMinBatch entries a flush: about 7.1–7.5 (5.8–7.2 under
// -race, down to 5.7 with the race-enabled suite running beside it) with
// the release hold; 4.0 with the yield alone; about 3.1, or 3.5 under
// -race, with neither. The bound is that lowest -race figure less 5 %.
func TestGroupCommitSharesFlushes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const groupCommitMinBatch = 5.4
	g, _ := startGroupAndClient(t, Options{Quorum: 2})
	const writers, each = 8, 500
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]string{}
	)
	for w := 0; w < writers; w++ {
		c, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k, v := fmt.Sprintf("gc-%d-%03d", w, i), fmt.Sprintf("v-%d-%03d", w, i)
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					t.Errorf("writer %d: put %s: %v", w, k, err)
					return
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	expectConverged(t, g, acked)
	c := g.Primary().Counters()
	shipped, flushes := c.Get("repl.entries_shipped"), c.Get("repl.ship_flushes")
	perFlush := float64(shipped) / float64(max(flushes, 1))
	t.Logf("%d entries in %d flushes: %.2f entries per flush", shipped, flushes, perFlush)
	if perFlush < groupCommitMinBatch {
		t.Fatalf("%.2f entries per flush, want at least %.2f: queued writers are not sharing the shipper's flush", perFlush, groupCommitMinBatch)
	}
}

// TestGroupCommitHoldsWhenFreeRunning: two clients write single PUTs in
// a closed loop into a 1×3 group at quorum 2 on one P for a second. Two
// free-running writers over a stop-and-wait stream are bistable: in
// phase, each flush carries both their entries; staggered, each carries
// one and each writer waits behind the other's round trip. Without the
// release hold they fall out of phase within a few tens of milliseconds
// and stay there at 1.00 entries a flush; with it, the writers one ack
// settles are answered together, so over the last half second the
// primary must still ship at least groupCommitSteadyBatch entries a
// flush (about 1.95). Every acknowledged write must reach every replica.
func TestGroupCommitHoldsWhenFreeRunning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const groupCommitSteadyBatch = 1.8
	g, _ := startGroupAndClient(t, Options{Quorum: 2})
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]string{} // each key has one writer, so its last acked value is its final one
		stop  = make(chan struct{})
	)
	for w := 0; w < 2; w++ {
		c, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k, v := fmt.Sprintf("free-%d-%03d", w, i%256), fmt.Sprintf("v-%d-%d", w, i)
				if err := c.Put([]byte(k), []byte(v)); err != nil {
					t.Errorf("writer %d: put %s: %v", w, k, err)
					return
				}
				mu.Lock()
				acked[k] = v
				mu.Unlock()
			}
		}(w)
	}
	c := g.Primary().Counters()
	time.Sleep(500 * time.Millisecond) // long past the collapse, which comes within 130 ms
	shipped, flushes := c.Get("repl.entries_shipped"), c.Get("repl.ship_flushes")
	time.Sleep(500 * time.Millisecond)
	shipped, flushes = c.Get("repl.entries_shipped")-shipped, c.Get("repl.ship_flushes")-flushes
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	expectConverged(t, g, acked)
	perFlush := float64(shipped) / float64(max(flushes, 1))
	t.Logf("last 500 ms: %d entries in %d flushes, %.2f entries per flush", shipped, flushes, perFlush)
	if perFlush < groupCommitSteadyBatch {
		t.Fatalf("%.2f entries per flush in steady state, want at least %.2f: free-running writers fell out of phase", perFlush, groupCommitSteadyBatch)
	}
}

// lonePrimary starts a primary at epoch 1 of a group of three with no
// peers: a test plays its backups with recordAck.
func lonePrimary(t *testing.T, heartbeat time.Duration) *Replica {
	t.Helper()
	opts := fastOpts()
	opts.HeartbeatEvery = heartbeat
	opts.AckTimeout = time.Minute // a PUT no ack settles outlives the test unless the term ends
	prim, err := NewReplica(0, 0, 3, testConfig(), "127.0.0.1:0", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = prim.Close() })
	prim.promote(1, nil)
	return prim
}

// holdPrimary sets up a held reply: a lone primary with two PUTs parked
// in their quorum waits, then an ack that settles the first (seq 1) but
// not the second (seq 2). It returns once the first PUT's reply is held
// for the second, with the two PUTs' result channels.
func holdPrimary(t *testing.T, heartbeat time.Duration) (prim *Replica, first, second <-chan kvdirect.Result) {
	t.Helper()
	prim = lonePrimary(t, heartbeat)
	first, second = parkPut(t, prim, "first", "v"), parkPut(t, prim, "second", "v")
	prim.recordAck(1, 1, 1)
	waitFor(t, 2*time.Second, "seq 1's reply to be held for seq 2", func() bool {
		prim.mu.Lock()
		defer prim.mu.Unlock()
		return prim.heldTo == 2
	})
	return prim, first, second
}

// answer returns the result that arrives on ch within limit, failing
// the test if none does.
func answer(t *testing.T, ch <-chan kvdirect.Result, what string, limit time.Duration) kvdirect.Result {
	t.Helper()
	select {
	case res := <-ch:
		return res
	case <-time.After(limit):
		t.Fatalf("%s: no answer within %v", what, limit)
		return kvdirect.Result{}
	}
}

// TestGroupCommitReleaseHold pins how a held reply ends. A write at
// quorum whose reply waits for the tail behind it is released with that
// tail's ack, and so is the tail's own write, even if a third has since
// appended behind it; failing that ack, the hold ends at the next lease
// tick, not at AckTimeout; and a demotion or a Close during the hold
// still answers the held write OK, since its seq is committed, as it
// does a write whose ack landed just before the term ended but that woke
// only after. The write behind it, never at quorum, fails.
func TestGroupCommitReleaseHold(t *testing.T) {
	const soon = 2 * time.Second
	t.Run("released with the tail", func(t *testing.T) {
		prim, first, second := holdPrimary(t, time.Hour)
		select {
		case res := <-first:
			t.Fatalf("seq 1 answered (status %d) while seq 2, appended behind it, was not at quorum", res.Status)
		case <-time.After(50 * time.Millisecond):
		}
		// A third write lands behind seq 2 before seq 2's ack. Seq 1 waits
		// for seq 2, so seq 2 is released with it rather than held for seq
		// 3: held in turn, each reply would leave one flush behind the
		// next, and the writers would never merge into one flush.
		third := parkPut(t, prim, "third", "v")
		prim.recordAck(1, 1, 2)
		if res := answer(t, first, "seq 1", soon); !res.OK() {
			t.Fatalf("seq 1 answered %q (status %d)", res.Value, res.Status)
		}
		if res := answer(t, second, "seq 2, which seq 1 waited for", soon); !res.OK() {
			t.Fatalf("seq 2 answered %q (status %d)", res.Value, res.Status)
		}
		prim.recordAck(1, 1, 3)
		if res := answer(t, third, "seq 3", soon); !res.OK() {
			t.Fatalf("seq 3 answered %q (status %d)", res.Value, res.Status)
		}
	})
	t.Run("bounded by the lease tick", func(t *testing.T) {
		const heartbeat = 10 * time.Millisecond
		prim, first, second := holdPrimary(t, heartbeat)
		start := time.Now()
		// Well below AckTimeout (a minute) and above two ticks with room
		// for a loaded scheduler under -race.
		if res := answer(t, first, "seq 1, held for a tail no ack settles", time.Second); !res.OK() {
			t.Fatalf("seq 1 answered %q (status %d)", res.Value, res.Status)
		}
		t.Logf("seq 1 released %v after its ack (heartbeat %v)", time.Since(start), heartbeat)
		prim.recordAck(1, 1, 2)
		if res := answer(t, second, "seq 2", soon); !res.OK() {
			t.Fatalf("seq 2 answered %q (status %d)", res.Value, res.Status)
		}
	})
	for _, end := range []struct {
		name string
		do   func(*Replica)
	}{
		{"demotion", func(r *Replica) { r.maybeDemote(2, "") }},
		{"close", func(r *Replica) { _ = r.Close() }},
	} {
		t.Run(end.name+" answers OK", func(t *testing.T) {
			prim, first, second := holdPrimary(t, time.Hour)
			end.do(prim)
			if res := answer(t, first, "seq 1", soon); !res.OK() {
				t.Fatalf("committed seq 1 answered %q (status %d) after a %s during its hold", res.Value, res.Status, end.name)
			}
			if res := answer(t, second, "seq 2", soon); res.OK() {
				t.Fatalf("seq 2 acknowledged after a %s though it never reached quorum", end.name)
			}
		})
		t.Run(end.name+" before the waiter woke answers OK", func(t *testing.T) {
			prim := lonePrimary(t, time.Hour)
			put := parkPut(t, prim, "k", "v")
			prim.mu.Lock()
			prim.peerAcked = append(prim.peerAcked, peerAck{id: 1, seq: 1}) // an ack that wakes nobody
			prim.mu.Unlock()
			end.do(prim)
			if res := answer(t, put, "seq 1", soon); !res.OK() {
				t.Fatalf("seq 1, at quorum before a %s, answered %q (status %d)", end.name, res.Value, res.Status)
			}
		})
	}
}

// TestChaosMigrationDrainsPinnedTail: a live migration under write load
// with a log window far smaller than the tail that builds up while the
// snapshot transfers (stalled here, chunk by chunk, so that it always
// does). The tail must drain through the shared ship routine, which it
// can only do if the pin made the source's ring grow instead of evict.
func TestChaosMigrationDrainsPinnedTail(t *testing.T) {
	inj := fault.NewInjector(3)
	inj.Set(fault.ReplMigrateStall, 1) // 2 ms per transfer message, until the snapshot is across
	opts := fastOpts()
	opts.LogWindow = 16
	opts.SnapshotChunk = 256
	opts.Faults = inj
	coord := NewCoordinator(CoordOptions{LeaseTimeout: 5 * time.Second})
	defer coord.Close()
	src, dest, sc := startMigrationPair(t, coord, opts, 400)
	srcPrim := src.Primary()

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		acked  = map[string]int{} // key → highest acknowledged version; each key has one writer
		stop   = make(chan struct{})
		maxLen atomic.Int64
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("tail-%d-%d", w, i%64)
				if err := sc.Put([]byte(k), []byte(fmt.Sprintf("v%d", i))); err != nil {
					time.Sleep(time.Millisecond) // cutover in progress; the route republish fixes it
					continue
				}
				mu.Lock()
				acked[k] = i
				mu.Unlock()
				if n := int64(srcPrim.log.Len()); n > maxLen.Load() {
					maxLen.Store(n)
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the writers get going
	mig, err := coord.MigrateShard(0, dest.Target("node-b"))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the snapshot to cross", func() bool { return mig.State() != MigrateSnapshot })
	inj.DisableAll() // or the tail, stalled per entry, would never catch up with the writers
	if err := mig.Wait(); err != nil {
		t.Fatalf("migration under load failed: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // and a few writes onto the new group
	close(stop)
	wg.Wait()

	st := mig.Status()
	t.Logf("tail entries %d, source log peaked at %d entries (window %d), %d stream resyncs", st.Entries, maxLen.Load(), opts.LogWindow, st.Resyncs)
	if st.Entries == 0 || srcPrim.Counters().Get("repl.migration_entries") != st.Entries {
		t.Fatalf("tail entries: status %d, repl.migration_entries %d — the tail did not drain through the ship routine",
			st.Entries, srcPrim.Counters().Get("repl.migration_entries"))
	}
	if maxLen.Load() <= int64(opts.LogWindow) {
		t.Fatalf("source log never held more than %d entries (window %d): the pin did not grow the ring", maxLen.Load(), opts.LogWindow)
	}
	if srcPrim.log.Len() > opts.LogWindow && srcPrim.log.LastSeq() > 0 {
		// Unpinned at the end of the migration: one more append trims it.
		if err := srcPrim.log.Append(repllog.Entry{Seq: srcPrim.log.LastSeq() + 1}); err != nil {
			t.Fatal(err)
		}
		if got := srcPrim.log.Len(); got != opts.LogWindow {
			t.Fatalf("after the migration the source log holds %d entries, want the window %d", got, opts.LogWindow)
		}
	}
	for k, version := range acked {
		// A later write whose ack was lost to the cutover may have landed
		// too; an older value may not be what is read.
		val, found, err := sc.Get([]byte(k))
		got := -1
		if _, serr := fmt.Sscanf(string(val), "v%d", &got); err != nil || !found || serr != nil || got < version {
			t.Fatalf("acked write %s=v%d reads %q (found %v, err %v) after the migration", k, version, val, found, err)
		}
	}
}

// replicatedPutAllocs is what one steady-state quorum-2 PUT allocates
// across client, primary, both ship loops and both backups. The parent
// of the PR that introduced this test measured 68 and that PR 34; the
// rest went when kvnet's serve loop and client began to recycle their
// frame, request and packet buffers, and two more (22 → 20) when the
// replication stream began reading into a frame buffer it keeps, so only
// an APPEND's payload is copied. 19 → 5 when frame headers stopped
// escaping (peeked out of the bufio.Reader, appended into the
// bufio.Writer) and backups began decoding an entry into a scratch they
// keep. The budget is the measured count: one allocation creeping back
// fails it.
const replicatedPutAllocs = 5

// TestReplicatedPutAllocs fails when an allocation creeps back onto the
// replicated write path. It counts process-wide, so it takes every
// layer a PUT crosses: kvnet client and server, the primary's apply and
// log append, two ship-and-ack round trips, two backup applies.
func TestReplicatedPutAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations (2 per PUT here) are not the path's")
	}
	g, sc := startGroupAndClient(t, Options{Quorum: 2})
	acked := burst(t, sc, "alloc", 256)
	expectConverged(t, g, acked)
	ops := []kvdirect.Op{{Code: kvdirect.OpPut, Key: []byte("alloc-00007"), Value: bytes.Repeat([]byte("x"), 64)}}
	put := func() {
		if res, err := sc.Do(ops); err != nil || !res[0].OK() {
			t.Fatalf("put: %v %v", res, err)
		}
	}
	for i := 0; i < 200; i++ {
		put() // warm every scratch buffer and the lagging backup's too
	}
	got := testing.AllocsPerRun(2000, put)
	t.Logf("one replicated PUT allocates %.0f objects", got)
	if got > replicatedPutAllocs {
		t.Fatalf("one replicated PUT allocates %.0f objects, budget %d", got, replicatedPutAllocs)
	}
}
