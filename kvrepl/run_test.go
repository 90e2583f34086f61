package kvrepl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// runCounts is what a test reads off a group around one packet: the
// primary's log tail and shipped entries, and each backup's applied
// entries, by replica id.
type runCounts struct {
	seq, shipped uint64
	applied      map[int]uint64
}

func countRuns(g *Group) runCounts {
	prim := g.Primary()
	c := runCounts{seq: prim.log.LastSeq(), shipped: prim.Counters().Get("repl.entries_shipped"), applied: map[int]uint64{}}
	for _, r := range g.Replicas {
		if r != prim {
			c.applied[r.ID()] = r.Counters().Get("repl.entries_applied")
		}
	}
	return c
}

// TestGroupCommitPacketIsOneEntry: a 256-op packet of PUTs, DELETEs, one
// FETCH-ADD and one GET is one log entry — its 255 writes, the GET left
// to the primary that answers it — shipped as one APPEND to each backup
// and applied there as one run. A packet whose writes pass
// shipBatchBytes becomes one entry per 64 KiB. Every replica ends with
// the same bytes.
func TestGroupCommitPacketIsOneEntry(t *testing.T) {
	g, sc := startGroupAndClient(t, fastOpts())
	acked := burst(t, sc, "old", 64) // the DELETEs' victims
	if err := sc.Put([]byte("ctr"), binary.LittleEndian.AppendUint64(nil, 40)); err != nil {
		t.Fatal(err)
	}
	expectConverged(t, g, acked)
	prim := g.Primary()
	before := countRuns(g)

	var ops []kvdirect.Op
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("run-%03d", i), fmt.Sprintf("v-run-%03d", i)
		ops = append(ops, kvdirect.Op{Code: kvdirect.OpPut, Key: []byte(k), Value: []byte(v)})
		acked[k] = v
	}
	for i := 0; i < 54; i++ {
		k := fmt.Sprintf("old-%05d", i)
		ops = append(ops, kvdirect.Op{Code: kvdirect.OpDelete, Key: []byte(k)})
		delete(acked, k)
	}
	ops = append(ops,
		kvdirect.Op{Code: kvdirect.OpUpdateScalar, Key: []byte("ctr"), FuncID: kvdirect.FnAdd, ElemWidth: 8,
			Param: binary.LittleEndian.AppendUint64(nil, 2)},
		getOp("run-007"))
	res, root, err := sc.DoTrace(ops, wire.TraceContext{Sampled: true})
	if err != nil || len(res) != len(ops) {
		t.Fatalf("packet of %d: %d results, %v", len(ops), len(res), err)
	}
	for i, r := range res {
		if !r.OK() {
			t.Fatalf("op %d (%v %s): status %d %q", i, ops[i].Code, ops[i].Key, r.Status, r.Value)
		}
	}
	if old := binary.LittleEndian.Uint64(res[254].Value); old != 40 {
		t.Fatalf("FETCH-ADD returned %d, want 40", old)
	}
	if string(res[255].Value) != "v-run-007" {
		t.Fatalf("GET answered %q: the primary did not apply it after the packet's own PUT", res[255].Value)
	}
	acked["ctr"] = string(binary.LittleEndian.AppendUint64(nil, 42))

	// One entry, holding the writes only.
	logged, err := prim.log.Since(before.seq, nil)
	if err != nil || len(logged) != 1 {
		t.Fatalf("the packet logged %d entries (%v), want 1", len(logged), err)
	}
	run, err := wire.DecodeRequests(logged[0].Packet)
	if err != nil || len(run) != 255 {
		t.Fatalf("the entry holds %d ops (%v), want the packet's 255 writes", len(run), err)
	}
	for _, op := range run {
		if !op.Code.Mutates() {
			t.Fatalf("the entry carries a %v", op.Code)
		}
	}
	expectConverged(t, g, acked)
	for _, r := range g.Replicas {
		for i := 0; i < 54; i++ {
			if _, ok := r.Store().Get([]byte(fmt.Sprintf("old-%05d", i))); ok {
				t.Fatalf("replica %d still holds deleted old-%05d", r.ID(), i)
			}
		}
	}
	// One APPEND to each backup, counted once its ack is back.
	waitFor(t, 5*time.Second, "both APPENDs acked", func() bool {
		return prim.Counters().Get("repl.entries_shipped") >= before.shipped+2
	})
	after := countRuns(g)
	if shipped := after.shipped - before.shipped; shipped != 2 {
		t.Fatalf("the packet shipped %d entries, want one to each backup", shipped)
	}
	for id, n := range after.applied {
		if n-before.applied[id] != 1 {
			t.Fatalf("backup %d applied %d entries for one packet", id, n-before.applied[id])
		}
	}
	// Each backup applied its entry as one run: one REPL_APPLY span each,
	// covering every write.
	waitFor(t, 5*time.Second, "a REPL_APPLY span from each backup", func() bool {
		applies := 0
		for _, s := range collectSpans(sc, g) {
			if s.TraceID == root.TraceID && s.Op == "REPL_APPLY" {
				if s.Ops != 255 {
					t.Fatalf("a backup's apply span covers %d ops, want 255", s.Ops)
				}
				applies++
			}
		}
		return applies == 2
	})

	// 256 writes whose ops take 4094 bytes each: 16 to an entry, as
	// ⌈256 × 4094 B / 64 KiB⌉ = 16.
	ops, size := ops[:0], 0
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("big-%03d", i)
		v := bytes.Repeat([]byte{byte(i)}, 4094-8-len(k))
		ops = append(ops, kvdirect.Op{Code: kvdirect.OpPut, Key: []byte(k), Value: v})
		size += 4094
		acked[k] = string(v)
	}
	before = countRuns(g)
	if res, err := sc.Do(ops); err != nil || !res[255].OK() {
		t.Fatalf("large packet: %v", err)
	}
	want := (size + shipBatchBytes - 1) / shipBatchBytes
	logged, err = prim.log.Since(before.seq, nil)
	if err != nil || len(logged) != want {
		t.Fatalf("a packet of %d B of writes logged %d entries (%v), want %d", size, len(logged), err, want)
	}
	ops = ops[:0]
	for _, e := range logged {
		if len(e.Packet) > shipBatchBytes {
			t.Fatalf("entry %d is %d B, more than a flush", e.Seq, len(e.Packet))
		}
		run, err := wire.DecodeRequests(e.Packet)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, run...)
	}
	for i, op := range ops {
		if want := fmt.Sprintf("big-%03d", i); string(op.Key) != want {
			t.Fatalf("write %d of the split runs is %s, want %s", i, op.Key, want)
		}
	}
	expectConverged(t, g, acked)
}

// TestChaosRunsConvergeAcrossFailover: 32-op packets into a group whose
// primary is then partitioned from the coordinator. Once the promoted
// backup has fenced it, more packets go to the new primary, which
// replays its runs to the deposed one: every acknowledged write, before
// the failover and after, ends on every replica, byte-identical.
func TestChaosRunsConvergeAcrossFailover(t *testing.T) {
	inj := fault.NewInjector(7)
	// Long enough that a -race stall does not lapse the lease mid-burst,
	// short enough that the drilled failover is quick.
	coord := NewCoordinator(CoordOptions{LeaseTimeout: 300 * time.Millisecond, CheckEvery: 10 * time.Millisecond})
	defer coord.Close()
	g := startPartitionableGroup(t, coord, fastOpts(), inj)
	r0 := g.Replicas[0]
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
		_ = sc.UpdateShard(shard, addrs) //lint:allow statuserr -- a stale route self-heals on the NotPrimary redirect
	})

	acked := burst(t, sc, "before", 640)
	inj.Set(fault.ReplPartitionPrimary, 1)
	waitFor(t, 5*time.Second, "failover away from the partitioned primary", func() bool {
		p := g.Primary()
		return p != nil && p != r0 && p.Epoch() >= 2
	})
	waitFor(t, 5*time.Second, "old primary demoted by epoch fencing", func() bool {
		return r0.Role() == RoleBackup && r0.Epoch() >= 2
	})
	maps.Copy(acked, burst(t, sc, "after", 640))
	expectConverged(t, g, acked)
}

// TestChaosBackupPoisonsRunScratch: under -race a backup overwrites
// every element of its decode and response scratch that a run used, once
// the run has applied, so code that kept either past the apply reads an
// invalid op or status rather than the run it aliased.
func TestChaosBackupPoisonsRunScratch(t *testing.T) {
	if !raceEnabled {
		t.Skip("the scratch is poisoned in race builds only")
	}
	r, err := NewReplica(0, 1, 3, testConfig(), "127.0.0.1:0", "127.0.0.1:0", fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, _ := dialRepl(t, r, 1)
	const n = 32
	var run []wire.Request
	for i := 0; i < n; i++ {
		run = append(run, wire.Request{Code: wire.OpPut, Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte("v")})
	}
	e, err := repllog.NewEntries(nil, 1, 1, run, wire.TraceContext{}, shipBatchBytes)
	if err != nil {
		t.Fatal(err)
	}
	c.send(wire.ReplMessage{Kind: wire.ReplAppend, Epoch: 1, Seq: 1, Payload: e[0].Packet})
	if ack, err := c.recv(); err != nil || ack.Seq != 1 {
		t.Fatalf("ack %d, %v", ack.Seq, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.scratch) < n || cap(r.resps) < n {
		t.Fatalf("scratch capacity %d requests, %d responses, for a run of %d", cap(r.scratch), cap(r.resps), n)
	}
	for i, req := range r.scratch[:n] {
		if req.Code != poisonPattern || req.Key != nil {
			t.Fatalf("decode scratch %d not poisoned: %v %q", i, req.Code, req.Key)
		}
	}
	for i, resp := range r.resps[:n] {
		if resp.Status != poisonPattern {
			t.Fatalf("response scratch %d not poisoned: status %d", i, resp.Status)
		}
	}
	for _, req := range run {
		if _, ok := r.store.Get(req.Key); !ok {
			t.Fatalf("the run's %s did not apply", req.Key)
		}
	}
}
