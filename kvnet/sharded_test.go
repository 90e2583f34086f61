package kvnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"kvdirect"
)

// startShardedDeployment launches n servers, each fronting its own
// store, mirroring the paper's 10-NIC single-server deployment, and
// returns the stores in shard order.
func startShardedDeployment(t *testing.T, n int) ([]*kvdirect.Store, *Client) {
	t.Helper()
	stores := make([]*kvdirect.Store, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 4 << 20, Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(store.Close)
		stores[i] = store
		srv, err := Serve(store, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i] = srv.Addr()
	}
	sc, err := DialShards(addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	return stores, sc
}

func TestShardedBasics(t *testing.T) {
	stores, sc := startShardedDeployment(t, 4)
	const n = 500
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("shard-key-%04d", i))
		if err := sc.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("shard-key-%04d", i))
		v, found, err := sc.Get(k)
		if err != nil || !found || !bytes.Equal(v, k) {
			t.Fatalf("key %d: %v %v", i, found, err)
		}
	}
	// Every key landed exactly once, and every shard took a share.
	total, counts := uint64(0), make([]uint64, len(stores))
	for i, s := range stores {
		counts[i] = s.NumKeys()
		total += counts[i]
		if counts[i] == 0 {
			t.Errorf("shard %d unused: %v", i, counts)
		}
	}
	if total != n {
		t.Errorf("shards hold %d keys, want %d: %v", total, n, counts)
	}
}

func TestShardedRoutingMatchesShardOf(t *testing.T) {
	stores, sc := startShardedDeployment(t, 3)
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("route-%03d", i))
		if err := sc.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
		// Direct check: the shard the placement rule names has the key.
		if _, ok := stores[kvdirect.ShardOf(k, len(stores))].Get(k); !ok {
			t.Fatalf("key %q not on the shard ShardOf names", k)
		}
	}
}

func TestShardedDo(t *testing.T) {
	_, sc := startShardedDeployment(t, 4)
	ops := make([]kvdirect.Op, 40)
	for i := range ops {
		k := []byte(fmt.Sprintf("do-%03d", i))
		if i%2 == 0 {
			ops[i] = kvdirect.Op{Code: kvdirect.OpPut, Key: k, Value: k}
		} else {
			// GET of the key written in the previous op: different key →
			// may be a different shard, so use the same key instead.
			ops[i] = kvdirect.Op{Code: kvdirect.OpPut, Key: k, Value: []byte("v2")}
		}
	}
	res, err := sc.Do(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ops) {
		t.Fatalf("results %d != ops %d", len(res), len(ops))
	}
	for i, r := range res {
		if !r.OK() {
			t.Errorf("op %d failed: %+v", i, r)
		}
	}
}

func TestShardedFetchAdd(t *testing.T) {
	_, sc := startShardedDeployment(t, 3)
	for i := uint64(0); i < 20; i++ {
		old, err := sc.FetchAdd([]byte("seq"), 1)
		if err != nil || old != i {
			t.Fatalf("fetch-add %d: %d %v", i, old, err)
		}
	}
	// The counter lives on exactly one shard.
	v, found, err := sc.Get([]byte("seq"))
	if err != nil || !found || binary.LittleEndian.Uint64(v) != 20 {
		t.Fatalf("final counter: %v %v", found, err)
	}
}

func TestDialShardsErrors(t *testing.T) {
	if _, err := DialShards(nil); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := DialShards([]string{"127.0.0.1:1"}); err == nil {
		t.Error("unreachable shard accepted")
	}
}

func TestBatcherShipsOnFillAndFlush(t *testing.T) {
	_, c := startServer(t)
	b := c.NewBatcher(8)
	got := 0
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("batch-%02d", i))
		err := b.Submit(kvdirect.Op{Code: kvdirect.OpPut, Key: k, Value: k},
			func(r kvdirect.Result) {
				if r.OK() {
					got++
				}
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	// 16 shipped automatically (two full batches), 4 pending.
	if got != 16 || b.Pending() != 4 {
		t.Fatalf("after submits: done=%d pending=%d", got, b.Pending())
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if got != 20 || b.Pending() != 0 {
		t.Fatalf("after flush: done=%d pending=%d", got, b.Pending())
	}
	// All writes landed.
	for i := 0; i < 20; i++ {
		k := []byte(fmt.Sprintf("batch-%02d", i))
		if _, found, _ := c.Get(k); !found {
			t.Fatalf("key %d missing", i)
		}
	}
}

func TestBatcherEmptyFlush(t *testing.T) {
	_, c := startServer(t)
	b := c.NewBatcher(4)
	if err := b.Flush(); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
}

func TestBatcherOrderPreserved(t *testing.T) {
	_, c := startServer(t)
	b := c.NewBatcher(64)
	var order []string
	for i := 0; i < 10; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := b.Submit(kvdirect.Op{Code: kvdirect.OpPut, Key: []byte("same"), Value: []byte(v)}, nil); err != nil {
			t.Fatal(err)
		}
		err := b.Submit(kvdirect.Op{Code: kvdirect.OpGet, Key: []byte("same")},
			func(r kvdirect.Result) { order = append(order, string(r.Value)) })
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("in-batch ordering broken: %v", order)
		}
	}
}

func TestRegisterExpressionOverNetwork(t *testing.T) {
	_, c := startServer(t)
	if err := c.RegisterExpression(60, "min(v + p, 100)", false); err != nil {
		t.Fatal(err)
	}
	// A capped counter: adds saturate at 100.
	for i := 0; i < 30; i++ {
		if _, err := c.Do([]kvdirect.Op{{
			Code: kvdirect.OpUpdateScalar, Key: []byte("capped"),
			FuncID: 60, ElemWidth: 8, Param: u64b(7),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	v, _, _ := c.Get([]byte("capped"))
	if got := binary.LittleEndian.Uint64(v); got != 100 {
		t.Errorf("capped counter = %d, want 100", got)
	}
	// Bad expression propagates an error result.
	if err := c.RegisterExpression(61, "((", false); err == nil {
		t.Error("bad expression accepted over the network")
	}
}

func u64b(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// TestReplicaSetJitterDiffersPerSet: the retry loop used to seed a fresh backoff
// with len(ops)+1, so every client retrying a one-op batch after the
// same failover slept the same "random" delays and the fleet re-probed
// as one wave. Each set now owns a clock-seeded backoff.
func TestReplicaSetJitterDiffersPerSet(t *testing.T) {
	sh := []ShardAddrs{{Primary: "127.0.0.1:1", Backups: []string{"127.0.0.1:2"}}}
	a, _ := newClient(sh, Options{})
	b, _ := newClient(sh, Options{})
	for n := 1; n <= 16; n++ {
		if a.shards[0].backoff.Delay(n) != b.shards[0].backoff.Delay(n) {
			return
		}
	}
	t.Fatal("two replica sets for the same addresses drew identical retry delays: their retries will arrive in lock-step")
}

// TestClientDoAllocs pins the one client body: an untraced one-op round
// trip (client and server sides of one loopback exchange) through the
// route table, the retry loop and the conn costs what Do cost when a
// connection was a type of its own — the nil span is free, a one-shard
// batch passes DoSharded untouched, and with a cached connection and an
// attempt that lands the loop adds nothing: no backoff, no generator, no
// error values. Neither side's frame header leaves its bufio buffer.
func TestClientDoAllocs(t *testing.T) {
	_, c := startServer(t)
	for _, tc := range []struct {
		op   kvdirect.Op
		want float64
	}{
		{kvdirect.Op{Code: kvdirect.OpPut, Key: []byte("k"), Value: []byte("v")}, 2},
		{kvdirect.Op{Code: kvdirect.OpGet, Key: []byte("k")}, 3},
	} {
		ops := []kvdirect.Op{tc.op}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, err := c.Do(ops); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.want {
			t.Errorf("untraced %s round trip allocates %.0f objects, want %.0f", tc.op.Code, allocs, tc.want)
		}
	}
	if c.shards[0].backoff.rng != nil {
		t.Fatal("calls that never retried seeded the backoff's generator")
	}
}
