package kvrepl

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
)

func deploy(t *testing.T, shards, replicas int, sample uint64) *Deployment {
	t.Helper()
	opts := fastOpts()
	opts.Quorum = 0 // a majority of whatever the group size is
	d, err := Deploy("127.0.0.1:0", shards, replicas, sample, testConfig(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("close %dx%d deployment: %v", shards, replicas, err)
		}
	})
	return d
}

// dialRoutes dials the deployment like a network client would, its
// routes refreshed by the coordinator.
func dialRoutes(t *testing.T, d *Deployment) *kvnet.Client {
	t.Helper()
	sc, err := kvnet.DialReplicaShards(d.Routes(), kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	d.Coordinator().OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
		_ = sc.UpdateShard(shard, addrs) //lint:allow statuserr -- best-effort route refresh; stale routes retry
	})
	return sc
}

func put(key, value string) kvdirect.Op {
	return kvdirect.Op{Code: kvdirect.OpPut, Key: []byte(key), Value: []byte(value)}
}

// TestDeploymentDoMatchesRoutes: for every topology, what the in-process
// Do writes a network client reads back (and the reverse) — one placement
// rule, one primary per shard — and a group of one is a legal group.
func TestDeploymentDoMatchesRoutes(t *testing.T) {
	for _, top := range [][2]int{{1, 1}, {3, 1}, {1, 3}, {2, 2}} {
		shards, replicas := top[0], top[1]
		t.Run(fmt.Sprintf("%dx%d", shards, replicas), func(t *testing.T) {
			d := deploy(t, shards, replicas, 0)
			routes := d.Routes()
			if len(routes) != shards {
				t.Fatalf("%d routes for %d shards", len(routes), shards)
			}
			for s, r := range routes {
				if r.Primary == "" || len(r.Backups) != replicas-1 {
					t.Fatalf("shard %d route %+v, want a primary and %d backups", s, r, replicas-1)
				}
			}
			sc := dialRoutes(t, d)
			const n = 64
			ops := make([]kvdirect.Op, n)
			for i := range ops {
				ops[i] = put(fmt.Sprintf("in-%03d", i), fmt.Sprintf("v%d", i))
			}
			res, _, err := d.DoTrace(ops, wire.TraceContext{})
			if err != nil || len(res) != n {
				t.Fatalf("DoTrace: %d results, err %v", len(res), err)
			}
			for i, r := range res {
				if !r.OK() {
					t.Fatalf("op %d: %+v", i, r)
				}
			}
			for i := 0; i < n; i++ {
				v, ok, err := sc.Get([]byte(fmt.Sprintf("in-%03d", i)))
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("network read of in-process write %d: %q %v %v", i, v, ok, err)
				}
				if err := sc.Put([]byte(fmt.Sprintf("net-%03d", i)), []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			for i := range ops {
				ops[i] = kvdirect.Op{Code: kvdirect.OpGet, Key: []byte(fmt.Sprintf("net-%03d", i))}
			}
			res, span, err := d.DoTrace(ops, wire.TraceContext{Sampled: true})
			if err != nil || span == nil || span.TraceID == 0 {
				t.Fatalf("DoTrace: span %+v, err %v", span, err)
			}
			for i, r := range res {
				if !r.OK() || string(r.Value) != "x" {
					t.Fatalf("in-process read of network write %d: %+v", i, r)
				}
			}
		})
	}
}

// TestDeploymentSamplesTracesOnReplicas is the regression test for
// -trace-sample being dropped in replicated mode: with period 1 a plain,
// unflagged client batch must leave a server span in the merged
// snapshot — from the first primary, and from a migration destination.
func TestDeploymentSamplesTracesOnReplicas(t *testing.T) {
	d := deploy(t, 1, 3, 1)
	sc := dialRoutes(t, d)
	serverSpans := func() int {
		n := 0
		for _, s := range d.TelemetrySnapshot().Spans {
			if s.Op == "PUT" {
				n++
			}
		}
		return n
	}
	if err := sc.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if serverSpans() == 0 {
		t.Fatal("period-1 sampling left no server span for a plain batch: the replicas' servers are not sampling")
	}
	old := d.group(0)
	mig, err := d.Migrate(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mig.Wait(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "the destination group to take over", func() bool { return d.group(0) != old })
	for _, r := range d.group(0).Replicas {
		if got := r.Telemetry().Tracer().SampleEvery(); got != 1 {
			t.Fatalf("migration destination replica %d samples 1 in %d, want 1 in 1", r.ID(), got)
		}
	}
}

// TestDeploymentRecordsOpLatency is the regression test for the
// replica's hand-copied apply body having the plain backend's panic
// isolation but not its instruments: every op a primary serves, a
// panicking one included, is one server.op_latency_ns observation, and
// the panic is counted in server.panics — on a group of one (what
// kvdserver runs by default) and on a replicated group, whose backups
// replay the writes without serving them.
func TestDeploymentRecordsOpLatency(t *testing.T) {
	for _, replicas := range []int{1, 3} {
		t.Run(fmt.Sprintf("1x%d", replicas), func(t *testing.T) {
			d := deploy(t, 1, replicas, 0)
			for _, r := range d.group(0).Replicas {
				r.Store().RegisterUpdateFunc(100, func(e, p uint64) uint64 { return e / (p - p) })
			}
			sc := dialRoutes(t, d)
			ops := []kvdirect.Op{{Code: kvdirect.OpUpdateScalar, Key: []byte("boom"), FuncID: 100,
				ElemWidth: 8, Param: make([]byte, 8)}}
			for i := 0; i < 10; i++ {
				ops = append(ops, put(fmt.Sprintf("k%d", i), "v"))
			}
			res, err := sc.Do(ops)
			if err != nil {
				t.Fatal(err)
			}
			if res[0].Status != kvdirect.StatusError || !strings.Contains(string(res[0].Value), "panic") {
				t.Fatalf("panicking op result = %+v, want its panic as an error", res[0])
			}
			for i, r := range res[1:] {
				if !r.OK() {
					t.Fatalf("put %d beside the panicking op: %+v", i, r)
				}
			}
			snap := d.TelemetrySnapshot()
			if got := snap.Histogram("server.op_latency_ns").Count; got != uint64(len(ops)) {
				t.Errorf("server.op_latency_ns holds %d observations for the %d ops the primary served", got, len(ops))
			}
			if snap.Counters["server.panics"] == 0 {
				t.Error("server.panics did not count the panicking op")
			}
		})
	}
}

// TestDeploymentFailoverKeepsAckedWrites kills every shard's primary
// while a network client and a memcache gateway riding the in-process Do
// are both writing: every write either path acknowledged, before or
// after, must be readable once the backups have taken over.
func TestDeploymentFailoverKeepsAckedWrites(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("%dx3", shards), func(t *testing.T) {
			d := deploy(t, shards, 3, 0)
			sc := dialRoutes(t, d)
			reg, err := kvgw.NewRegistry(kvgw.RegistryConfig{AutoCreate: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			gw, err := kvgw.Serve(d, reg, "127.0.0.1:0", kvgw.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()
			mc, err := kvgw.DialClient(gw.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer mc.Close()
			if err := mc.Auth("tenant", ""); err != nil {
				t.Fatal(err)
			}

			// Each writer counts the writes it saw acknowledged; key i of
			// a writer is acked iff i is in its set.
			var mu sync.Mutex
			acked := map[string][]int{"native": nil, "gateway": nil}
			ackedCount := func(who string) int {
				mu.Lock()
				defer mu.Unlock()
				return len(acked[who])
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			writer := func(who string, write func(key, value []byte) error) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					k := []byte(fmt.Sprintf("%s-%05d", who, i))
					if write(k, k) == nil {
						mu.Lock()
						acked[who] = append(acked[who], i)
						mu.Unlock()
					}
				}
			}
			wg.Add(2)
			go writer("native", sc.Put)
			go writer("gateway", func(k, v []byte) error { _, err := mc.Set(k, v, 0); return err })

			waitFor(t, 5*time.Second, "both writers to get going", func() bool {
				return ackedCount("native") >= 20 && ackedCount("gateway") >= 20
			})
			for s := 0; s < shards; s++ {
				if err := d.group(s).Primary().Close(); err != nil {
					t.Errorf("kill shard %d primary: %v", s, err)
				}
			}
			atKill := map[string]int{"native": ackedCount("native"), "gateway": ackedCount("gateway")}
			waitFor(t, 10*time.Second, "both writers to be acknowledged again after the failover", func() bool {
				return ackedCount("native") >= atKill["native"]+20 && ackedCount("gateway") >= atKill["gateway"]+20
			})
			close(stop)
			wg.Wait()

			if got := d.Coordinator().Counters().Get("repl.failovers"); got < uint64(shards) {
				t.Fatalf("%d failovers for %d killed primaries", got, shards)
			}
			for _, i := range acked["native"] {
				k := []byte(fmt.Sprintf("native-%05d", i))
				if v, ok, err := sc.Get(k); err != nil || !ok || string(v) != string(k) {
					t.Fatalf("acked network write %s lost: %q %v %v", k, v, ok, err)
				}
			}
			for _, i := range acked["gateway"] {
				k := []byte(fmt.Sprintf("gateway-%05d", i))
				if v, _, _, ok, err := mc.Get(k); err != nil || !ok || string(v) != string(k) {
					t.Fatalf("acked gateway write %s lost: %q %v %v", k, v, ok, err)
				}
			}
		})
	}
}

// TestDeploymentMigrateGroupOfOne: live migration is not a replicated-
// mode feature — a 1×1 deployment migrates too, under in-process writes,
// without losing one and without a second migration sneaking in.
func TestDeploymentMigrateGroupOfOne(t *testing.T) {
	d := deploy(t, 1, 1, 0)
	before := d.Routes()[0].Primary
	// The writer cycles over a small key space (the test store is 4 MiB)
	// and reports the last value it saw acknowledged per key.
	stop := make(chan struct{})
	done := make(chan map[string]string)
	go func() {
		last := map[string]string{}
		defer func() { done <- last }()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			k, v := fmt.Sprintf("k-%03d", n%256), strconv.Itoa(n)
			res, _, err := d.DoTrace([]kvdirect.Op{put(k, v)}, wire.TraceContext{})
			if err != nil || !res[0].OK() {
				t.Errorf("write %d during migration: %+v %v", n, res, err)
				return
			}
			last[k] = v
		}
	}()
	mig, err := d.Migrate(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Migrate(0); err == nil {
		t.Error("a second migration of the same shard was accepted while the first runs")
	}
	if _, err := d.Migrate(1); err == nil {
		t.Error("migration of a shard the deployment does not have was accepted")
	}
	if err := mig.Wait(); err != nil {
		t.Fatalf("1x1 migration: %v", err)
	}
	waitFor(t, 2*time.Second, "the route to move", func() bool { return d.Routes()[0].Primary != before })
	close(stop)
	last := <-done
	if len(last) == 0 {
		t.Fatal("no write completed across the migration")
	}
	for k, v := range last {
		res, _, err := d.DoTrace([]kvdirect.Op{{Code: kvdirect.OpGet, Key: []byte(k)}}, wire.TraceContext{})
		if err != nil || !res[0].OK() || string(res[0].Value) != v {
			t.Fatalf("acked write %s=%s lost in migration: %+v %v", k, v, res, err)
		}
	}
	if got := d.Coordinator().Counters().Get("repl.migrations_completed"); got != 1 {
		t.Fatalf("repl.migrations_completed = %d, want 1", got)
	}
}

// TestDeployLayoutAndErrors: fixed ports lay out as port + s*replicas +
// r, a deployment that cannot be built leaves nothing listening, and
// nonsense topologies are refused.
func TestDeployLayoutAndErrors(t *testing.T) {
	for _, bad := range []struct {
		addr             string
		shards, replicas int
	}{{"127.0.0.1:0", 0, 1}, {"127.0.0.1:0", 1, 0}, {"no-port", 1, 1}, {"127.0.0.1:http", 1, 1}} {
		if d, err := Deploy(bad.addr, bad.shards, bad.replicas, 0, testConfig(), Options{}); err == nil {
			_ = d.Close()
			t.Errorf("Deploy(%q, %d, %d) succeeded", bad.addr, bad.shards, bad.replicas)
		}
	}

	// Find four consecutive free ports by building on them.
	var d *Deployment
	var base int
	for try := 0; d == nil; try++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		base = ln.Addr().(*net.TCPAddr).Port
		_ = ln.Close()
		d, err = Deploy(net.JoinHostPort("127.0.0.1", strconv.Itoa(base)), 2, 2, 0, testConfig(), Options{})
		if err != nil && try == 20 {
			t.Fatalf("no four consecutive free ports found: %v", err)
		}
	}
	defer d.Close()
	for s, r := range d.Routes() {
		want := net.JoinHostPort("127.0.0.1", strconv.Itoa(base+2*s))
		backup := net.JoinHostPort("127.0.0.1", strconv.Itoa(base+2*s+1))
		if r.Primary != want || len(r.Backups) != 1 || r.Backups[0] != backup {
			t.Errorf("shard %d route %+v, want primary %s and backup %s", s, r, want, backup)
		}
	}

	// Shard 0 of this one would build on a free port, shard 1 collides
	// with the deployment above: the error must take shard 0 down again.
	if base < 2 {
		t.Skip("no room below the base port")
	}
	clash := net.JoinHostPort("127.0.0.1", strconv.Itoa(base-1))
	probe, err := net.Listen("tcp", clash)
	if err != nil {
		t.Skipf("port below the base is taken: %v", err)
	}
	_ = probe.Close()
	if d2, err := Deploy(clash, 2, 1, 0, testConfig(), Options{}); err == nil {
		_ = d2.Close()
		t.Fatal("Deploy over a taken port succeeded")
	}
	probe, err = net.Listen("tcp", clash)
	if err != nil {
		t.Fatalf("failed Deploy left shard 0 listening: %v", err)
	}
	_ = probe.Close()
}
