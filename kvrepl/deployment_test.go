package kvrepl

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// deploy builds shards × replicas with fast failovers, armed with faults.
func deploy(t *testing.T, shards, replicas int, sample uint64, faults *fault.Injector) *Deployment {
	t.Helper()
	cfg, opts := testConfig(), fastOpts()
	cfg.Faults, opts.Faults = faults, faults
	opts.Quorum = 0 // a majority of whatever the group size is
	d, err := Deploy("127.0.0.1:0", shards, replicas, sample, cfg, opts)
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
			d := deploy(t, shards, replicas, 0, nil)
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
	d := deploy(t, 1, 3, 1, nil)
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
			d := deploy(t, 1, replicas, 0, nil)
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

// TestDeploymentMigrateGroupOfOne: live migration is not a replicated-
// mode feature — a 1×1 deployment migrates too, without a second
// migration sneaking in. (TestContractMigration/1x1 holds its writes to
// the contract.)
func TestDeploymentMigrateGroupOfOne(t *testing.T) {
	d := deploy(t, 1, 1, 0, nil)
	before := d.Routes()[0].Primary
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
