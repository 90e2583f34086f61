package kvrepl

import (
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// collectSpans merges the sharded client's registry with every live
// replica's into one span pool — the same merge a metrics scrape does,
// so assembling from it exercises the real /debug/traces path.
func collectSpans(sc *kvnet.Client, g *Group) []*telemetry.Span {
	var merged telemetry.Snapshot
	merged.Merge(sc.Telemetry().Snapshot())
	for _, r := range g.Replicas {
		if r.Alive() {
			merged.Merge(r.TelemetrySnapshot())
		}
	}
	return merged.Spans
}

// TestTracedWriteAssemblesQuorumSpans drives one traced PUT through a
// 3-replica group and asserts the full tree assembles: client root →
// primary apply → per-backup REPL_SHIP and REPL_APPLY spans, with the
// primary-apply span's access counts reconciling exactly against the
// primary store's own model counters.
func TestTracedWriteAssemblesQuorumSpans(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	prim := g.Primary()
	if prim == nil {
		t.Fatal("group has no primary")
	}
	before := prim.Store().Stats()
	res, root, err := sc.DoTrace([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("traced-key"), Value: []byte("traced-value")},
	}, wire.TraceContext{Sampled: true})
	after := prim.Store().Stats()
	if err != nil {
		t.Fatalf("DoTrace: %v", err)
	}
	if len(res) != 1 || !res[0].OK() {
		t.Fatalf("traced put failed: %+v", res)
	}
	if root == nil || root.TraceID == 0 || root.Parent != 0 {
		t.Fatalf("want a root client span with a trace id, got %+v", root)
	}
	traceID := root.TraceID

	// The primary ships the entry to both backups and each backup
	// applies it; those hops publish after the quorum ack returns, so
	// wait for all four to land in the merged snapshot.
	waitFor(t, 5*time.Second, "2 REPL_SHIP + 2 REPL_APPLY spans", func() bool {
		ship, apply := 0, 0
		for _, s := range collectSpans(sc, g) {
			if s.TraceID != traceID {
				continue
			}
			switch s.Op {
			case "REPL_SHIP":
				ship++
			case "REPL_APPLY":
				apply++
			}
		}
		return ship >= 2 && apply >= 2
	})

	tr := telemetry.FindTrace(collectSpans(sc, g), traceID)
	if tr == nil {
		t.Fatalf("trace %016x not assembled", traceID)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Span.SpanID != root.SpanID {
		t.Fatalf("want the client span as sole root, got %d roots", len(tr.Roots))
	}
	if len(tr.Roots[0].Children) != 1 {
		t.Fatalf("want exactly the server span under the client, got %d children",
			len(tr.Roots[0].Children))
	}
	server := tr.Roots[0].Children[0]
	if server.Span.Parent != root.SpanID {
		t.Fatalf("server span parent %08x, want client span %08x",
			server.Span.Parent, root.SpanID)
	}
	ship, apply := 0, 0
	for _, c := range server.Children {
		switch c.Span.Op {
		case "REPL_SHIP":
			ship++
		case "REPL_APPLY":
			apply++
		}
	}
	if ship < 2 || apply < 2 {
		t.Fatalf("server span has ship=%d apply=%d children, want >=2 each", ship, apply)
	}
	if !hasStage(root.Stages, "client.rtt") {
		t.Fatalf("client span missing client.rtt stage: %+v", root.Stages)
	}
	if !hasStage(server.Span.Stages, "repl.quorum_wait") {
		t.Fatalf("server span missing repl.quorum_wait stage: %+v", server.Span.Stages)
	}

	// Reconcile: the primary-apply span's charged access counts are the
	// exact delta of the primary store's own model counters across the
	// traced call — measured, not re-derived.
	want := kvdirect.Stats{
		Mem:      after.Mem.Sub(before.Mem),
		Cache:    after.Cache.Sub(before.Cache),
		Dispatch: after.Dispatch.Sub(before.Dispatch),
	}.AccessCounts()
	if want == (telemetry.AccessCounts{}) {
		t.Fatal("primary store charged nothing for the put")
	}
	if server.Span.Counts != want {
		t.Fatalf("server span counts %+v, store delta %+v", server.Span.Counts, want)
	}
}

func hasStage(stages []telemetry.Stage, name string) bool {
	for _, s := range stages {
		if s.Name == name {
			return true
		}
	}
	return false
}

// TestFailoverMidTraceWellFormedPartialTree kills the primary and
// immediately issues a traced write: the client retries through the
// promotion inside one trace, and whatever spans survive must still
// assemble into a well-formed tree (every node non-nil, same trace ID,
// no duplicates, Visit count consistent) even though the chain has a
// cut in it.
func TestFailoverMidTraceWellFormedPartialTree(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{g.ShardAddrs()}, kvnet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
		_ = sc.UpdateShard(shard, addrs) //lint:allow statuserr -- route churn mid-failover is the scenario; a stale route self-heals on retry
	})

	if _, _, err := sc.DoTrace([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("seed"), Value: []byte("v0")},
	}, wire.TraceContext{Sampled: true}); err != nil {
		t.Fatalf("seed write: %v", err)
	}

	old := g.Primary()
	if err := old.Close(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}
	res, root, err := sc.DoTrace([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("mid-failover"), Value: []byte("v1")},
	}, wire.TraceContext{Sampled: true})
	if err != nil {
		t.Fatalf("traced write across failover: %v", err)
	}
	if len(res) != 1 || !res[0].OK() {
		t.Fatalf("write across failover failed: %+v", res)
	}
	traceID := root.TraceID

	// The new primary ships the entry to the one surviving backup.
	waitFor(t, 5*time.Second, "post-failover REPL_SHIP span", func() bool {
		for _, s := range collectSpans(sc, g) {
			if s.TraceID == traceID && s.Op == "REPL_SHIP" {
				return true
			}
		}
		return false
	})

	tr := telemetry.FindTrace(collectSpans(sc, g), traceID)
	if tr == nil {
		t.Fatalf("trace %016x not assembled after failover", traceID)
	}
	if len(tr.Roots) == 0 {
		t.Fatal("assembled trace has no roots")
	}
	seen := 0
	ids := map[uint32]bool{}
	tr.Visit(func(n *telemetry.TraceNode) {
		seen++
		if n.Span == nil {
			t.Fatal("nil span in assembled tree")
		}
		if n.Span.TraceID != traceID {
			t.Fatalf("foreign span %+v in trace %016x", n.Span, traceID)
		}
		if ids[n.Span.SpanID] {
			t.Fatalf("span %08x appears twice in the tree", n.Span.SpanID)
		}
		ids[n.Span.SpanID] = true
	})
	if seen != tr.Spans {
		t.Fatalf("Visit reached %d nodes, trace claims %d", seen, tr.Spans)
	}
}

// TestLeaseFailoverDumpsBlackBox kills a primary and asserts the
// coordinator's flight recorder freezes a black-box dump at the moment
// the lease check promotes a backup, with the failover event in it.
func TestLeaseFailoverDumpsBlackBox(t *testing.T) {
	coord := NewCoordinator(fastCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	old := g.Primary()
	if old == nil {
		t.Fatal("group has no primary")
	}
	if err := old.Close(); err != nil {
		t.Fatalf("kill primary: %v", err)
	}

	flight := coord.Telemetry().Flight()
	waitFor(t, 5*time.Second, "lease-failover black-box dump", func() bool {
		return flight.LastDump() != nil
	})
	box := flight.LastDump()
	if box.Trigger != "lease_failover" {
		t.Fatalf("dump trigger %q, want lease_failover", box.Trigger)
	}
	found := false
	for _, e := range box.Events {
		if e.Kind == telemetry.EventFailover.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("black box holds no failover event: %+v", box.Events)
	}
}
