package kvrepl

import (
	"testing"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// TestReplicaTelemetry covers the replica's shared-registry wiring: a
// traced write against the primary reports the quorum-wait stage and
// the store's access counts, the wire scrape sees replication gauges
// next to server counters, and the lag gauges are signed.
func TestReplicaTelemetry(t *testing.T) {
	coord := NewCoordinator(steadyCoord())
	defer coord.Close()
	g, err := StartGroup(coord, 0, 3, testConfig(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prim := g.Primary()
	if prim == nil {
		t.Fatal("no primary")
	}
	c, err := kvnet.Dial(prim.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("warm"), []byte("up")); err != nil {
		t.Fatal(err)
	}

	res, span, err := c.DoTrace([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("traced"), Value: []byte("write")},
	}, wire.TraceContext{Sampled: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || !res[0].OK() {
		t.Fatalf("traced put: %+v", res)
	}
	if span == nil || span.Server == nil {
		t.Fatalf("no server span: %+v", span)
	}
	var sawQuorum bool
	for _, st := range span.Server.Stages {
		if st.Name == "repl.quorum_wait" {
			sawQuorum = true
		}
	}
	if !sawQuorum {
		t.Errorf("traced write missing repl.quorum_wait stage: %+v", span.Server.Stages)
	}
	if span.Counts.PCIeWrites+span.Counts.DRAMLineWrites == 0 {
		t.Errorf("traced write charged no writes: %+v", span.Counts)
	}

	// The wire scrape merges replication state with server counters and
	// core gauges, all from the one shared registry.
	snap, err := c.ScrapeTelemetry()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["repl.acks"] == 0 {
		t.Errorf("scrape missing replication counters: %+v", snap.Counters)
	}
	if snap.Counters["server.ops"] == 0 {
		t.Errorf("scrape missing server counters: %+v", snap.Counters)
	}
	if snap.Gauges["core.keys"] == 0 {
		t.Errorf("scrape missing core gauges: %+v", snap.Gauges)
	}
	if _, ok := snap.IntGauges["repl.lag"]; !ok {
		t.Errorf("scrape missing signed repl.lag: %+v", snap.IntGauges)
	}
	if snap.Histogram("repl.quorum_wait_ns").Count == 0 {
		t.Error("quorum wait histogram empty after acked writes")
	}

	// PublishTelemetry refreshes the role frontier for snapshot paths
	// (the HTTP exporter calls it; it takes the replica lock itself).
	prim.PublishTelemetry()
	s := prim.Telemetry().Snapshot()
	if s.IntGauges["repl.applied_seq"] < 2 {
		t.Errorf("repl.applied_seq = %d, want >= 2", s.IntGauges["repl.applied_seq"])
	}
	if s.IntGauges["repl.epoch"] == 0 {
		t.Errorf("repl.epoch missing: %+v", s.IntGauges)
	}
}
