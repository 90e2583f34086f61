// Fixture for metric name convention checks.
package metrics

import (
	"sync/atomic"

	"kvdirect/internal/telemetry"
)

func record(c *telemetry.Counters, g *telemetry.Gauges, ig *telemetry.IntGauges, r *telemetry.Registry) {
	// Conforming names: layer.noun, optional snake_case and unit suffix.
	c.Add("server.ops", 1)
	g.Set("core.keys", 7)
	g.Set("repl.lag_max", 3)
	ig.Set("repl.lag", -2)
	r.Histogram("server.op_latency_ns").Observe(1)
	c.Add("dram.line_reads", 1)

	// The tracing PR's layers are in the allow-list.
	g.Set("trace.spans_published", 4)
	g.Set("blackbox.events_recorded", 2)
	g.Set("blackbox.dumps", 1)
	r.Histogram("gw.batch_latency_ns").Observe(1)

	// Violations.
	c.Add("ops", 1)              // want "does not match layer.noun"
	c.Add("server.Ops", 1)       // want "does not match layer.noun"
	g.Set("replLag", 0)          // want "does not match layer.noun"
	ig.Set("repl.lag.max", 0)    // want "does not match layer.noun"
	c.Add("server..ops", 1)      // want "does not match layer.noun"
	c.Add("server.ops-total", 1) // want "does not match layer.noun"
	c.Add("_server.ops", 1)      // want "does not match layer.noun"
	r.Histogram("latency")       // want "does not match layer.noun"
	c.Add("server.ops_", 1)      // want "does not match layer.noun"

	// Well-formed but under a layer the allow-list does not know.
	c.Add("serve.ops", 1)           // want "unknown layer"
	g.Set("tracing.spans", 0)       // want "unknown layer"
	r.Histogram("gateway.batch_ns") // want "unknown layer"

	// Runtime-built names are out of scope.
	name := "server." + suffix()
	c.Add(name, 1)

	// String first args on unrelated types are not metric names.
	other{}.Add("whatever", 1)
}

func suffix() string { return "ops" }

// A hot path that looks its metrics up by name on every call.
//
//kvd:hotpath
func hotByName(c *telemetry.Counters, ig *telemetry.IntGauges, dynamic string) {
	c.Add("server.ops", 1)        // want "hot path looks a metric up by name: Add"
	ig.Set("repl.lag", 0)         // want "hot path looks a metric up by name: Set"
	_ = c.Get(dynamic)            // want "hot path looks a metric up by name: Get"
	other{}.Add("whatever", 1)    // unrelated type: silent
	c.Handle("server.ops").Add(1) // want "hot path looks a metric up by name: Handle"
}

// The same work on handles resolved at construction: silent, as is a
// by-name bump in a deferred recover, which is not the per-op path.
//
//kvd:hotpath
func hotByHandle(c *telemetry.Counters, ops *atomic.Uint64, lagMax *atomic.Int64, lag int64) {
	defer func() {
		if recover() != nil {
			c.Add("server.panics", 1)
		}
	}()
	ops.Add(1)
	telemetry.StoreMax(lagMax, lag)
}

type other struct{}

func (other) Add(name string, v int) {}
