package kvnet

import (
	"encoding/json"
	"net/http"
	"strconv"

	"kvdirect/internal/telemetry"
)

// SnapshotSource is anything that can produce a mergeable telemetry
// snapshot — a Server, a kvrepl.Deployment, a kvgw.Gateway.
type SnapshotSource interface {
	TelemetrySnapshot() telemetry.Snapshot
}

// NewTelemetrySourcesHandler returns an http.Handler exposing the
// sources' merged telemetry:
//
//	GET /metrics          Prometheus text format (with trace exemplars)
//	GET /debug/telemetry  the full Snapshot as JSON (includes spans)
//	GET /debug/traces     recent distributed traces, assembled into
//	                      trees across every source (?trace=<hex id>
//	                      filters to one; ?limit=N bounds the count)
//	GET /debug/blackbox   the flight recorder's live event ring and the
//	                      most recent anomaly dump
//
// Multiple sources (a deployment's replicas and coordinator, a gateway)
// merge into a single view — counters sum, same-named histograms combine
// bucket-wise — exercising the same mergeable-snapshot path the CLI
// uses. A Server's backend refreshes its gauges under its own lock, so
// scraping a loaded one is safe.
func NewTelemetrySourcesHandler(sources ...SnapshotSource) http.Handler {
	snapshot := func() telemetry.Snapshot {
		var merged telemetry.Snapshot
		for _, s := range sources {
			merged.Merge(s.TelemetrySnapshot())
		}
		return merged
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := telemetry.WritePrometheus(w, snapshot()); err != nil {
			// Headers are out; nothing to do but drop the connection.
			return
		}
	})
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			return
		}
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		limit := debugTracesLimit
		if v := r.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				limit = n
			}
		}
		snap := snapshot()
		var traces []*telemetry.Trace
		if v := r.URL.Query().Get("trace"); v != "" {
			id, err := strconv.ParseUint(v, 16, 64)
			if err != nil {
				http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
				return
			}
			if t := telemetry.FindTrace(snap.Spans, id); t != nil {
				traces = []*telemetry.Trace{t}
			}
		} else {
			traces = telemetry.AssembleTraces(snap.Spans, limit)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(traces); err != nil {
			return
		}
	})
	mux.HandleFunc("/debug/blackbox", func(w http.ResponseWriter, r *http.Request) {
		snap := snapshot()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Events   []telemetry.Event   `json:"events"`
			BlackBox *telemetry.BlackBox `json:"black_box,omitempty"`
		}{snap.Events, snap.BlackBox}); err != nil {
			return
		}
	})
	return mux
}

// debugTracesLimit bounds how many assembled traces /debug/traces
// returns by default.
const debugTracesLimit = 32

// RegistrySource adapts a bare telemetry registry — e.g. a
// Client's, which is not itself a Server — into a SnapshotSource
// for the merged scrape. Without it the client hop of a traced batch
// never reaches /debug/traces and assembled trees lose their middle
// span.
func RegistrySource(r *telemetry.Registry) SnapshotSource {
	return registrySource{r}
}

type registrySource struct{ r *telemetry.Registry }

func (s registrySource) TelemetrySnapshot() telemetry.Snapshot { return s.r.Snapshot() }
