// Command kvdserver runs a KV-Direct store behind a TCP endpoint speaking
// the batched KV-Direct wire format (see kvnet).
//
// Usage:
//
//	kvdserver [-addr host:port] [-mem bytes] [-index-ratio r]
//	          [-inline n] [-dispatch r] [-no-cache] [-no-ooo]
//	          [-shards n] [-replicas n] [-metrics host:port]
//	          [-trace-sample n] [-admin host:port] [-memcache host:port]
//	          [-tenants file] [-pprof host:port]
//
// The topology is one value, a kvrepl.Deployment of -shards × -replicas:
// every shard a replica group under an in-process coordinator that
// handles failover, replica r of shard s listening on port + s*replicas
// + r. The defaults (1 × 1) are a single store — a group of one whose
// quorum is itself; -shards 10 is the paper's multi-NIC server. The
// process logs its routes (the shard list clients dial) and serves until
// interrupted or terminated.
//
// With -metrics it additionally serves the merged telemetry of every
// replica and the coordinator over HTTP: Prometheus text on /metrics,
// the full snapshot (including sampled spans) as JSON on
// /debug/telemetry. -trace-sample n server-samples one batch in n into
// each replica's trace ring (0 disables).
//
// -admin serves the control surface: GET /routes, GET /migrations, and
// POST /migrate?shard=N to live-migrate a shard onto a fresh replica
// group (see kvdcli migrate).
//
// With -memcache the process additionally serves the memcache binary
// protocol through the kvgw gateway — multi-tenant, SASL PLAIN
// authenticated, namespaced onto the same deployment, which it calls
// in-process. -tenants points at a kvgw registry JSON (names, secrets,
// quotas); without it the gateway auto-creates an unlimited tenant per
// SASL identity. Gateway and per-tenant telemetry merge into the same
// -metrics scrape.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux

	"kvdirect"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop); err != nil {
		log.Fatalf("kvdserver: %v", err)
	}
}

// run is the whole command: flags → deployment → optional gateway,
// metrics, admin and pprof listeners → wait for stop → close everything
// it opened, in reverse.
func run(args []string, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("kvdserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7890", "listen address (replica r of shard s listens on port + s*replicas + r)")
	mem := fs.Uint64("mem", 256<<20, "host KVS memory bytes (per replica)")
	indexRatio := fs.Float64("index-ratio", 0.5, "hash index ratio")
	inline := fs.Int("inline", 13, "inline threshold in bytes (-1 disables)")
	dispatchRatio := fs.Float64("dispatch", 0.5, "load dispatch ratio")
	noCache := fs.Bool("no-cache", false, "disable the NIC DRAM cache")
	noOoO := fs.Bool("no-ooo", false, "disable out-of-order execution")
	shards := fs.Int("shards", 1, "number of NIC shards (like the 10-NIC server)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/telemetry on this address (empty disables)")
	traceSample := fs.Uint64("trace-sample", 0, "sample one batch in N for the trace rings, server-side and at the gateway (0 disables)")
	replicas := fs.Int("replicas", 1, "replicas per shard (each shard is a kvrepl replica group of this size)")
	adminAddr := fs.String("admin", "", "serve /routes, /migrations and POST /migrate on this address")
	memcacheAddr := fs.String("memcache", "", "serve the memcache binary protocol on this address (empty disables)")
	tenants := fs.String("tenants", "", "tenant registry JSON for the memcache gateway (default: auto-create, no quotas)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty disables)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h printed the usage; that was the whole request
		}
		return err
	}

	d, err := kvrepl.Deploy(*addr, *shards, *replicas, *traceSample, kvdirect.Config{
		MemoryBytes:       *mem,
		HashIndexRatio:    *indexRatio,
		InlineThreshold:   *inline,
		LoadDispatchRatio: *dispatchRatio,
		DisableCache:      *noCache,
		DisableOoO:        *noOoO,
	}, kvrepl.Options{})
	if err != nil {
		return err
	}
	defer func() {
		if err := d.Close(); err != nil {
			log.Printf("kvdserver: close: %v", err)
		}
	}()
	for s, r := range d.Routes() {
		log.Printf("kvdserver: shard %d/%d serving %d MiB on %s (backups %v)", s+1, *shards, *mem>>20, r.Primary, r.Backups)
	}
	d.Coordinator().OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
		log.Printf("kvdserver: shard %d routes to primary %s (backups %v)", shard, addrs.Primary, addrs.Backups)
	})

	sources := []kvnet.SnapshotSource{d}
	if *memcacheAddr != "" {
		gateway, err := startGateway(*memcacheAddr, *tenants, d, *traceSample)
		if err != nil {
			return err
		}
		defer gateway.Close()
		sources = append(sources, gateway)
	}
	// The pprof handlers register on http.DefaultServeMux (the package's
	// import side effect); serving that on its own listener keeps
	// profiling off the metrics mux, which stays safe to expose.
	for _, h := range []struct {
		what, addr string
		handler    http.Handler
	}{
		{"metrics", *metricsAddr, kvnet.NewTelemetrySourcesHandler(sources...)},
		{"admin", *adminAddr, adminHandler(d)},
		{"pprof", *pprofAddr, http.DefaultServeMux},
	} {
		if h.addr == "" {
			continue
		}
		ln, err := net.Listen("tcp", h.addr)
		if err != nil {
			return fmt.Errorf("%s listener: %w", h.what, err)
		}
		log.Printf("kvdserver: %s on http://%s/", h.what, ln.Addr())
		srv := &http.Server{Handler: h.handler}
		defer srv.Close()
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Printf("kvdserver: %s server: %v", h.what, err)
			}
		}()
	}

	<-stop
	return nil
}

// adminHandler is the control surface kvdcli migrate talks to.
func adminHandler(d *kvrepl.Deployment) http.Handler {
	type routeJSON struct {
		Primary string   `json:"primary"`
		Backups []string `json:"backups"`
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/routes", func(w http.ResponseWriter, r *http.Request) {
		routes := map[string]routeJSON{}
		for s, a := range d.Routes() {
			routes[strconv.Itoa(s)] = routeJSON{Primary: a.Primary, Backups: a.Backups}
		}
		writeJSON(w, routes)
	})
	mux.HandleFunc("/migrations", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, d.Coordinator().Migrations())
	})
	mux.HandleFunc("/migrate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST /migrate?shard=N", http.StatusMethodNotAllowed)
			return
		}
		shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
		if err != nil {
			http.Error(w, "bad shard: "+err.Error(), http.StatusBadRequest)
			return
		}
		mig, err := d.Migrate(shard)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, mig.Status())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //lint:allow statuserr -- HTTP response write; a vanished client is not a server error
}
