package main

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/workload"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// conns is the number of closed-loop client connections, one goroutine
// each. The box has two CPUs, and clients and servers share them.
const conns = 2

// spec is one workload. BENCHMARK.json records why each was chosen.
type spec struct {
	name    string
	keys    int // preloaded key ids (per tenant behind the gateway)
	keySize int
	valSize int
	batch   int // operations per call (one packet or one quiet run)
	traced  int // batches in the traced pass: a fixed count, so counts repeat
	store   kvdirect.Config
	// stream returns one connection's op stream: a function that fills
	// a batch with the next key ids and op kinds.
	stream func(wc workload.Config) func(b *batch)
	setup  func(e *env) error
}

func allSpecs() []*spec {
	return []*spec{
		// 200 000 × 80 B of payload against an 8 MiB NIC-DRAM cache: the
		// working set exceeds the cache.
		{name: "ycsb-b-single", keys: 200_000, keySize: 16, valSize: 64, batch: 1, traced: 20_000,
			store:  kvdirect.Config{MemoryBytes: 128 << 20, NICCacheBytes: 8 << 20},
			stream: ycsb(workload.YCSBB), setup: setupNative},
		// 8 B + 4 B is the paper's inline tiny-KV case (≤ 13 B lives in
		// the hash index itself).
		{name: "ycsb-a-batch32", keys: 100_000, keySize: 8, valSize: 4, batch: 32, traced: 2_000,
			store:  kvdirect.Config{MemoryBytes: 64 << 20, NICCacheBytes: 16 << 20},
			stream: ycsb(workload.YCSBA), setup: setupNative},
		{name: "repl-put-q2", keys: 20_000, keySize: 16, valSize: 64, batch: 1, traced: 20_000,
			store:  kvdirect.Config{MemoryBytes: 64 << 20},
			stream: uniformPuts, setup: setupReplicated},
		// One call is a quiet run of 16 SETs and then one of 16 GETs.
		// Timed apart, the two would make latency bimodal, and the
		// median of a bimodal sample jumps between its modes.
		{name: "gw-quiet16", keys: 50_000, keySize: 16, valSize: 64, batch: 2 * 16, traced: 2_000,
			store:  kvdirect.Config{MemoryBytes: 64 << 20},
			stream: setsThenGets, setup: setupGateway},
	}
}

// batch is the operations of one call: key ids and, per op, whether it
// writes. The op stream fills it; everything sent is rendered from it.
type batch struct {
	ids []uint32
	put []bool
}

func newBatch(n int) *batch { return &batch{ids: make([]uint32, n), put: make([]bool, n)} }

// Latency classes: samples are also kept per class where a call is all
// reads or all writes.
const (
	classGet = iota
	classPut
	classMixed
	classes
)

func (b *batch) class() int {
	puts := 0
	for _, p := range b.put {
		if p {
			puts++
		}
	}
	switch puts {
	case 0:
		return classGet
	case len(b.put):
		return classPut
	}
	return classMixed
}

func ycsb(p workload.Preset) func(workload.Config) func(*batch) {
	return func(wc workload.Config) func(*batch) {
		pg := workload.NewPreset(p, wc.Keys, wc)
		return func(b *batch) {
			for i := range b.ids {
				op := pg.Next()
				b.ids[i], b.put[i] = uint32(op.KeyID), op.Kind == workload.Put
			}
		}
	}
}

func uniformPuts(wc workload.Config) func(*batch) {
	g := workload.New(wc) // Skew 0: uniform keys
	return func(b *batch) {
		for i := range b.ids {
			b.ids[i], b.put[i] = uint32(g.NextKey()), true
		}
	}
}

// setsThenGets is the gateway connection's stream: Zipf keys, the
// first half of each batch SETs and the second half GETs.
func setsThenGets(wc workload.Config) func(*batch) {
	wc.Skew = 0.99
	g := workload.New(wc)
	return func(b *batch) {
		for i := range b.ids {
			b.ids[i], b.put[i] = uint32(g.NextKey()), i < len(b.ids)/2
		}
	}
}

// env is one workload, set up: stores preloaded, servers listening on
// loopback, two clients dialled.
type env struct {
	s    *spec
	cfg  config
	keys [][]byte // rendered once at set-up, indexed by key id
	// vals[id] is the only value key id ever holds, so every GET is
	// checked byte for byte even with two writers.
	vals  [][]byte
	conns [conns]conn
	// ops renders a batch as native operations: what the call puts on
	// the kvnet wire, or the gateway's translation of it for the
	// traced connection's tenant.
	ops func(b *batch) []kvdirect.Op
	// initial renders the preload of key ids [lo, hi) as native ops.
	initial func(lo, hi int) []kvdirect.Op
	// numKeys counts the keys in the serving store once clients idle.
	numKeys  func() uint64
	wantKeys uint64
	// readBack, if set, re-reads a sample of acknowledged writes and
	// returns how many are wrong.
	readBack func() int
	// nativeRoot says that a call is a kvnet.Client.Do, so the traced
	// pass's root spans are themselves the kvnet round trip.
	nativeRoot bool
	// replay times each inner layer of one traced batch.
	replay func(t *tracedPass, r *rec, d *[layers]time.Duration) error
	// timedLayer adds the per-layer metrics read from the servers' and
	// clients' own counters after the timed windows.
	timedLayer func(m map[string]float64)
	// tracedLayer, if set, adds the workload's own per-layer metrics,
	// measured on the idle system during the traced pass.
	tracedLayer func(t *tracedPass, m map[string]float64) error
	closers     []func()
	// firstFailure describes the first operation that failed, for the
	// note of an incorrect run.
	failOnce     sync.Once
	firstFailure string
}

// conn is one closed-loop connection.
type conn struct {
	fill func(b *batch) // next batch of this connection's op stream
	// call makes one round trip, checks every reply and returns how
	// many operations failed.
	call func(b *batch) int
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

func (e *env) nkeys() int {
	if e.cfg.smoke {
		return e.s.keys / 10
	}
	return e.s.keys
}

// stream returns connection i's op stream. The traced pass replays
// connection 0's, so its batches are the first ones the timed run sent.
func (e *env) stream(i int) func(b *batch) {
	return e.s.stream(workload.Config{Keys: uint64(e.nkeys()), KeySize: e.s.keySize,
		ValSize: e.s.valSize, Seed: e.cfg.seed*conns + int64(i)})
}

// setup builds the workload: everything up to the first timed call.
func setup(s *spec, cfg config) (*env, error) {
	e := &env{s: s, cfg: cfg, replay: replayNative}
	n := e.nkeys()
	render := workload.New(workload.Config{Keys: uint64(n), KeySize: s.keySize, ValSize: s.valSize})
	e.keys, e.vals = make([][]byte, n), make([][]byte, n)
	for id := range e.keys {
		e.keys[id] = render.KeyBytes(uint64(id))
		e.vals[id] = render.ValueBytes(uint64(id), 0)
	}
	e.wantKeys = uint64(n)
	e.initial = func(lo, hi int) []kvdirect.Op {
		ops := make([]kvdirect.Op, 0, hi-lo)
		for id := lo; id < hi; id++ {
			ops = append(ops, kvdirect.Op{Code: kvdirect.OpPut, Key: e.keys[id], Value: e.vals[id]})
		}
		return ops
	}
	e.ops = func(b *batch) []kvdirect.Op {
		ops := make([]kvdirect.Op, len(b.ids))
		for i, id := range b.ids {
			if b.put[i] {
				ops[i] = kvdirect.Op{Code: kvdirect.OpPut, Key: e.keys[id], Value: e.vals[id]}
			} else {
				ops[i] = kvdirect.Op{Code: kvdirect.OpGet, Key: e.keys[id]}
			}
		}
		return ops
	}
	if err := s.setup(e); err != nil {
		e.close()
		return nil, err
	}
	for i := range e.conns {
		e.conns[i].fill = e.stream(i)
	}
	return e, nil
}

const loadChunk = 256

// preload sends the initial contents through do, loadChunk ops a call.
func (e *env) preload(do func([]kvdirect.Op) ([]kvdirect.Result, error)) error {
	for lo := 0; lo < e.nkeys(); lo += loadChunk {
		res, err := do(e.initial(lo, min(lo+loadChunk, e.nkeys())))
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		for _, r := range res {
			if !r.OK() {
				return fmt.Errorf("preload: status %d: %s", r.Status, r.Value)
			}
		}
	}
	return nil
}

// newStore returns a store holding the workload's initial contents.
// The serving store and the traced pass's shadow store are both made
// here, so they start identical.
func (e *env) newStore() (*kvdirect.Store, error) {
	st, err := kvdirect.New(e.s.store)
	if err != nil {
		return nil, err
	}
	err = e.preload(func(ops []kvdirect.Op) ([]kvdirect.Result, error) {
		return kvdirect.Execute(st, ops), nil
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// check counts the operations of b whose result is wrong: a transport
// error, any status but OK (every key is preloaded, so NotFound is a
// failure too), or a GET whose bytes are not the key's value.
func (e *env) check(b *batch, res []kvdirect.Result, err error) int {
	if err != nil || len(res) != len(b.ids) {
		e.failed("call of %d operations: %d results, error %v", len(b.ids), len(res), err)
		return len(b.ids)
	}
	failed := 0
	for i, r := range res {
		switch {
		case !r.OK():
			e.failed("key id %d, put=%t: status %d: %s", b.ids[i], b.put[i], r.Status, r.Value)
		case !b.put[i] && !bytes.Equal(r.Value, e.vals[b.ids[i]]):
			e.failed("key id %d: GET returned %d bytes that are not its value", b.ids[i], len(r.Value))
		default:
			continue
		}
		failed++
	}
	return failed
}

// failed records what the first failed operation was.
func (e *env) failed(format string, args ...any) {
	e.failOnce.Do(func() { e.firstFailure = fmt.Sprintf(format, args...) })
}

// serveStore preloads a store and serves it over kvnet on loopback.
func (e *env) serveStore() (*kvdirect.Store, *kvnet.Server, error) {
	st, err := e.newStore()
	if err != nil {
		return nil, nil, err
	}
	e.closers = append(e.closers, st.Close)
	srv, err := kvnet.Serve(st, "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	e.closers = append(e.closers, func() { _ = srv.Close() })
	e.numKeys = st.NumKeys
	return st, srv, nil
}

// setupNative is one store behind one kvnet server, each connection a
// kvnet.Client sending its batch as one packet.
func setupNative(e *env) error {
	_, srv, err := e.serveStore()
	if err != nil {
		return err
	}
	var clients [conns]*kvnet.Client
	for i := range clients {
		cl, err := kvnet.Dial(srv.Addr())
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() { _ = cl.Close() })
		clients[i] = cl
		e.conns[i].call = func(b *batch) int {
			res, err := cl.Do(e.ops(b))
			return e.check(b, res, err)
		}
	}
	e.nativeRoot = true
	e.timedLayer = func(m map[string]float64) {
		for _, cl := range clients {
			m["kvnet.client_retries"] += float64(cl.Counters().Get("client.retries"))
			m["kvnet.client_reconnects"] += float64(cl.Counters().Get("client.reconnects"))
		}
		m["kvnet.server_bad_batches"] = float64(srv.Counters().Get("server.bad_batches"))
	}
	return nil
}

// setupReplicated is one group of three replicas with quorum 2, each
// connection a ShardedClient sending one PUT per packet to the primary.
func setupReplicated(e *env) error {
	// The default lease is 150 ms, and this VM freezes for up to a second
	// now and then: the coordinator would depose the primary, and the PUT
	// in flight would fail with "quorum not reached". A failover drill is
	// not what this workload measures, so the lease outlasts the freezes.
	coord := kvrepl.NewCoordinator(kvrepl.CoordOptions{LeaseTimeout: 5 * time.Second})
	e.closers = append(e.closers, coord.Close)
	group, err := kvrepl.StartGroup(coord, 0, 3, e.s.store, kvrepl.Options{Quorum: 2})
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() { _ = group.Close() })
	var clients [conns]*kvnet.ShardedClient
	for i := range clients {
		sc, err := kvnet.DialReplicaShards([]kvnet.ShardAddrs{group.ShardAddrs()}, kvnet.Options{})
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() { _ = sc.Close() })
		clients[i] = sc
		e.conns[i].call = func(b *batch) int {
			res, err := sc.Do(e.ops(b))
			return e.check(b, res, err)
		}
	}
	coord.OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
		for _, sc := range clients {
			_ = sc.UpdateShard(shard, addrs) //lint:allow statuserr -- a route it cannot dial shows as failed calls, which fail the run
		}
	})
	if err := e.preload(clients[0].Do); err != nil {
		return err
	}
	e.numKeys = func() uint64 {
		if p := group.Primary(); p != nil {
			return p.Store().NumKeys()
		}
		return 0 // mid-election: reported as a key-count mismatch
	}
	// Every write stores vals[id], so an acknowledged write that was
	// lost or torn shows as a wrong read from the primary.
	e.readBack = func() int {
		b := newBatch(min(1000, e.nkeys()))
		for i := range b.ids {
			b.ids[i] = uint32(i * (e.nkeys() / len(b.ids)))
		}
		res, err := clients[0].Do(e.ops(b))
		return e.check(b, res, err)
	}
	e.timedLayer = func(m map[string]float64) {
		for _, sc := range clients {
			snap := sc.Telemetry().Snapshot()
			m["kvnet.client_retries"] += float64(snap.Counters["client.retries"])
			m["kvnet.client_reconnects"] += float64(snap.Counters["client.reconnects"])
		}
		p := group.Primary()
		if p == nil {
			return
		}
		snap := p.TelemetrySnapshot()
		m["kvnet.server_bad_batches"] = float64(snap.Counters["server.bad_batches"])
		m["kvrepl.quorum_wait_p50_ns"] = float64(snap.Histogram("repl.quorum_wait_ns").P50())
		m["kvrepl.lag_max"] = float64(snap.IntGauges["repl.lag_max"])
	}
	e.tracedLayer = func(t *tracedPass, m map[string]float64) (err error) {
		m["kvrepl.put_rtt_ns"] = t.rootMeanNs()
		m["kvrepl.quorum_overhead_ns"] = t.rootMeanNs() - m["kvnet.rtt_ns_per_batch"]
		m["kvrepl.allocs_per_put"], err = t.allocsPerCall(func(r *rec) error { return allOK(clients[0].Do(r.ops)) })
		return err
	}
	return nil
}

// setupGateway is a memcache-binary gateway in front of one store (its
// backend is the in-process Server.Do, so kvnet's socket path is not
// used), each connection a SASL-authenticated tenant of its own.
func setupGateway(e *env) error {
	reg, err := kvgw.NewRegistry(kvgw.RegistryConfig{AutoCreate: true}, nil)
	if err != nil {
		return err
	}
	var tenants [conns]*kvgw.Tenant
	for i := range tenants {
		t, ok := reg.Authenticate(fmt.Sprintf("bench%d", i), "")
		if !ok {
			return fmt.Errorf("tenant bench%d refused", i)
		}
		tenants[i] = t
	}
	// What the gateway makes of a SET and a GET, so that stores can be
	// preloaded directly and the traced pass can replay the batch.
	set := func(t *kvgw.Tenant, id int) kvdirect.Op {
		op, err := kvdirect.PutVerOp(kvdirect.PutVerSet, t.Namespace(e.keys[id]), 0, 0, e.vals[id])
		if err != nil {
			panic(err) // the values are far below the wire limit
		}
		return op
	}
	e.initial = func(lo, hi int) []kvdirect.Op {
		ops := make([]kvdirect.Op, 0, conns*(hi-lo))
		for _, t := range tenants {
			for id := lo; id < hi; id++ {
				ops = append(ops, set(t, id))
			}
		}
		return ops
	}
	e.wantKeys = uint64(conns * e.nkeys())
	e.replay = replayGateway
	e.ops = func(b *batch) []kvdirect.Op {
		ops := make([]kvdirect.Op, len(b.ids))
		for i, id := range b.ids {
			if b.put[i] {
				ops[i] = set(tenants[0], int(id))
			} else {
				ops[i] = kvdirect.Op{Code: kvdirect.OpGet, Key: tenants[0].Namespace(e.keys[id])}
			}
		}
		return ops
	}
	_, srv, err := e.serveStore()
	if err != nil {
		return err
	}
	gw, err := kvgw.Serve(srv, reg, "127.0.0.1:0", kvgw.Options{})
	if err != nil {
		return err
	}
	e.closers = append(e.closers, func() { _ = gw.Close() })
	var clients [conns]*kvgw.Client
	for i, t := range tenants {
		cl, err := kvgw.DialClient(gw.Addr())
		if err != nil {
			return err
		}
		e.closers = append(e.closers, func() { _ = cl.Close() })
		if err := cl.Auth(t.Name(), ""); err != nil {
			return err
		}
		clients[i] = cl
		keys, vals := make([][]byte, e.s.batch), make([][]byte, e.s.batch)
		// The SETs of a batch come first and go out as one quiet run,
		// the GETs as a second one.
		e.conns[i].call = func(b *batch) int {
			sets := 0
			for j, id := range b.ids {
				keys[j], vals[j] = e.keys[id], e.vals[id]
				if b.put[j] {
					sets++
				}
			}
			failed := 0
			if sets > 0 {
				refused, err := cl.SetBatch(keys[:sets], vals[:sets], 0)
				if err != nil || refused > 0 {
					e.failed("SetBatch of %d: %d refused, error %v", sets, refused, err)
				}
				if err != nil {
					return len(b.ids)
				}
				failed += refused
			}
			if sets < len(b.ids) {
				got, err := cl.GetBatch(keys[sets:len(b.ids)])
				if err != nil {
					e.failed("GetBatch of %d: %v", len(b.ids)-sets, err)
					return len(b.ids)
				}
				for j := range got {
					if !bytes.Equal(got[j], vals[sets+j]) {
						e.failed("key id %d: GETQ returned %d bytes that are not its value", b.ids[sets+j], len(got[j]))
						failed++
					}
				}
			}
			return failed
		}
	}
	e.timedLayer = func(m map[string]float64) {
		m["kvnet.server_bad_batches"] = float64(srv.Counters().Get("server.bad_batches"))
	}
	e.tracedLayer = func(t *tracedPass, m map[string]float64) error {
		// Every batch so far was a 16-op quiet run; the single-item
		// probes below would dilute the ratio.
		c := gw.TelemetrySnapshot().Counters
		m["kvgw.ops_per_backend_batch"] = float64(c["gw.batched_ops"]) / float64(c["gw.batches"])
		return t.gatewayLayer(clients[0], tenants[0], m)
	}
	return nil
}
