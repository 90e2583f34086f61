package kvnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// Options tunes a Client's resilience behaviour. The zero value gives
// sane defaults; a negative duration or count disables that mechanism.
type Options struct {
	// DialTimeout bounds connection establishment (default 10 s).
	DialTimeout time.Duration
	// ReadTimeout bounds the wait for each response frame (default 30 s,
	// negative disables). A stuck server surfaces as a timeout error
	// instead of a hang. The deadline is re-armed at half life
	// (Deadlines), so a stuck exchange times out between ReadTimeout/2
	// and ReadTimeout after it started.
	ReadTimeout time.Duration
	// WriteTimeout bounds each request write (default 30 s, negative
	// disables), re-armed at half life like ReadTimeout: a stuck write
	// times out between WriteTimeout/2 and WriteTimeout after its
	// exchange started.
	WriteTimeout time.Duration
	// MaxRetries sizes the retry budget (default 3, negative disables):
	// a call makes at most (replicas+1) × (MaxRetries+1) attempts at its
	// shard, and never fewer than 4, with exponential backoff between
	// them. Refused dials and NotPrimary redirects (nothing was applied)
	// and transport failures of idempotent batches all draw on it.
	// Batches containing non-idempotent operations (λ updates, versioned
	// stores and counters: wire.OpCode.Idempotent) are never retried
	// after a transport failure: a lost response leaves the update's fate
	// unknown, and replaying it could apply it twice. Disabled, no batch
	// is.
	MaxRetries int
	// RetryBaseDelay is the first backoff step (default 2 ms); each retry
	// doubles it up to RetryMaxDelay (default 250 ms), with jitter.
	RetryBaseDelay time.Duration
	RetryMaxDelay  time.Duration
	// Telemetry is the registry the client records into (request RTTs in
	// client.rtt_ns, resilience counters). Nil gets a private registry.
	Telemetry *telemetry.Registry
}

func (o Options) withDefaults() Options {
	def := func(d *time.Duration, v time.Duration) {
		switch {
		case *d == 0:
			*d = v
		case *d < 0:
			*d = 0 // disabled
		}
	}
	def(&o.DialTimeout, 10*time.Second)
	def(&o.ReadTimeout, 30*time.Second)
	def(&o.WriteTimeout, 30*time.Second)
	def(&o.RetryBaseDelay, 2*time.Millisecond)
	def(&o.RetryMaxDelay, 250*time.Millisecond)
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	return o
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("kvnet: client closed")

// NotPrimaryError reports that the addressed replica is not its group's
// primary; the operation was not applied, so retrying it at Hint (or any
// other replica) is always safe — even for non-idempotent updates.
type NotPrimaryError struct {
	// Hint is the current primary's address, when the replica knows it.
	Hint string
}

func (e *NotPrimaryError) Error() string {
	if e.Hint == "" {
		return "kvnet: replica is not the primary"
	}
	return "kvnet: replica is not the primary (primary at " + e.Hint + ")"
}

// Client is a KV-Direct network client: a route table of one replica set
// per shard (paper §5.2: one endpoint per programmable NIC, each owning a
// disjoint slice of the key space), keys placed by kvdirect.ShardOf, the
// placement rule every router in the repository shares. Dial's single
// server is a table of one shard with no backups; DialReplicaShards
// takes the general one.
//
// With replicated shards (kvrepl), each shard is a whole replica group:
// the client tracks every member's address, follows NotPrimary redirect
// hints, rotates to promotion candidates when the primary dies, and
// accepts routing republishes (UpdateShard) from the membership
// coordinator — so a failover is invisible to callers beyond retry
// latency. One loop (replicaSet.doTrace) owns that and every transport
// retry; see Options.MaxRetries for what it will and will not replay.
//
// It is safe for concurrent use; requests on one connection are
// serialized (batch multiple operations into one Do call for throughput,
// as the paper's clients do).
type Client struct {
	opts     Options // defaults applied, once, by newClient
	tel      *telemetry.Registry
	counters *telemetry.Counters
	rtt      *telemetry.Histogram
	shards   []*replicaSet
}

// ShardedClient is Client under the name it had while a connection and a
// route table were two types.
type ShardedClient = Client

// Dial connects to a KV-Direct server with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a KV-Direct server.
func DialOptions(addr string, opts Options) (*Client, error) {
	return DialReplicaShards([]ShardAddrs{{Primary: addr}}, opts)
}

// DialShards connects to every endpoint (one replica per shard). On
// failure, already-opened connections are closed.
func DialShards(addrs []string) (*Client, error) {
	shards := make([]ShardAddrs, len(addrs))
	for i, a := range addrs {
		shards[i] = ShardAddrs{Primary: a}
	}
	return DialReplicaShards(shards, Options{})
}

// DialReplicaShards connects to a deployment of replicated shards,
// eagerly dialing each shard's primary. Backup connections are opened
// lazily on first failover.
func DialReplicaShards(shards []ShardAddrs, opts Options) (*Client, error) {
	c, err := newClient(shards, opts)
	if err != nil {
		return nil, err
	}
	for i, rs := range c.shards {
		if _, _, err := rs.conn(); err != nil {
			_ = c.Close() // best-effort cleanup; the dial error is reported
			return nil, fmt.Errorf("kvnet: shard %d (%s): %w", i, shards[i].Primary, err)
		}
	}
	return c, nil
}

// newClient builds the route table without dialing anything.
func newClient(shards []ShardAddrs, opts Options) (*Client, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("kvnet: no shard addresses")
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	c := &Client{
		opts:     opts.withDefaults(),
		tel:      tel,
		counters: tel.Counters(),
		rtt:      tel.Histogram("client.rtt_ns"),
		shards:   make([]*replicaSet, len(shards)),
	}
	for i, sh := range shards {
		if sh.Primary == "" {
			return nil, fmt.Errorf("kvnet: shard %d has no primary address", i)
		}
		c.shards[i] = newReplicaSet(c, sh)
	}
	return c, nil
}

// Counters exposes the registry's counters: the connections'
// client.retries, client.reconnects, client.broken and
// client.corrupt_frames, and the routing layer's sharded.redirects
// (NotPrimary hints followed), sharded.rotations (blind failover
// rotations after transport errors) and sharded.route_updates
// (coordinator republishes applied).
func (c *Client) Counters() *telemetry.Counters { return c.counters }

// Telemetry returns the client's registry: the counters above, the
// client.rtt_ns round-trip latency histogram, and one trace ring that
// sharded-batch root spans and per-shard client spans share.
func (c *Client) Telemetry() *telemetry.Registry { return c.tel }

// Close closes every connection, returning the first error. Subsequent
// calls fail with ErrClosed.
func (c *Client) Close() error {
	var first error
	for _, rs := range c.shards {
		if err := rs.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// UpdateShard republishes shard i's routing — the coordinator calls this
// after a failover so clients jump straight to the new primary instead
// of discovering it by probing.
func (c *Client) UpdateShard(i int, addrs ShardAddrs) error {
	if i < 0 || i >= len(c.shards) {
		return fmt.Errorf("kvnet: shard %d out of range", i)
	}
	if addrs.Primary == "" {
		return fmt.Errorf("kvnet: shard %d republish has no primary", i)
	}
	c.shards[i].update(addrs)
	c.counters.Add("sharded.route_updates", 1)
	return nil
}

// DoTrace splits a batch by owning shard (kvdirect.DoSharded), issues
// the per-shard sub-batches and reassembles results in the original
// order. Cross-key ordering within the batch is preserved per shard only
// — the same guarantee a real multi-NIC deployment gives, since
// independent NICs do not synchronize. Transport failures on idempotent
// batches are retried with backoff (see Options); non-idempotent batches
// fail fast with the transport error.
//
// tc is what each packet's trace trailer will carry; the zero value is
// an untraced batch and returns a nil span. Sampled, the batch sits in a
// distributed trace (TraceID 0 starts a fresh one): a batch one shard
// owns returns that shard's client span — parented under tc.Parent, it
// asks the server for its span and carries the context downstream, so
// the server and, for replicated writes, the per-backup log shipping
// parent their spans under this hop's; a batch spanning shards gets a
// SHARDED root span with one client span per shard parented under it.
// A client span (also kept in the registry's trace ring) carries the
// client-measured stages, the server-side child span with its stages,
// and the PCIe/DRAM access counts the performance model charged the
// batch — the paper's per-op cost breakdown for one live operation.
func (c *Client) DoTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error) {
	if tc.Sampled && tc.TraceID == 0 {
		tc.TraceID = telemetry.NewTraceID()
	}
	var root, last *telemetry.Span
	out, err := kvdirect.DoSharded(ops, len(c.shards), func(s int, sub []kvdirect.Op) ([]kvdirect.Result, error) {
		if tc.Sampled && root == nil && len(sub) < len(ops) {
			root = c.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
			root.SetOp("SHARDED", len(ops))
			tc.Parent = root.SpanID
		}
		res, span, err := c.shards[s].doTrace(sub, tc)
		last = span
		return res, err
	})
	if root == nil {
		return out, last, err
	}
	root.SetErr(err)
	c.tel.Tracer().Publish(root)
	if err != nil {
		return nil, last, err
	}
	return out, root, nil
}

// Do is DoTrace untraced.
func (c *Client) Do(ops []kvdirect.Op) ([]kvdirect.Result, error) {
	return untraced(c.DoTrace(ops, wire.TraceContext{}))
}

// conn is one socket to one server and everything that touches it: it
// frames one batch, sends it and reads the reply, one exchange at a time.
// It has no retry, no redial and no second life — a transport error
// leaves the peer's framing state unknown (it may read leftover bytes as
// a new frame), so the conn closes itself under its lock and the replica
// set that owns it drops it and decides what happens next.
type conn struct {
	c *Client // deadlines, tracer, client.rtt_ns

	mu  sync.Mutex // one exchange in flight; guards everything below
	nc  net.Conn   // nil once closed
	r   *bufio.Reader
	w   *bufio.Writer
	dl  Deadlines
	enc []byte // the encoded request packet, reused under mu
}

// errConnClosed is an exchange that found its conn already closed — by
// a routing update, Close, or another caller's transport error — before
// anything was sent: unlike every other conn error it is unambiguous.
var errConnClosed = errors.New("kvnet: connection closed")

// errBadBatch wraps a batch the wire format cannot carry: the caller's
// error, not the connection's, so nothing is dropped or retried.
var errBadBatch = errors.New("kvnet: batch does not encode")

func (c *Client) dial(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("kvnet: %w", err)
	}
	return &conn{c: c, nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}, nil
}

// Close waits out the exchange in flight, if any, and closes the socket.
func (cn *conn) Close() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.nc == nil {
		return nil
	}
	err := cn.nc.Close()
	cn.nc = nil
	return err
}

// doTrace sends one batch and returns its results in order; see
// Client.DoTrace for what a sampled tc adds to the packet and the span.
//
//kvd:hotpath
func (cn *conn) doTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error) {
	tracer := cn.c.tel.Tracer()
	span := startSpan(tracer, tc, ops)
	cn.mu.Lock()
	defer cn.mu.Unlock()
	st := span.StartStage("client.encode")
	pkt, err := wire.AppendRequests(cn.enc[:0], ops)
	want := len(ops)
	if err == nil && span != nil {
		// The server appends one extra trailing response holding its span.
		want++
		if err = wire.MarkTraced(pkt); err == nil {
			pkt, err = wire.MarkTraceContext(pkt, wire.TraceContext{
				TraceID: span.TraceID, Parent: span.SpanID, Sampled: true,
			})
		}
	}
	st.End()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", errBadBatch, err) //lint:allow hotalloc -- the caller's malformed batch; the error is the result
	}
	cn.enc = pkt
	traceID, _ := span.Trace()
	st = span.StartStage("client.rtt")
	results, err := cn.exchange(pkt, want, traceID) //lint:allow lockorder,hotalloc -- one request in flight per connection by design: mu held across the wire exchange IS the serialization; the exchange allocates the response frame its results alias
	st.End()
	if err != nil && cn.nc != nil {
		_ = cn.nc.Close() // poisoned by the transport error, which is what is reported
		cn.nc = nil
	}
	if span == nil {
		return results, nil, err
	}
	if err != nil {
		span.SetErr(err)
		tracer.Publish(span)
		return nil, span, err
	}
	last := results[len(results)-1]
	results = results[:len(results)-1]
	if last.OK() {
		var srv telemetry.Span
		if jerr := json.Unmarshal(last.Value, &srv); jerr == nil {
			span.Server = &srv
			span.AddCounts(srv.Counts)
		}
	}
	tracer.Publish(span) // finishes TotalNs
	return results, span, nil
}

// exchange is the one place a request frame is written and its reply
// read: one round trip under the write and read deadlines — both re-armed
// at half life from the exchange's one clock reading, start — expecting
// want responses. A nonzero traceID links the RTT observation to its
// trace as a histogram exemplar. The results alias the response frame,
// which is therefore allocated per exchange and never reused.
func (cn *conn) exchange(pkt []byte, want int, traceID uint64) ([]kvdirect.Result, error) {
	if cn.nc == nil {
		return nil, errConnClosed
	}
	start := time.Now()
	if err := cn.dl.Write(cn.nc, start, cn.c.opts.WriteTimeout); err != nil {
		return nil, err // connection already unusable
	}
	if err := WriteFrame(cn.w, pkt); err != nil {
		return nil, err
	}
	if err := cn.w.Flush(); err != nil {
		return nil, err
	}
	if err := cn.dl.Read(cn.nc, start, cn.c.opts.ReadTimeout); err != nil {
		return nil, err
	}
	resp, err := ReadFrame(cn.r)
	if err != nil {
		if errors.Is(err, ErrFrameCorrupt) {
			cn.c.counters.Add("client.corrupt_frames", 1)
		}
		return nil, err
	}
	results, err := kvdirect.DecodeResults(resp)
	if err != nil {
		return nil, err
	}
	if len(results) != want {
		return nil, fmt.Errorf("kvnet: %d results for %d ops", len(results), want)
	}
	cn.c.rtt.ObserveTraced(uint64(time.Since(start).Nanoseconds()), traceID)
	return results, nil
}

// each runs a keyless operation on every shard's primary and returns the
// shards' results in shard order; a shard that refuses it fails the call.
func (c *Client) each(what string, op kvdirect.Op) ([]kvdirect.Result, error) {
	out := make([]kvdirect.Result, len(c.shards))
	for i, rs := range c.shards {
		var err error
		if out[i], err = rs.one(what, false, op); err != nil {
			return nil, fmt.Errorf("kvnet: shard %d: %w", i, err)
		}
	}
	return out, nil
}

// shard returns the replica set that owns key (kvdirect.ShardOf).
func (c *Client) shard(key []byte) *replicaSet {
	return c.shards[kvdirect.ShardOf(key, len(c.shards))]
}

// Get fetches key's value.
func (c *Client) Get(key []byte) (value []byte, found bool, err error) {
	r, err := c.shard(key).one("get", true, kvdirect.Op{Code: kvdirect.OpGet, Key: key})
	if err != nil || r.NotFound() {
		return nil, false, err
	}
	return r.Value, true, nil
}

// Put stores value under key.
func (c *Client) Put(key, value []byte) error {
	_, err := c.shard(key).one("put", false, kvdirect.Op{Code: kvdirect.OpPut, Key: key, Value: value})
	return err
}

// Delete removes key, reporting whether it existed. After a replay
// (Options.MaxRetries) existed=false can mean "already removed by this call".
func (c *Client) Delete(key []byte) (bool, error) {
	r, err := c.shard(key).one("delete", true, kvdirect.Op{Code: kvdirect.OpDelete, Key: key})
	return err == nil && r.OK(), err
}

// FetchAdd atomically adds delta to key's 8-byte counter (initializing a
// missing key from zero) and returns the previous value — the sequencer
// primitive (paper §2.1).
func (c *Client) FetchAdd(key []byte, delta uint64) (old uint64, err error) {
	var param [8]byte
	binary.LittleEndian.PutUint64(param[:], delta)
	r, err := c.shard(key).one("fetch-add", false, kvdirect.Op{
		Code: kvdirect.OpUpdateScalar, Key: key,
		FuncID: kvdirect.FnAdd, ElemWidth: 8, Param: param[:],
	})
	if len(r.Value) == 8 {
		old = binary.LittleEndian.Uint64(r.Value)
	}
	return old, err
}

// RegisterExpression compiles and installs an update λ under fnID on
// every shard's primary, making it usable in subsequent update/reduce
// operations wherever their key lives — the remote analogue of loading a
// user function into the FPGA (paper §3.2). It is a logged write, so a
// replica group replicates it to its backups. Pass filter=true to
// register a filter predicate instead.
func (c *Client) RegisterExpression(fnID uint8, expr string, filter bool) error {
	width := uint8(0)
	if filter {
		width = 1
	}
	_, err := c.each("register", kvdirect.Op{
		Code: kvdirect.OpRegister, FuncID: fnID, ElemWidth: width,
		Param: []byte(expr),
	})
	return err
}

// Reduce folds key's vector on the server and returns the accumulator.
func (c *Client) Reduce(key []byte, fnID, elemWidth uint8, init uint64) (uint64, error) {
	param := make([]byte, elemWidth)
	switch elemWidth {
	case 1:
		param[0] = byte(init)
	case 2:
		binary.LittleEndian.PutUint16(param, uint16(init))
	case 4:
		binary.LittleEndian.PutUint32(param, uint32(init))
	case 8:
		binary.LittleEndian.PutUint64(param, init)
	default:
		return 0, kvdirect.ErrBadWidth
	}
	r, err := c.shard(key).one("reduce", false, kvdirect.Op{
		Code: kvdirect.OpReduce, Key: key,
		FuncID: fnID, ElemWidth: elemWidth, Param: param,
	})
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.Value), nil
}

// ScanPage fetches one globally ordered page: up to limit pairs in
// ascending key order starting at the first key >= start. Keys are
// hash-partitioned, so the scan fans out to every shard and the
// per-shard ordered pages are k-way merged (a merge of one page is that
// page). The returned cursor is the smallest key not yet returned, nil
// once the key space is exhausted; resume by passing it as start. Scans
// are read-only and therefore retried like GETs.
func (c *Client) ScanPage(start []byte, limit int) ([]kvdirect.ScanEntry, []byte, error) {
	op, err := kvdirect.ScanOp(start, limit, nil)
	if err != nil {
		return nil, nil, err
	}
	pages := make([][]kvdirect.ScanEntry, len(c.shards))
	cursors := make([][]byte, len(c.shards))
	for i, rs := range c.shards {
		r, err := rs.one("scan", false, op)
		if err == nil {
			pages[i], cursors[i], err = kvdirect.DecodeScanResult(r)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("kvnet: shard %d: %w", i, err)
		}
	}
	entries, next := kvdirect.MergeScanPages(pages, cursors, limit)
	return entries, next, nil
}

// Scan fetches up to limit globally ordered pairs starting at start,
// following continuation cursors across as many pages as needed.
func (c *Client) Scan(start []byte, limit int) ([]kvdirect.ScanEntry, error) {
	var out []kvdirect.ScanEntry
	for cur := start; len(out) < limit; {
		entries, next, err := c.ScanPage(cur, limit-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
		if next == nil {
			break
		}
		cur = next
	}
	return out, nil
}

// Stats fetches the servers' counters as key=value lines — the NIC's
// status registers, over the wire — one "# shard i" block per shard.
func (c *Client) Stats() (string, error) {
	res, err := c.each("stats", kvdirect.Op{Code: kvdirect.OpStats})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for i, r := range res {
		fmt.Fprintf(&b, "# shard %d\n%s", i, r.Value)
	}
	return b.String(), nil
}

// ScrapeTelemetry fetches every shard primary's full telemetry snapshot
// over the KV protocol itself (OpTelemetry) and merges them: counters,
// gauges, latency histograms and retained spans, without needing the
// HTTP endpoint.
func (c *Client) ScrapeTelemetry() (telemetry.Snapshot, error) {
	res, err := c.each("telemetry", kvdirect.Op{Code: kvdirect.OpTelemetry})
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	var merged telemetry.Snapshot
	for _, r := range res {
		var snap telemetry.Snapshot
		if err := json.Unmarshal(r.Value, &snap); err != nil {
			return telemetry.Snapshot{}, fmt.Errorf("kvnet: telemetry: %w", err)
		}
		merged.Merge(snap)
	}
	return merged, nil
}
