package kvgw

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// Backend executes translated operation batches. kvnet.Client (over
// sockets, whatever its route table holds), kvnet.Server (the in-process
// loopback) and kvrepl.Deployment all satisfy it, so one gateway serves a
// single store, a sharded fleet, or a replicated group without knowing which.
// tc is the value a packet's trace trailer carries: sampled, the batch
// runs inside that distributed trace and the backend-side span comes
// back for the gateway to graft under its root; the zero TraceContext is
// an untraced batch and returns a nil span. DoTrace must not retain ops,
// nor the bytes they point to, past its return: both are the
// connection's, reused for its next run.
type Backend interface {
	DoTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error)
}

// Options configures a Gateway.
type Options struct {
	// Faults is an optional injector; the gateway consults the
	// gw_decode_corrupt and gw_tenant_quota_exhausted points.
	Faults *kvdirect.FaultInjector
	// Now supplies time for token buckets and latency histograms;
	// defaults to time.Now. Tests inject a fake clock.
	Now func() time.Time
	// TraceSampleEvery samples one backend batch in N for distributed
	// tracing (0 = off). A sampled batch becomes a GW_BATCH root span
	// whose trace context propagates through the backend — wire packet,
	// primary apply, replication ship/ack — and assembles into one tree
	// at /debug/traces.
	TraceSampleEvery uint64
}

// MaxStoredValueLen is the largest payload a gateway item can hold —
// the store's wire value cap minus the version/flags header. Larger SETs
// and concats are refused with E2BIG before they reach the backend.
const MaxStoredValueLen = 0xFFFF - 12

// Gateway is a memcache-binary-protocol listener translating onto a
// Backend. Each accepted connection authenticates as a tenant via SASL
// PLAIN, then speaks standard memcache binary. Quiet runs batch: a
// GETQ/SETQ pipeline terminated by a NOOP becomes one backend batch —
// the same shape the store's native clients send, so the gateway rides
// the wire format's batching (the paper's client-side batching, §5.4)
// instead of defeating it with per-command round trips. Connections are
// accepted, tracked and closed by its kvnet.Edge.
type Gateway struct {
	*kvnet.Edge
	backend  Backend
	reg      *Registry
	opts     Options
	tel      *telemetry.Registry
	batchLat *telemetry.Histogram
	// Counter handles resolved once (see telemetry.Counters.Handle).
	batches, batchedOps, rejections *atomic.Uint64
}

// Serve starts a gateway on addr ("host:port", ":0" for ephemeral).
func Serve(backend Backend, reg *Registry, addr string, opts Options) (*Gateway, error) {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	g := &Gateway{
		backend: backend,
		reg:     reg,
		opts:    opts,
		tel:     telemetry.NewRegistry(),
	}
	g.batchLat = g.tel.Histogram("gw.batch_latency_ns")
	g.batches = g.tel.Counters().Handle("gw.batches")
	g.batchedOps = g.tel.Counters().Handle("gw.batched_ops")
	g.rejections = g.tel.Counters().Handle("gw.quota_rejections")
	g.tel.Tracer().SetSampleEvery(opts.TraceSampleEvery)
	var err error
	if g.Edge, err = kvnet.Listen(addr, g.handle, g.tel.Counters().Handle("server.panics")); err != nil {
		return nil, err
	}
	return g, nil
}

// Tenants returns the gateway's tenant registry.
func (g *Gateway) Tenants() *Registry { return g.reg }

// Telemetry returns the gateway-wide registry (tenant-agnostic totals;
// per-tenant series come from the tenant Registry).
func (g *Gateway) Telemetry() *telemetry.Registry { return g.tel }

// TelemetrySnapshot merges the gateway-wide registry with every
// tenant's prefixed series, implementing kvnet's SnapshotSource so the
// host server's /metrics endpoint exports the gateway too.
func (g *Gateway) TelemetrySnapshot() telemetry.Snapshot {
	snap := g.tel.Snapshot()
	snap.Merge(g.reg.TelemetrySnapshot())
	return snap
}

// stepKind says how a queued step is answered.
type stepKind uint8

const (
	stepReply   stepKind = iota // no backend op: NOOP, VERSION, SASL, an error found at dispatch
	stepStat                    // no backend op: the tenant's stat sequence
	stepGet                     // OpGet
	stepStore                   // OpPutVer SET/ADD/REPLACE; delta is the new payload length
	stepConcat                  // OpPutVer APPEND/PREPEND; delta is the growth
	stepDelete                  // OpPutVer delete
	stepCounter                 // OpCounterVer
)

// step is one translated-but-unanswered request of a connection's
// pipeline, queued in request order. A step from stepGet on has put
// exactly one op on conn.ops, and complete answers it from that op's
// result; the others hold their place in the response order.
type step struct {
	kind   stepKind
	opcode uint8  // as received; loud(opcode) answers it, and differs exactly when it is quiet
	status uint16 // stepReply: nonzero answers with that status and its text
	opaque uint32
	tenant *Tenant // of a data op: as authenticated when it was dispatched
	key    []byte  // stepGet: the client's own key when the answer echoes it (GETK/GETKQ)
	value  []byte  // stepReply: the value of a successful answer
	delta  int64   // stepStore, stepConcat: payload bytes (see complete)
}

// arena is a connection's append-only byte region. Everything a queued
// step or its backend op points at — namespaced keys, PutVer parameters,
// flag-prefixed values — is written into it once, at dispatch, and stays
// put until the flush that consumed it resets it. A full chunk is left
// to the slices already cut from it and a larger one taken, so growing
// never moves bytes a step refers to.
type arena struct{ buf []byte }

// grab cuts an empty slice with room for n bytes, taking a new chunk —
// twice the last, 4 KiB at first — when the current one is full.
func (a *arena) grab(n int) []byte {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, max(n, 2*cap(a.buf), 4<<10))
	}
	off := len(a.buf)
	a.buf = a.buf[:off+n]
	return a.buf[off : off : off+n]
}

// conn is per-connection state: the authenticated tenant, buffered
// framing, and the pending pipeline — its steps, the backend batch they
// add up to, and the arena both point into, all three reused from one
// flush to the next.
type conn struct {
	g      *Gateway
	r      *bufio.Reader
	w      *bufio.Writer
	tenant *Tenant
	inbuf  []byte // holds a frame larger than r's buffer
	out    []byte
	steps  []step
	ops    []kvdirect.Op
	arena  arena
	// decodeNs accumulates memcache-frame decode time since the last
	// flush; a sampled batch claims it as its gw.decode stage. Only
	// tracked while trace sampling is on.
	decodeNs uint64
}

func (g *Gateway) handle(nc net.Conn) {
	c := &conn{g: g,
		r: bufio.NewReaderSize(nc, 64<<10),
		w: bufio.NewWriterSize(nc, 64<<10)}
	g.tel.Counters().Add("gw.connections", 1)
	for {
		// Before blocking for more input, drain the pipeline: a client
		// that sent a quiet run and is now waiting must not deadlock
		// against a gateway waiting for its terminator.
		if len(c.steps) > 0 && c.r.Buffered() < HeaderSize {
			if err := c.flush(); err != nil {
				return
			}
		}
		req, held, err := c.readRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				g.tel.Counters().Add("gw.framing_errors", 1)
			}
			return
		}
		quit := c.dispatch(req)
		// dispatch copied what it keeps into the arena; req is dead.
		if _, err := c.r.Discard(held); err != nil {
			return
		}
		if quit || !Quiet(req.Opcode) {
			if err := c.flush(); err != nil || quit {
				return
			}
		}
	}
}

// flush executes the pending pipeline — one backend batch for every op
// it contains — then emits the queued responses in request order,
// pushes them onto the wire and recycles the run's buffers.
//
//kvd:hotpath
func (c *conn) flush() error {
	var results []kvdirect.Result
	up := true
	var lat time.Duration
	if len(c.ops) > 0 {
		// One sampled batch in N becomes the root of a distributed trace:
		// the backend hop (and everything it causes — wire transfer,
		// primary apply, replication ship/ack) parents under GW_BATCH.
		span := c.g.tel.Tracer().Sample()
		var tc wire.TraceContext
		if span != nil {
			span.BeginTrace(telemetry.NewTraceID(), 0)
			span.SetOp("GW_BATCH", len(c.ops))
			span.AddStage("gw.decode", c.decodeNs)
			tc = wire.TraceContext{TraceID: span.TraceID, Parent: span.SpanID, Sampled: true}
		}
		c.decodeNs = 0
		start := c.g.opts.Now()
		var child *telemetry.Span
		var err error
		results, child, err = c.g.backend.DoTrace(c.ops, tc)
		lat = c.g.opts.Now().Sub(start)
		if err != nil || len(results) != len(c.ops) {
			up = false
		}
		if span != nil {
			span.Server = child
			span.SetErr(err)
		}
		c.g.batchLat.ObserveTraced(uint64(lat), tc.TraceID)
		c.g.tel.Tracer().Publish(span)
		c.g.batches.Add(1)
		c.g.batchedOps.Add(uint64(len(c.ops)))
	}
	next := 0
	for i := range c.steps {
		s := &c.steps[i]
		var res kvdirect.Result
		if s.kind >= stepGet {
			if up {
				res = results[next]
			}
			next++
		}
		if err := c.complete(s, res, up, lat); err != nil { //lint:allow hotalloc -- only an error answer (its status text) and STAT allocate
			return err
		}
	}
	// The backend is done with the ops and the answers are encoded, so
	// nothing needs the arena's bytes any more. An outsize run gives its
	// memory back instead of pinning it for the life of the connection.
	if cap(c.steps) > 4<<10 || cap(c.arena.buf) > 1<<20 {
		c.steps, c.ops, c.arena.buf = nil, nil, nil
	}
	c.steps, c.ops, c.arena.buf = c.steps[:0], c.ops[:0], c.arena.buf[:0]
	return c.w.Flush()
}

// complete answers one step. res is its op's result when the step has
// one and the backend was up; lat is the batch's round trip.
func (c *conn) complete(s *step, res kvdirect.Result, up bool, lat time.Duration) error {
	t := s.tenant
	switch s.kind {
	case stepReply:
		if s.status != StatusOK {
			return c.fail(s, s.status)
		}
		return c.reply(Response{Opcode: s.opcode, Opaque: s.opaque, Value: s.value})
	case stepStat:
		return c.replyStats(s)
	case stepGet:
		t.readLat.Observe(uint64(lat))
	case stepCounter:
		t.counterLat.Observe(uint64(lat))
	default:
		t.writeLat.Observe(uint64(lat))
	}
	resp := Response{Opcode: loud(s.opcode), Opaque: s.opaque}
	quiet := resp.Opcode != s.opcode
	switch {
	case !up:
		return c.fail(s, StatusTempFailure)
	case s.kind == stepGet && res.NotFound():
		t.misses.Add(1)
		if quiet {
			return nil // GETQ misses are silent
		}
		return c.fail(s, StatusKeyNotFound)
	case !res.OK():
		return c.fail(s, mapStatus(res.Status))
	}
	switch s.kind {
	case stepGet:
		t.hits.Add(1)
		item := kvdirect.DecodeGwItem(res.Value)
		var extras [4]byte
		binary.BigEndian.PutUint32(extras[:], item.Flags)
		resp.CAS, resp.Extras, resp.Key, resp.Value = item.Version, extras[:], s.key, item.Payload
		return c.reply(resp) // a hit answers a quiet GET too
	case stepStore, stepConcat:
		// True up tenant accounting from the authoritative reply: delta is
		// the stored payload length for the SET family, and the growth on
		// top of the surviving old payload for a concat.
		version, existed, oldLen, err := kvdirect.DecodePutVerResult(res)
		if err != nil {
			return c.fail(s, StatusInternalError)
		}
		keyDelta, byteDelta := int64(1), s.delta
		if existed {
			keyDelta = 0
			if s.kind == stepStore {
				byteDelta -= payloadLen(oldLen)
			}
		}
		t.account(keyDelta, byteDelta)
		resp.CAS = version
	case stepDelete:
		if _, _, oldLen, err := kvdirect.DecodePutVerResult(res); err == nil {
			t.account(-1, -payloadLen(oldLen))
		}
	case stepCounter:
		value, version, err := kvdirect.DecodeCounterResult(res)
		if err != nil {
			return c.fail(s, StatusInternalError)
		}
		if version == 1 {
			t.account(1, decimalLen(value))
		}
		var out [8]byte
		binary.BigEndian.PutUint64(out[:], value)
		resp.CAS, resp.Value = version, out[:]
	}
	if quiet {
		return nil
	}
	return c.reply(resp)
}

// readRequest decodes the next frame where it lies in the reader's
// buffer, applying the decode-corruption fault point to the raw bytes
// first. The request aliases that buffer: the caller discards the held
// bytes once it is done with the request. Only a frame larger than the
// reader is copied out (into inbuf, and then nothing is held). Every
// error leaves the stream unusable; io.EOF is a clean close between
// frames.
//
//kvd:hotpath
func (c *conn) readRequest() (req Request, held int, err error) {
	hdr, err := c.r.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Request{}, 0, err
	}
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	if bodyLen > MaxBodyLen {
		return Request{}, 0, ErrBodyLen
	}
	need := HeaderSize + bodyLen
	var buf []byte
	if need <= c.r.Size() {
		if buf, err = c.r.Peek(need); err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		held = need
	} else {
		if cap(c.inbuf) < need {
			c.inbuf = make([]byte, need) //lint:allow hotalloc -- only for a frame over 64 KiB; grows to the largest seen
		}
		buf = c.inbuf[:need]
		_, err = io.ReadFull(c.r, buf)
	}
	if err != nil {
		return Request{}, 0, err
	}
	if f := c.g.opts.Faults; f.Should(fault.GwDecodeCorrupt) {
		// Damage one byte of the frame after it left the wire: the codec
		// must reject it (or the translated op must fail loudly), never
		// misframe the stream.
		buf[f.Intn(len(buf))] ^= 1 << uint(f.Intn(8))
	}
	sampling := c.g.tel.Tracer().SampleEvery() != 0
	var dstart time.Time
	if sampling {
		dstart = c.g.opts.Now()
	}
	req, _, err = DecodeRequest(buf)
	if sampling {
		c.decodeNs += uint64(c.g.opts.Now().Sub(dstart))
	}
	return req, held, err
}

// reply writes one response frame to the buffered writer.
func (c *conn) reply(r Response) error {
	out, err := AppendResponse(c.out[:0], r)
	if err != nil {
		return err
	}
	c.out = out
	_, err = c.w.Write(out)
	return err
}

// fail answers a step with an error status and its text. Errors from
// quiet ops are still sent — only successes (and GETQ misses) elide.
func (c *conn) fail(s *step, status uint16) error {
	return c.reply(Response{Opcode: loud(s.opcode), Status: status, Opaque: s.opaque,
		Value: []byte(StatusText(status))})
}

// enqueueOp makes the step being dispatched one of kind, answered by
// op's result.
func (c *conn) enqueueOp(s *step, kind stepKind, op kvdirect.Op) {
	s.kind = kind
	c.ops = append(c.ops, op)
}

// namespaced writes a client key into the arena under the tenant's
// prefix (as Tenant.Namespace would on the heap).
func (c *conn) namespaced(key []byte) []byte {
	prefix := c.tenant.prefix
	return append(append(c.arena.grab(len(prefix)+len(key)), prefix...), key...)
}

// The values of the literal answers.
var (
	versionText  = []byte("1.6.0-kvdirect")
	saslMechs    = []byte("PLAIN")
	saslAccepted = []byte("Authenticated")
)

// dispatch translates one request into the pipeline's next step: a
// data op also puts its backend op on the batch, anything else — and a
// data op refused here — is a literal answer holding its place in the
// response order. It returns true when the connection should close
// (QUIT).
//
//kvd:hotpath
func (c *conn) dispatch(req Request) (quit bool) {
	s := step{kind: stepReply, opcode: req.Opcode, opaque: req.Opaque}
	switch req.Opcode {
	case CmdQuitQ:
		return true
	case CmdQuit:
		quit = true
	case CmdNoop:
	case CmdVersion:
		s.value = versionText
	case CmdSASLListMechs:
		s.value = saslMechs
	case CmdSASLAuth, CmdSASLStep:
		s.status, s.value = c.saslAuth(req) //lint:allow hotalloc -- authentication copies the credentials out of the frame; once per connection
	case CmdFlush, CmdFlushQ:
		// Tenant flush is an admin operation, not a data-path one;
		// refuse rather than silently ignore.
		s.status = StatusUnknownCommand
	default:
		s.status = c.dispatchData(req, &s) //lint:allow hotalloc -- the op slice and the arena the op is written to are the connection's, reused from run to run
	}
	c.steps = append(c.steps, s) //lint:allow hotalloc -- the step slice grows to the longest run seen, then is reused
	return quit
}

// dispatchData turns the step into a data op's, or returns the status
// that refuses the op (errors from quiet ops are answered too). Every
// data op needs an authenticated tenant, and its step keeps the one it
// was dispatched under.
func (c *conn) dispatchData(req Request, s *step) uint16 {
	if s.tenant = c.tenant; s.tenant == nil {
		return StatusAuthError
	}
	switch req.Opcode {
	case CmdGet, CmdGetQ, CmdGetK, CmdGetKQ:
		return c.doGet(req, s)
	case CmdSet, CmdSetQ, CmdAdd, CmdAddQ, CmdReplace, CmdReplaceQ:
		return c.doStore(req, s)
	case CmdAppend, CmdAppendQ, CmdPrepend, CmdPrependQ:
		return c.doConcat(req, s)
	case CmdDelete, CmdDeleteQ:
		return c.doDelete(req, s)
	case CmdIncr, CmdIncrQ, CmdDecr, CmdDecrQ:
		return c.doCounter(req, s)
	case CmdStat:
		s.kind = stepStat
		return StatusOK
	}
	return StatusUnknownCommand
}

// saslAuth handles SASL PLAIN: value = authzid NUL authcid NUL passwd,
// authcid naming the tenant. Auth takes effect immediately — data ops
// later in the same pipeline run as the new tenant, which is why it
// resolves at dispatch time rather than flush time.
func (c *conn) saslAuth(req Request) (status uint16, answer []byte) {
	if string(req.Key) != "PLAIN" {
		return StatusAuthError, nil
	}
	parts := splitNul(req.Value)
	if len(parts) != 3 {
		return StatusAuthError, nil
	}
	name, secret := string(parts[1]), string(parts[2])
	tenant, ok := c.g.reg.Authenticate(name, secret)
	if !ok {
		c.g.tel.Counters().Add("gw.auth_failures", 1)
		return StatusAuthError, nil
	}
	c.tenant = tenant
	c.g.tel.Counters().Add("gw.auth_success", 1)
	return StatusOK, saslAccepted
}

func splitNul(v []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range v {
		if b == 0 {
			out = append(out, v[start:i])
			start = i + 1
		}
	}
	return append(out, v[start:])
}

// admit runs tenant admission for one op, returning TEMPORARY_FAILURE
// on exhaustion. create marks ops guaranteed to grow the key count;
// growth is the pessimistic payload growth in bytes.
func (c *conn) admit(create bool, growth int) uint16 {
	t := c.tenant
	// Only a tenant with an ops/s quota has a bucket to refill, so only
	// its ops cost a clock read.
	if c.g.opts.Faults.Should(fault.GwTenantQuotaExhausted) ||
		(t.quota.OpsPerSec > 0 && !t.admitOps(1, c.g.opts.Now())) ||
		(create && !t.admitCreate()) || (growth > 0 && !t.admitBytes(growth)) {
		t.rejections.Add(1)
		c.g.rejections.Add(1)
		c.g.tel.Flight().Record(telemetry.EventQuotaReject, -1, 1, 0)
		return StatusTempFailure
	}
	t.ops.Add(1)
	return StatusOK
}

//kvd:hotpath
func (c *conn) doGet(req Request, s *step) uint16 {
	if status := c.admit(false, 0); status != StatusOK {
		return status
	}
	nsKey := c.namespaced(req.Key) //lint:allow hotalloc -- written to the connection's arena
	if req.Opcode == CmdGetK || req.Opcode == CmdGetKQ {
		// The tenant's own key, not the namespaced one: its tail.
		s.key = nsKey[len(c.tenant.prefix):]
	}
	c.enqueueOp(s, stepGet, kvdirect.Op{Code: kvdirect.OpGet, Key: nsKey}) //lint:allow hotalloc -- the op slice grows to the longest run seen, then is reused
	return StatusOK
}

// doStore handles SET/ADD/REPLACE. Extras are flags u32 | expiry u32;
// expiry is accepted and ignored (the store has no TTL — documented in
// DESIGN.md). A nonzero CAS turns SET/REPLACE into a compare-and-swap;
// on ADD it is invalid (the key must not exist, so there is no version
// to compare against).
//
//kvd:hotpath
func (c *conn) doStore(req Request, s *step) uint16 {
	if len(req.Extras) != 8 {
		return StatusInvalidArgs
	}
	if len(req.Value) > MaxStoredValueLen {
		return StatusTooLarge
	}
	var mode kvdirect.PutVerMode
	create := false
	switch loud(req.Opcode) {
	case CmdSet:
		mode = kvdirect.PutVerSet
	case CmdAdd:
		mode = kvdirect.PutVerAdd
		create = true
		if req.CAS != 0 {
			return StatusInvalidArgs
		}
	case CmdReplace:
		mode = kvdirect.PutVerReplace
	}
	if req.CAS != 0 {
		mode = kvdirect.PutVerCAS
	}
	if status := c.admit(create, len(req.Value)); status != StatusOK {
		return status
	}
	return c.enqueuePutVer(s, stepStore, req, mode, binary.BigEndian.Uint32(req.Extras)) //lint:allow hotalloc -- encodes into the connection's arena and queues on its reused op slice
}

// doConcat handles APPEND/PREPEND (no extras; CAS optionally guards).
func (c *conn) doConcat(req Request, s *step) uint16 {
	if len(req.Extras) != 0 {
		return StatusInvalidArgs
	}
	if len(req.Value) > MaxStoredValueLen {
		return StatusTooLarge
	}
	if status := c.admit(false, len(req.Value)); status != StatusOK {
		return status
	}
	mode := kvdirect.PutVerAppend
	if loud(req.Opcode) == CmdPrepend {
		mode = kvdirect.PutVerPrepend
	}
	return c.enqueuePutVer(s, stepConcat, req, mode, 0)
}

// enqueuePutVer queues a versioned store: its key, its condition and
// its flag-prefixed value are each encoded once, into the arena,
// straight from the request.
func (c *conn) enqueuePutVer(s *step, kind stepKind, req Request, mode kvdirect.PutVerMode, flags uint32) uint16 {
	op := kvdirect.Op{Code: kvdirect.OpPutVer, Key: c.namespaced(req.Key)}
	var err error
	if op.Param, err = wire.AppendPutVerParam(c.arena.grab(wire.PutVerParamBytes), mode, req.CAS); err == nil {
		op.Value, err = wire.AppendGwValue(c.arena.grab(wire.GwFlagsBytes+len(req.Value)), flags, req.Value)
	}
	if err != nil {
		return StatusTooLarge
	}
	s.delta = int64(len(req.Value))
	c.enqueueOp(s, kind, op)
	return StatusOK
}

func (c *conn) doDelete(req Request, s *step) uint16 {
	if len(req.Extras) != 0 {
		return StatusInvalidArgs
	}
	if status := c.admit(false, 0); status != StatusOK {
		return status
	}
	param, err := wire.AppendPutVerParam(c.arena.grab(wire.PutVerParamBytes), wire.PutVerDelete, req.CAS)
	if err != nil {
		return StatusInternalError
	}
	c.enqueueOp(s, stepDelete, kvdirect.Op{Code: kvdirect.OpPutVer, Key: c.namespaced(req.Key), Param: param})
	return StatusOK
}

// payloadLen converts a stored length from a PutVer reply to the user
// payload length (strips the version/flags header; native values
// without the header count whole).
func payloadLen(storedLen int) int64 {
	if storedLen >= 12 {
		return int64(storedLen - 12)
	}
	return int64(storedLen)
}

// decimalLen is the length of v as the ASCII decimal a counter item
// stores.
func decimalLen(v uint64) int64 {
	n := int64(1)
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// doCounter handles INCR/DECR. Extras are delta u64 | initial u64 |
// expiry u32; expiry 0xffffffff means "do not vivify" per the memcache
// spec, any other value vivifies with initial.
func (c *conn) doCounter(req Request, s *step) uint16 {
	if len(req.Extras) != 20 {
		return StatusInvalidArgs
	}
	delta := binary.BigEndian.Uint64(req.Extras)
	initial := binary.BigEndian.Uint64(req.Extras[8:])
	expiry := binary.BigEndian.Uint32(req.Extras[16:])
	create := expiry != 0xffffffff
	if status := c.admit(create, 20); status != StatusOK {
		return status
	}
	op, err := kvdirect.CounterOp(c.namespaced(req.Key), loud(req.Opcode) == CmdIncr, delta, initial, create)
	if err != nil {
		return StatusInternalError
	}
	c.enqueueOp(s, stepCounter, op)
	return StatusOK
}

// replyStats emits the tenant's view of the gateway as a stat sequence
// terminated by the standard empty-key frame.
func (c *conn) replyStats(s *step) error {
	t := s.tenant
	snap := t.tel.Snapshot()
	stats := []struct{ k, v string }{
		{"tenant", t.Name()},
		{"curr_items", fmt.Sprint(t.Keys())},
		{"bytes", fmt.Sprint(t.Bytes())},
		{"cmd_total", fmt.Sprint(snap.Counters["gw.ops"])},
		{"get_hits", fmt.Sprint(snap.Counters["gw.hits"])},
		{"get_misses", fmt.Sprint(snap.Counters["gw.misses"])},
		{"quota_rejections", fmt.Sprint(snap.Counters["gw.quota_rejections"])},
	}
	for _, kv := range stats {
		if err := c.reply(Response{Opcode: CmdStat, Opaque: s.opaque,
			Key: []byte(kv.k), Value: []byte(kv.v)}); err != nil {
			return err
		}
	}
	return c.reply(Response{Opcode: CmdStat, Opaque: s.opaque})
}
