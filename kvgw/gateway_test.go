package kvgw

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// --- raw memcache-binary harness ---
//
// The harness builds and parses frames with its own encoding/binary
// code, independent of this package's codec: what it verifies is the
// bytes a stock memcached client library would put on (and expect
// from) the wire, not that the gateway agrees with itself.

type rawClient struct {
	t  *testing.T
	nc net.Conn
	r  *bufio.Reader
}

type rawResp struct {
	opcode uint8
	status uint16
	opaque uint32
	cas    uint64
	extras []byte
	key    []byte
	value  []byte
}

func rawDial(t *testing.T, addr string) *rawClient {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &rawClient{t: t, nc: nc, r: bufio.NewReader(nc)}
}

// frame hand-assembles one request per the memcache binary layout:
// magic, opcode, key length (u16 BE), extras length, datatype, vbucket,
// total body length (u32 BE), opaque, cas, then extras|key|value.
func frame(opcode uint8, opaque uint32, cas uint64, extras, key, value []byte) []byte {
	body := len(extras) + len(key) + len(value)
	out := make([]byte, 24+body)
	out[0] = 0x80
	out[1] = opcode
	binary.BigEndian.PutUint16(out[2:], uint16(len(key)))
	out[4] = uint8(len(extras))
	binary.BigEndian.PutUint32(out[8:], uint32(body))
	binary.BigEndian.PutUint32(out[12:], opaque)
	binary.BigEndian.PutUint64(out[16:], cas)
	n := 24
	n += copy(out[n:], extras)
	n += copy(out[n:], key)
	copy(out[n:], value)
	return out
}

func (rc *rawClient) send(frames ...[]byte) {
	rc.t.Helper()
	for _, f := range frames {
		if _, err := rc.nc.Write(f); err != nil {
			rc.t.Fatal(err)
		}
	}
}

func (rc *rawClient) recv() rawResp {
	rc.t.Helper()
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(rc.r, hdr); err != nil {
		rc.t.Fatalf("read response header: %v", err)
	}
	if hdr[0] != 0x81 {
		rc.t.Fatalf("response magic = %#x", hdr[0])
	}
	keyLen := int(binary.BigEndian.Uint16(hdr[2:]))
	extLen := int(hdr[4])
	bodyLen := int(binary.BigEndian.Uint32(hdr[8:]))
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(rc.r, body); err != nil {
		rc.t.Fatalf("read response body: %v", err)
	}
	return rawResp{
		opcode: hdr[1],
		status: binary.BigEndian.Uint16(hdr[6:]),
		opaque: binary.BigEndian.Uint32(hdr[12:]),
		cas:    binary.BigEndian.Uint64(hdr[16:]),
		extras: body[:extLen],
		key:    body[extLen : extLen+keyLen],
		value:  body[extLen+keyLen:],
	}
}

func (rc *rawClient) roundTrip(f []byte) rawResp {
	rc.t.Helper()
	rc.send(f)
	return rc.recv()
}

func (rc *rawClient) auth(tenant, secret string) rawResp {
	rc.t.Helper()
	val := append([]byte{0}, tenant...)
	val = append(val, 0)
	val = append(val, secret...)
	return rc.roundTrip(frame(0x21, 1, 0, nil, []byte("PLAIN"), val))
}

func (rc *rawClient) mustAuth(tenant, secret string) {
	rc.t.Helper()
	if resp := rc.auth(tenant, secret); resp.status != 0 {
		rc.t.Fatalf("auth as %q: status %#04x", tenant, resp.status)
	}
}

func storeExtras(flags uint32) []byte {
	e := make([]byte, 8)
	binary.BigEndian.PutUint32(e, flags)
	return e
}

func counterExtras(delta, initial uint64, expiry uint32) []byte {
	e := make([]byte, 20)
	binary.BigEndian.PutUint64(e, delta)
	binary.BigEndian.PutUint64(e[8:], initial)
	binary.BigEndian.PutUint32(e[16:], expiry)
	return e
}

// --- gateway fixture ---

type fixture struct {
	store   *kvdirect.Store
	server  *kvnet.Server
	gateway *Gateway
}

func startGateway(t *testing.T, cfg RegistryConfig, opts Options) *fixture {
	t.Helper()
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := kvnet.Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := NewRegistry(cfg, opts.Now)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := Serve(srv, reg, "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = gw.Close()
		_ = srv.Close()
	})
	return &fixture{store: store, server: srv, gateway: gw}
}

func twoTenants() RegistryConfig {
	return RegistryConfig{Tenants: []TenantConfig{
		{Name: "acme", Secret: "s3cret"},
		{Name: "globex"},
	}}
}

// --- acceptance: stock-framing round trips ---

func TestGatewayRoundTrips(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	rc := rawDial(t, fx.gateway.Addr())

	// SASL mechanism listing, then PLAIN auth.
	if resp := rc.roundTrip(frame(0x20, 1, 0, nil, nil, nil)); string(resp.value) != "PLAIN" {
		t.Fatalf("mech list = %q", resp.value)
	}
	rc.mustAuth("acme", "s3cret")

	// VERSION and NOOP.
	if resp := rc.roundTrip(frame(0x0b, 2, 0, nil, nil, nil)); len(resp.value) == 0 {
		t.Fatal("empty version")
	}
	if resp := rc.roundTrip(frame(0x0a, 3, 0, nil, nil, nil)); resp.status != 0 || resp.opcode != 0x0a {
		t.Fatalf("noop: %+v", resp)
	}

	// SET then GET: value, flags and CAS all round-trip.
	set := rc.roundTrip(frame(0x01, 4, 0, storeExtras(0xDEADBEEF), []byte("k"), []byte("hello")))
	if set.status != 0 || set.cas == 0 {
		t.Fatalf("set: %+v", set)
	}
	get := rc.roundTrip(frame(0x00, 5, 0, nil, []byte("k"), nil))
	if get.status != 0 || string(get.value) != "hello" || get.cas != set.cas {
		t.Fatalf("get: %+v", get)
	}
	if binary.BigEndian.Uint32(get.extras) != 0xDEADBEEF {
		t.Fatalf("flags = %#x", get.extras)
	}

	// GETK echoes the tenant's key, not the namespaced one.
	getk := rc.roundTrip(frame(0x0c, 6, 0, nil, []byte("k"), nil))
	if string(getk.key) != "k" {
		t.Fatalf("getk key = %q", getk.key)
	}

	// ADD over a live key is KEY_EXISTS; over a fresh key it stores.
	if resp := rc.roundTrip(frame(0x02, 7, 0, storeExtras(0), []byte("k"), []byte("x"))); resp.status != 0x0002 {
		t.Fatalf("add live: %#04x", resp.status)
	}
	if resp := rc.roundTrip(frame(0x02, 8, 0, storeExtras(0), []byte("k2"), []byte("x"))); resp.status != 0 {
		t.Fatalf("add fresh: %#04x", resp.status)
	}

	// REPLACE of a missing key is KEY_NOT_FOUND.
	if resp := rc.roundTrip(frame(0x03, 9, 0, storeExtras(0), []byte("nope"), []byte("x"))); resp.status != 0x0001 {
		t.Fatalf("replace missing: %#04x", resp.status)
	}

	// CAS: a stale token loses with KEY_EXISTS, the live one wins.
	if resp := rc.roundTrip(frame(0x01, 10, set.cas+99, storeExtras(0), []byte("k"), []byte("v2"))); resp.status != 0x0002 {
		t.Fatalf("stale cas: %#04x", resp.status)
	}
	cas2 := rc.roundTrip(frame(0x01, 11, set.cas, storeExtras(0), []byte("k"), []byte("v2")))
	if cas2.status != 0 || cas2.cas <= set.cas {
		t.Fatalf("cas set: %+v", cas2)
	}

	// APPEND/PREPEND (no extras), flags survive.
	if resp := rc.roundTrip(frame(0x0e, 12, 0, nil, []byte("k"), []byte("-end"))); resp.status != 0 {
		t.Fatalf("append: %#04x", resp.status)
	}
	if resp := rc.roundTrip(frame(0x0f, 13, 0, nil, []byte("k"), []byte("pre-"))); resp.status != 0 {
		t.Fatalf("prepend: %#04x", resp.status)
	}
	get2 := rc.roundTrip(frame(0x00, 14, 0, nil, []byte("k"), nil))
	if string(get2.value) != "pre-v2-end" || binary.BigEndian.Uint32(get2.extras) != 0 {
		t.Fatalf("after concat: %q %x", get2.value, get2.extras)
	}
	// APPEND to a missing key is ITEM_NOT_STORED.
	if resp := rc.roundTrip(frame(0x0e, 15, 0, nil, []byte("missing"), []byte("x"))); resp.status != 0x0005 {
		t.Fatalf("append missing: %#04x", resp.status)
	}

	// INCR vivifies with initial (delta not applied on create), then
	// applies deltas; DECR clamps at zero; non-numeric is DELTA_BADVAL;
	// expiry 0xffffffff means no vivify.
	inc := rc.roundTrip(frame(0x05, 16, 0, counterExtras(5, 100, 0), []byte("n"), nil))
	if inc.status != 0 || binary.BigEndian.Uint64(inc.value) != 100 {
		t.Fatalf("incr vivify: %+v", inc)
	}
	inc2 := rc.roundTrip(frame(0x05, 17, 0, counterExtras(5, 0, 0), []byte("n"), nil))
	if binary.BigEndian.Uint64(inc2.value) != 105 || inc2.cas <= inc.cas {
		t.Fatalf("incr: %+v", inc2)
	}
	dec := rc.roundTrip(frame(0x06, 18, 0, counterExtras(9999, 0, 0), []byte("n"), nil))
	if binary.BigEndian.Uint64(dec.value) != 0 {
		t.Fatalf("decr clamp: %+v", dec)
	}
	if resp := rc.roundTrip(frame(0x05, 19, 0, counterExtras(1, 0, 0), []byte("k"), nil)); resp.status != 0x0006 {
		t.Fatalf("incr on text: %#04x", resp.status)
	}
	if resp := rc.roundTrip(frame(0x05, 20, 0, counterExtras(1, 0, 0xffffffff), []byte("novivify"), nil)); resp.status != 0x0001 {
		t.Fatalf("incr no-vivify: %#04x", resp.status)
	}

	// DELETE, then the key is gone, then DELETE again misses.
	if resp := rc.roundTrip(frame(0x04, 21, 0, nil, []byte("k"), nil)); resp.status != 0 {
		t.Fatalf("delete: %#04x", resp.status)
	}
	if resp := rc.roundTrip(frame(0x00, 22, 0, nil, []byte("k"), nil)); resp.status != 0x0001 {
		t.Fatalf("get deleted: %#04x", resp.status)
	}
	if resp := rc.roundTrip(frame(0x04, 23, 0, nil, []byte("k"), nil)); resp.status != 0x0001 {
		t.Fatalf("delete again: %#04x", resp.status)
	}

	// STAT: a keyed sequence ending with the empty terminator.
	rc.send(frame(0x10, 24, 0, nil, nil, nil))
	seen := map[string]string{}
	for {
		resp := rc.recv()
		if len(resp.key) == 0 {
			break
		}
		seen[string(resp.key)] = string(resp.value)
	}
	if seen["tenant"] != "acme" || seen["curr_items"] == "" {
		t.Fatalf("stats: %v", seen)
	}

	// Unknown opcode and opaque echo.
	if resp := rc.roundTrip(frame(0x7f, 77, 0, nil, nil, nil)); resp.status != 0x0081 || resp.opaque != 77 {
		t.Fatalf("unknown opcode: %+v", resp)
	}

	// Oversized value is E2BIG at admission.
	big := bytes.Repeat([]byte{'a'}, MaxStoredValueLen+1)
	if resp := rc.roundTrip(frame(0x01, 25, 0, storeExtras(0), []byte("big"), big)); resp.status != 0x0003 {
		t.Fatalf("oversized set: %#04x", resp.status)
	}

	// QUIT answers then closes the connection.
	if resp := rc.roundTrip(frame(0x07, 26, 0, nil, nil, nil)); resp.status != 0 {
		t.Fatalf("quit: %#04x", resp.status)
	}
	if _, err := rc.r.ReadByte(); err == nil {
		t.Fatal("connection still open after QUIT")
	}
}

func TestGatewayAuthGating(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})

	// Data ops before auth are refused.
	rc := rawDial(t, fx.gateway.Addr())
	if resp := rc.roundTrip(frame(0x00, 1, 0, nil, []byte("k"), nil)); resp.status != 0x0020 {
		t.Fatalf("unauthenticated get: %#04x", resp.status)
	}
	// A wrong secret is refused; the right one is accepted.
	if resp := rc.auth("acme", "wrong"); resp.status != 0x0020 {
		t.Fatalf("bad secret: %#04x", resp.status)
	}
	rc.mustAuth("acme", "s3cret")
	// An unknown tenant is refused while auto-create is off.
	rc2 := rawDial(t, fx.gateway.Addr())
	if resp := rc2.auth("nobody", ""); resp.status != 0x0020 {
		t.Fatalf("unknown tenant: %#04x", resp.status)
	}
	// A secretless tenant accepts any password.
	rc3 := rawDial(t, fx.gateway.Addr())
	rc3.mustAuth("globex", "anything")
}

// TestGatewayQuietBatching: a SETQ/GETQ pipeline terminated by NOOP
// collapses into backend batches; quiet successes and GETQ misses are
// elided while errors still come back.
func TestGatewayQuietBatching(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	rc := rawDial(t, fx.gateway.Addr())
	rc.mustAuth("acme", "s3cret")

	const n = 32
	var frames []byte
	for i := 0; i < n; i++ {
		key := []byte{'q', byte(i)}
		frames = append(frames, frame(0x11, uint32(100+i), 0, storeExtras(0), key, []byte("v"))...)
	}
	frames = append(frames, frame(0x0a, 999, 0, nil, nil, nil)...)
	rc.send(frames)
	// Only the NOOP answers: every SETQ succeeded silently.
	if resp := rc.recv(); resp.opcode != 0x0a || resp.opaque != 999 {
		t.Fatalf("expected the NOOP response, got %+v", resp)
	}

	// GETQ run over hits and misses: only hits (and the NOOP) answer.
	frames = frames[:0]
	for i := 0; i < n; i++ {
		key := []byte{'q', byte(i)}
		if i%2 == 1 {
			key = []byte{'m', byte(i)} // miss
		}
		frames = append(frames, frame(0x09, uint32(200+i), 0, nil, key, nil)...)
	}
	frames = append(frames, frame(0x0a, 998, 0, nil, nil, nil)...)
	rc.send(frames)
	hits := 0
	for {
		resp := rc.recv()
		if resp.opcode == 0x0a {
			break
		}
		if resp.status != 0 {
			t.Fatalf("GETQ answered a miss: %+v", resp)
		}
		hits++
	}
	if hits != n/2 {
		t.Fatalf("got %d GETQ hits, want %d", hits, n/2)
	}

	// The pipeline actually batched: far fewer backend batches than ops.
	snap := fx.gateway.Telemetry().Snapshot()
	batches, ops := snap.Counters["gw.batches"], snap.Counters["gw.batched_ops"]
	if ops < 2*n {
		t.Fatalf("batched_ops = %d, want >= %d", ops, 2*n)
	}
	if batches*4 > ops {
		t.Fatalf("batching too weak: %d batches for %d ops", batches, ops)
	}
}

// TestGatewayQuotas: ops/s exhaustion returns TEMPORARY_FAILURE, only
// the throttled tenant is affected, and its rejections never reach the
// backend or the other tenant's telemetry.
func TestGatewayQuotas(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	cfg := RegistryConfig{Tenants: []TenantConfig{
		{Name: "throttled", Quota: Quota{OpsPerSec: 1, Burst: 3}},
		{Name: "neighbor"},
	}}
	fx := startGateway(t, cfg, Options{Now: now})

	th := rawDial(t, fx.gateway.Addr())
	th.mustAuth("throttled", "")
	nb := rawDial(t, fx.gateway.Addr())
	nb.mustAuth("neighbor", "")

	// Three tokens of burst, then TEMPORARY_FAILURE.
	for i := 0; i < 3; i++ {
		if resp := th.roundTrip(frame(0x01, uint32(i), 0, storeExtras(0), []byte{'k', byte(i)}, []byte("v"))); resp.status != 0 {
			t.Fatalf("set %d within burst: %#04x", i, resp.status)
		}
	}
	rej := th.roundTrip(frame(0x01, 9, 0, storeExtras(0), []byte("k9"), []byte("v")))
	if rej.status != 0x0086 {
		t.Fatalf("over quota: %#04x, want TEMPORARY_FAILURE", rej.status)
	}

	// The neighbor is untouched: its ops flow and its telemetry shows
	// zero rejections while the throttled tenant's shows one.
	for i := 0; i < 10; i++ {
		if resp := nb.roundTrip(frame(0x01, uint32(i), 0, storeExtras(0), []byte{'n', byte(i)}, []byte("v"))); resp.status != 0 {
			t.Fatalf("neighbor set %d: %#04x", i, resp.status)
		}
	}
	reg := fx.gateway.Tenants()
	tt, _ := reg.Lookup("throttled")
	nt, _ := reg.Lookup("neighbor")
	if got := tt.Telemetry().Snapshot().Counters["gw.quota_rejections"]; got != 1 {
		t.Fatalf("throttled rejections = %d", got)
	}
	if got := nt.Telemetry().Snapshot().Counters["gw.quota_rejections"]; got != 0 {
		t.Fatalf("neighbor rejections = %d", got)
	}
	// The neighbor's write-latency histogram saw all 10 ops — the
	// throttled tenant's rejection left no trace in it.
	if got := nt.Telemetry().Snapshot().Histogram("gw.write_latency_ns").Count; got != 10 {
		t.Fatalf("neighbor write histogram count = %d", got)
	}

	// Tokens refill with time: one second buys one more op.
	clock = clock.Add(time.Second)
	if resp := th.roundTrip(frame(0x01, 10, 0, storeExtras(0), []byte("k10"), []byte("v"))); resp.status != 0 {
		t.Fatalf("set after refill: %#04x", resp.status)
	}

	// Key-count quota: ADD beyond MaxKeys is TEMPORARY_FAILURE.
	cfg2 := RegistryConfig{Tenants: []TenantConfig{
		{Name: "small", Quota: Quota{MaxKeys: 2}},
	}}
	fx2 := startGateway(t, cfg2, Options{Now: now})
	sm := rawDial(t, fx2.gateway.Addr())
	sm.mustAuth("small", "")
	for i := 0; i < 2; i++ {
		if resp := sm.roundTrip(frame(0x02, uint32(i), 0, storeExtras(0), []byte{'s', byte(i)}, []byte("v"))); resp.status != 0 {
			t.Fatalf("add %d: %#04x", i, resp.status)
		}
	}
	if resp := sm.roundTrip(frame(0x02, 9, 0, storeExtras(0), []byte("s9"), []byte("v"))); resp.status != 0x0086 {
		t.Fatalf("add over key quota: %#04x", resp.status)
	}
	// Overwrites of existing keys still work at the cap.
	if resp := sm.roundTrip(frame(0x01, 10, 0, storeExtras(0), []byte{'s', 0}, []byte("v2"))); resp.status != 0 {
		t.Fatalf("overwrite at cap: %#04x", resp.status)
	}

	// Byte quota: a store that would exceed MaxBytes is refused.
	cfg3 := RegistryConfig{Tenants: []TenantConfig{
		{Name: "tiny", Quota: Quota{MaxBytes: 10}},
	}}
	fx3 := startGateway(t, cfg3, Options{Now: now})
	ty := rawDial(t, fx3.gateway.Addr())
	ty.mustAuth("tiny", "")
	if resp := ty.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("a"), []byte("12345"))); resp.status != 0 {
		t.Fatalf("set within bytes: %#04x", resp.status)
	}
	if resp := ty.roundTrip(frame(0x01, 2, 0, storeExtras(0), []byte("b"), []byte("123456789"))); resp.status != 0x0086 {
		t.Fatalf("set over bytes: %#04x", resp.status)
	}
}

// TestGatewayAccounting: tenant key/byte usage tracks the authoritative
// PutVer replies through overwrites, concats and deletes.
func TestGatewayAccounting(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	rc := rawDial(t, fx.gateway.Addr())
	rc.mustAuth("acme", "s3cret")

	rc.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("a"), []byte("12345")))
	rc.roundTrip(frame(0x01, 2, 0, storeExtras(0), []byte("b"), []byte("123")))
	tn, _ := fx.gateway.Tenants().Lookup("acme")
	if tn.Keys() != 2 || tn.Bytes() != 8 {
		t.Fatalf("after sets: keys=%d bytes=%d", tn.Keys(), tn.Bytes())
	}
	// Overwrite shrinks: 5 -> 2 bytes.
	rc.roundTrip(frame(0x01, 3, 0, storeExtras(0), []byte("a"), []byte("xy")))
	if tn.Keys() != 2 || tn.Bytes() != 5 {
		t.Fatalf("after overwrite: keys=%d bytes=%d", tn.Keys(), tn.Bytes())
	}
	// Append grows by the operand.
	rc.roundTrip(frame(0x0e, 4, 0, nil, []byte("b"), []byte("45")))
	if tn.Bytes() != 7 {
		t.Fatalf("after append: bytes=%d", tn.Bytes())
	}
	// Delete returns the bytes.
	rc.roundTrip(frame(0x04, 5, 0, nil, []byte("a"), nil))
	rc.roundTrip(frame(0x04, 6, 0, nil, []byte("b"), nil))
	if tn.Keys() != 0 || tn.Bytes() != 0 {
		t.Fatalf("after deletes: keys=%d bytes=%d", tn.Keys(), tn.Bytes())
	}
}

// TestGatewayTelemetryMerge: the gateway's TelemetrySnapshot carries
// both the gateway-wide series and per-tenant prefixed series, ready
// for the host server's exporter.
func TestGatewayTelemetryMerge(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	rc := rawDial(t, fx.gateway.Addr())
	rc.mustAuth("acme", "s3cret")
	rc.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("v")))
	rc.roundTrip(frame(0x00, 2, 0, nil, []byte("k"), nil))

	snap := fx.gateway.TelemetrySnapshot()
	if snap.Counters["gw.connections"] == 0 {
		t.Fatal("no gateway-wide connection count")
	}
	if snap.Counters["gw.tenant_acme_ops"] != 2 {
		t.Fatalf("tenant ops = %d", snap.Counters["gw.tenant_acme_ops"])
	}
	if snap.Counters["gw.tenant_acme_hits"] != 1 {
		t.Fatalf("tenant hits = %d", snap.Counters["gw.tenant_acme_hits"])
	}
	if snap.Gauges["gw.tenant_acme_keys"] != 1 {
		t.Fatalf("tenant keys gauge = %d", snap.Gauges["gw.tenant_acme_keys"])
	}
	if snap.Histogram("gw.tenant_acme_write_latency_ns").Count == 0 {
		t.Fatal("tenant write-latency histogram empty")
	}
	// The host server can merge it: no name collisions with its own.
	host := fx.server.TelemetrySnapshot()
	host.Merge(snap)
	if host.Counters["gw.tenant_acme_ops"] != 2 {
		t.Fatal("merge into server snapshot lost tenant series")
	}
}

// TestGatewayDecodeCorruptFault: with the gw_decode_corrupt point
// firing, corrupted frames kill connections (counted) but never wedge
// the gateway for clean clients that follow.
func TestGatewayDecodeCorruptFault(t *testing.T) {
	inj := kvdirect.NewFaultInjector(7)
	inj.Set(kvdirect.FaultGwDecodeCorrupt, 1) // corrupt every frame
	fx := startGateway(t, twoTenants(), Options{Faults: inj})

	rc := rawDial(t, fx.gateway.Addr())
	val := append([]byte{0}, "acme"...)
	val = append(val, 0)
	val = append(val, "s3cret"...)
	rc.send(frame(0x21, 1, 0, nil, []byte("PLAIN"), val))
	// The frame was damaged in the gateway: either the codec rejected it
	// (connection drops) or a single bit landed somewhere survivable and
	// an error came back. Both are acceptable; a hang is not.
	_ = rc.nc.SetReadDeadline(time.Now().Add(2 * time.Second)) //lint:allow statuserr -- best-effort bound; the ReadFull below tolerates either outcome
	hdr := make([]byte, 24)
	_, _ = io.ReadFull(rc.r, hdr) //lint:allow statuserr -- either outcome (reply or reset) is legal here

	inj.DisableAll()
	if inj.Injected(kvdirect.FaultGwDecodeCorrupt) == 0 {
		t.Fatal("fault point never fired")
	}
	// A clean client works immediately afterwards.
	rc2 := rawDial(t, fx.gateway.Addr())
	rc2.mustAuth("acme", "s3cret")
	if resp := rc2.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("v"))); resp.status != 0 {
		t.Fatalf("post-fault set: %#04x", resp.status)
	}
}

// panicOnce is a Backend whose first batch panics; the rest reach the
// embedded one.
type panicOnce struct {
	Backend
	fired atomic.Bool
}

func (b *panicOnce) DoTrace(ops []kvdirect.Op, tc wire.TraceContext) ([]kvdirect.Result, *telemetry.Span, error) {
	if b.fired.CompareAndSwap(false, true) {
		panic("backend panicked")
	}
	return b.Backend.DoTrace(ops, tc)
}

// TestGatewayBackendPanicCostsOneConnection: a panic under a gateway
// connection closes that connection and is counted in the gateway's
// server.panics; the gateway goes on serving new connections.
func TestGatewayBackendPanicCostsOneConnection(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	reg, err := NewRegistry(twoTenants(), nil)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := Serve(&panicOnce{Backend: fx.server}, reg, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = gw.Close() })

	rc := rawDial(t, gw.Addr())
	rc.mustAuth("acme", "s3cret")
	// A GET: the gateway's first backend batch.
	rc.send(frame(0x00, 2, 0, nil, []byte("k"), nil))
	_ = rc.nc.SetReadDeadline(time.Now().Add(5 * time.Second)) //lint:allow statuserr -- best-effort bound; a deadline error would surface as the read's
	if _, err := io.ReadFull(rc.r, make([]byte, 24)); err == nil {
		t.Fatal("the panicking connection was answered")
	} else if !errors.Is(err, io.EOF) {
		t.Fatalf("the panicking connection was not closed: %v", err)
	}
	if got := gw.Telemetry().Counters().Get("server.panics"); got != 1 {
		t.Fatalf("server.panics = %d, want 1", got)
	}

	rc2 := rawDial(t, gw.Addr())
	rc2.mustAuth("acme", "s3cret")
	if resp := rc2.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("v"))); resp.status != 0 {
		t.Fatalf("set after the panic: %#04x", resp.status)
	}
	if resp := rc2.roundTrip(frame(0x00, 2, 0, nil, []byte("k"), nil)); resp.status != 0 || string(resp.value) != "v" {
		t.Fatalf("get after the panic: %#04x %q", resp.status, resp.value)
	}
}

// TestGatewayQuotaFaultPoint: gw_tenant_quota_exhausted forces
// TEMPORARY_FAILURE regardless of actual quota state.
func TestGatewayQuotaFaultPoint(t *testing.T) {
	inj := kvdirect.NewFaultInjector(7)
	inj.Set(kvdirect.FaultGwTenantQuotaExhausted, 1)
	fx := startGateway(t, twoTenants(), Options{Faults: inj})
	rc := rawDial(t, fx.gateway.Addr())
	rc.mustAuth("acme", "s3cret")
	if resp := rc.roundTrip(frame(0x01, 1, 0, storeExtras(0), []byte("k"), []byte("v"))); resp.status != 0x0086 {
		t.Fatalf("forced quota exhaustion: %#04x", resp.status)
	}
	inj.DisableAll()
	if resp := rc.roundTrip(frame(0x01, 2, 0, storeExtras(0), []byte("k"), []byte("v"))); resp.status != 0 {
		t.Fatalf("after disabling: %#04x", resp.status)
	}
}
