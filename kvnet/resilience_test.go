package kvnet

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
)

func newStore(t *testing.T) *kvdirect.Store {
	t.Helper()
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestClientReconnectsAfterReset: with the server resetting every
// connection before each reply, an idempotent request fails over and —
// once the faults stop — succeeds on a fresh connection, transparently.
func TestClientReconnectsAfterReset(t *testing.T) {
	inj := fault.NewInjector(51)
	srv, err := ServeOptions(newStore(t), "127.0.0.1:0", ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(srv.Addr(), Options{MaxRetries: 5, RetryBaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Two resets then clean: the Get must survive via retry + reconnect.
	inj.Set(fault.NetReset, 1)
	go func() { //lint:allow gorolifetime -- test watchdog: exits once the injector records two resets; dies with the test process regardless
		for inj.Injected(fault.NetReset) < 2 {
			time.Sleep(time.Millisecond)
		}
		inj.DisableAll()
	}()
	v, found, err := c.Get([]byte("k"))
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("Get after resets = %q,%v,%v", v, found, err)
	}
	if c.Counters().Get("client.retries") == 0 {
		t.Fatal("no retries recorded")
	}
	if c.Counters().Get("client.reconnects") == 0 {
		t.Fatal("no reconnects recorded")
	}
}

// TestClientRecoversFromCorruptResponse: an in-flight corruption is
// caught by the CRC and retried; the payload never reaches the caller.
func TestClientRecoversFromCorruptResponse(t *testing.T) {
	inj := fault.NewInjector(53)
	srv, err := ServeOptions(newStore(t), "127.0.0.1:0", ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(srv.Addr(), Options{MaxRetries: 5, RetryBaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put([]byte("k"), []byte("payload-to-protect")); err != nil {
		t.Fatal(err)
	}

	inj.Set(fault.NetCorruptFrame, 1)
	go func() { //lint:allow gorolifetime -- test watchdog: exits once the injector records two corruptions; dies with the test process regardless
		for inj.Injected(fault.NetCorruptFrame) < 2 {
			time.Sleep(time.Millisecond)
		}
		inj.DisableAll()
	}()
	v, found, err := c.Get([]byte("k"))
	if err != nil || !found || string(v) != "payload-to-protect" {
		t.Fatalf("Get = %q,%v,%v", v, found, err)
	}
	if c.Counters().Get("client.corrupt_frames") == 0 {
		t.Fatal("corruption not observed by client CRC")
	}
}

// TestNonIdempotentFailsFast: a fetch-add whose response is lost must
// NOT be replayed — the client reports the transport error on the first
// failure instead of risking a double increment.
func TestNonIdempotentFailsFast(t *testing.T) {
	inj := fault.NewInjector(55)
	srv, err := ServeOptions(newStore(t), "127.0.0.1:0", ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(srv.Addr(), Options{MaxRetries: 5, RetryBaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inj.Set(fault.NetReset, 1)
	_, err = c.FetchAdd([]byte("ctr"), 1)
	inj.DisableAll()
	if err == nil {
		t.Fatal("fetch-add with lost response did not error")
	}
	if got := c.Counters().Get("client.retries"); got != 0 {
		t.Fatalf("non-idempotent batch retried %d times", got)
	}

	// The counter may or may not have been applied (the reset hit the
	// response, not the request) — but it must not exceed one increment.
	old, err := c.FetchAdd([]byte("ctr"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if old > 1 {
		t.Fatalf("counter = %d after one attempted increment", old)
	}
}

// TestNoReconnectFailsFast: with reconnection disabled, a broken
// connection makes every subsequent call fail immediately with ErrBroken.
func TestNoReconnectFailsFast(t *testing.T) {
	inj := fault.NewInjector(57)
	srv, err := ServeOptions(newStore(t), "127.0.0.1:0", ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialOptions(srv.Addr(), Options{NoReconnect: true, RetryBaseDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inj.Set(fault.NetReset, 1)
	if err := c.Put([]byte("k"), []byte("v")); err == nil {
		t.Fatal("put through a reset connection succeeded")
	}
	inj.DisableAll()

	start := time.Now()
	if _, _, err := c.Get([]byte("k")); !errors.Is(err, ErrBroken) {
		t.Fatalf("err = %v, want ErrBroken", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fail-fast took %v", elapsed)
	}
	if c.Counters().Get("client.broken") == 0 {
		t.Fatal("broken transition not counted")
	}
}

// TestClosedClientFailsFast: calls after Close return ErrClosed.
func TestClosedClientFailsFast(t *testing.T) {
	srv, err := Serve(newStore(t), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get([]byte("k")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestServerPanicBecomesErrorResult: an operation that panics inside the
// store (here, a registered λ that divides by zero) must surface as that
// operation's error result; the connection, the other operations in the
// batch and the server itself all survive.
func TestServerPanicBecomesErrorResult(t *testing.T) {
	store := newStore(t)
	store.RegisterUpdateFunc(100, func(e, p uint64) uint64 { return e / (p - p) })
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Do([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("a"), Value: []byte("1")},
		{Code: kvdirect.OpUpdateScalar, Key: []byte("boom"), FuncID: 100,
			ElemWidth: 8, Param: make([]byte, 8)},
		{Code: kvdirect.OpPut, Key: []byte("b"), Value: []byte("2")},
	})
	if err != nil {
		t.Fatalf("batch with panicking op killed the connection: %v", err)
	}
	if !res[0].OK() || !res[2].OK() {
		t.Fatalf("neighbouring ops damaged: %+v", res)
	}
	if res[1].Status != kvdirect.StatusError || !strings.Contains(string(res[1].Value), "panic") {
		t.Fatalf("panicking op result = %+v, want panic error", res[1])
	}
	if srv.Counters().Get("server.panics") == 0 {
		t.Fatal("panic not counted")
	}

	// Server still fully functional.
	v, found, err := c.Get([]byte("a"))
	if err != nil || !found || string(v) != "1" {
		t.Fatalf("server unhealthy after panic: %q %v %v", v, found, err)
	}
}

// TestWriteDeadlineUnsticksStalledClient: a client that stops reading
// while a huge response is in flight must not pin the handler goroutine
// forever — the write deadline frees it, proven here by Close returning
// promptly (Close waits for all handlers).
func TestWriteDeadlineUnsticksStalledClient(t *testing.T) {
	store := newStore(t)
	// One value near the 64 KB wire limit, fetched many times per batch:
	// the response (~12 MB) overflows every socket buffer in the path.
	big := make([]byte, 60<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if err := store.Put([]byte("big"), big); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeOptions(store, "127.0.0.1:0", ServerOptions{
		WriteTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A raw socket that sends the request and then never reads: the
	// server's ~12 MB response jams against full TCP buffers.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ops := make([]kvdirect.Op, 200)
	for i := range ops {
		ops[i] = kvdirect.Op{Code: kvdirect.OpGet, Key: []byte("big")}
	}
	pkt, err := kvdirect.EncodeBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, pkt); err != nil {
		t.Fatal(err)
	}

	// Give the server time to start writing and jam against full buffers.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Counters().Get("server.write_timeouts") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("write deadline never fired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	done := make(chan struct{})
	go func() { _ = srv.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a stalled handler")
	}
}
