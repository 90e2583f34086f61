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
	t.Cleanup(store.Close)
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

// TestOptionsAppliedOnce: "disabled" survives the trip from the
// constructor to the connection. Defaults used to be applied twice — once
// for the replica set, again for each connection it dialed — which turned
// a disabled mechanism (negative, normalised to 0) back into its default.
func TestOptionsAppliedOnce(t *testing.T) {
	inj := fault.NewInjector(57)
	srv, err := ServeOptions(newStore(t), "127.0.0.1:0", ServerOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialReplicaShards([]ShardAddrs{{Primary: srv.Addr()}}, Options{MaxRetries: -1, ReadTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.opts.MaxRetries != 0 || c.opts.ReadTimeout != 0 {
		t.Fatalf("disabled options re-defaulted: MaxRetries %d, ReadTimeout %v", c.opts.MaxRetries, c.opts.ReadTimeout)
	}

	inj.Set(fault.NetReset, 1)
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get([]byte("k")); err == nil {
			t.Fatal("get through a reset connection succeeded")
		}
	}
	if got := inj.Injected(fault.NetReset); got != 3 {
		t.Errorf("3 calls with retries disabled reached the server %d times", got)
	}
	if got := c.Counters().Get("client.retries"); got != 0 {
		t.Errorf("client.retries = %d with retries disabled", got)
	}
	inj.DisableAll()
	if err := c.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("put after the faults stopped: %v", err)
	}
}

// TestClosedClientFailsFast: every call after Close returns ErrClosed
// and dials nothing, whatever the route table holds. (A replica set
// used to keep no closed flag: it redialed, succeeded and leaked the
// connection.)
func TestClosedClientFailsFast(t *testing.T) {
	// A bare listener: a dial completes in its backlog, so Accept under
	// a deadline says, without racing anything, whether one happened.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr().String()
	dialed := func(wait time.Duration) bool {
		if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(wait)); err != nil {
			t.Fatal(err)
		}
		nc, err := ln.Accept()
		if err == nil {
			_ = nc.Close()
		}
		return err == nil
	}
	for name, dial := range map[string]func() (*Client, error){
		"Dial": func() (*Client, error) { return Dial(addr) },
		"DialReplicaShards": func() (*Client, error) {
			return DialReplicaShards([]ShardAddrs{{Primary: addr, Backups: []string{addr}}}, Options{})
		},
	} {
		c, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		if !dialed(5 * time.Second) {
			t.Fatalf("%s: the constructor's dial never arrived", name)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		calls := map[string]error{}
		_, _, calls["Get"] = c.Get([]byte("k"))
		calls["Put"] = c.Put([]byte("k"), []byte("v"))
		_, calls["Delete"] = c.Delete([]byte("k"))
		_, calls["FetchAdd"] = c.FetchAdd([]byte("n"), 1)
		_, calls["Scan"] = c.Scan(nil, 10)
		_, calls["Stats"] = c.Stats()
		_, calls["Do"] = c.Do([]kvdirect.Op{{Code: kvdirect.OpGet, Key: []byte("k")}})
		for call, err := range calls {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s: %s after Close: err = %v, want ErrClosed", name, call, err)
			}
		}
		if dialed(50 * time.Millisecond) {
			t.Errorf("%s: a closed client dialed", name)
		}
	}
}

// TestFailoverVisitsDeadAddressOnce: when a shard's primary dies, one GET
// costs one failed exchange and one rotation — the retry loop does not
// redial the dead address before moving on. (When a connection carried a
// retry loop of its own, it spent client.retries=3, client.reconnects=3
// there first.)
func TestFailoverVisitsDeadAddressOnce(t *testing.T) {
	store := newStore(t)
	if err := store.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	a, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := DialReplicaShards([]ShardAddrs{{Primary: a.Addr(), Backups: []string{b.Addr()}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get([]byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get after the primary died = %q,%v,%v", v, found, err)
	}
	for name, want := range map[string]uint64{
		"sharded.rotations": 1, "client.retries": 1, "client.broken": 1, "client.reconnects": 0,
	} {
		if got := c.Counters().Get(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
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
