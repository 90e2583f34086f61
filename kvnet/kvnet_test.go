package kvnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"kvdirect"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	store, err := kvdirect.New(kvdirect.Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return srv, c
}

func TestClientServerBasics(t *testing.T) {
	_, c := startServer(t)
	if err := c.Put([]byte("greeting"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, found, err := c.Get([]byte("greeting"))
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("Get = %q,%v,%v", v, found, err)
	}
	ok, err := c.Delete([]byte("greeting"))
	if err != nil || !ok {
		t.Fatalf("Delete = %v,%v", ok, err)
	}
	_, found, err = c.Get([]byte("greeting"))
	if err != nil || found {
		t.Fatal("key survived delete")
	}
	ok, err = c.Delete([]byte("greeting"))
	if err != nil || ok {
		t.Fatal("double delete reported success")
	}
}

func TestBatchedOpsOrderedAndConsistent(t *testing.T) {
	_, c := startServer(t)
	// Dependent ops in one batch must see each other's effects.
	res, err := c.Do([]kvdirect.Op{
		{Code: kvdirect.OpPut, Key: []byte("k"), Value: []byte("v1")},
		{Code: kvdirect.OpGet, Key: []byte("k")},
		{Code: kvdirect.OpPut, Key: []byte("k"), Value: []byte("v2")},
		{Code: kvdirect.OpGet, Key: []byte("k")},
		{Code: kvdirect.OpDelete, Key: []byte("k")},
		{Code: kvdirect.OpGet, Key: []byte("k")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(res[1].Value) != "v1" || string(res[3].Value) != "v2" {
		t.Errorf("in-batch reads wrong: %q %q", res[1].Value, res[3].Value)
	}
	if !res[5].NotFound() {
		t.Errorf("read after in-batch delete: %+v", res[5])
	}
}

func TestFetchAddSequencer(t *testing.T) {
	_, c := startServer(t)
	for i := uint64(0); i < 10; i++ {
		old, err := c.FetchAdd([]byte("seq"), 1)
		if err != nil {
			t.Fatal(err)
		}
		if old != i {
			t.Fatalf("fetch-add %d returned %d", i, old)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	const clients = 8
	const perClient = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perClient; j++ {
				if _, err := c.FetchAdd([]byte("shared"), 1); err != nil {
					errs <- err
					return
				}
				key := []byte(fmt.Sprintf("c%d-%d", id, j))
				if err := c.Put(key, key); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The shared counter must equal the total number of fetch-adds.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, found, err := c.Get([]byte("shared"))
	if err != nil || !found {
		t.Fatalf("shared counter missing: %v %v", found, err)
	}
	if got := binary.LittleEndian.Uint64(v); got != clients*perClient {
		t.Errorf("shared counter = %d, want %d", got, clients*perClient)
	}
}

func TestReduceOverNetwork(t *testing.T) {
	_, c := startServer(t)
	vec := make([]byte, 4*5)
	for i := 0; i < 5; i++ {
		binary.LittleEndian.PutUint32(vec[i*4:], uint32(i+1))
	}
	if err := c.Put([]byte("v"), vec); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Reduce([]byte("v"), kvdirect.FnAdd, 4, 0)
	if err != nil || sum != 15 {
		t.Fatalf("reduce = %d, %v", sum, err)
	}
	if _, err := c.Reduce([]byte("v"), kvdirect.FnAdd, 3, 0); err == nil {
		t.Error("bad width accepted")
	}
}

func TestLargeValues(t *testing.T) {
	_, c := startServer(t)
	val := bytes.Repeat([]byte{0xAB}, 4000)
	if err := c.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, found, err := c.Get([]byte("big"))
	if err != nil || !found || !bytes.Equal(got, val) {
		t.Fatalf("big value round trip failed: %v %v len=%d", found, err, len(got))
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, c := startServer(t)
	_ = srv.Close() // deliberate: observe client behavior after shutdown
	if err := c.Put([]byte("x"), []byte("y")); err == nil {
		// Connection may have been accepted before close; a second call
		// must fail once the server is gone.
		if err2 := c.Put([]byte("x"), []byte("y")); err2 == nil {
			t.Skip("connection still being served; close semantics are best-effort")
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("Dial to closed port succeeded")
	}
}

func TestStatsOverNetwork(t *testing.T) {
	_, c := startServer(t)
	if err := c.Put([]byte("sk"), []byte("sv")); err != nil {
		t.Fatal(err)
	}
	text, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"keys=1", "pcie_reads=", "merge_ratio="} {
		if !strings.Contains(text, want) {
			t.Errorf("stats missing %q:\n%s", want, text)
		}
	}
}
