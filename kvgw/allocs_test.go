package kvgw

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"testing"
)

// What one 16-op quiet run allocates end to end. The parent of the PR
// that rebuilt the gateway path measured 156 and 125; a SET run was 49
// while each PutVer read its old item with a GET before writing.
const (
	setBatch16Allocs = 17
	getBatch16Allocs = 19
)

// TestGatewayQuietRunAllocs fails when an allocation creeps back onto
// the gateway's quiet-run path. It counts process-wide, so it takes
// every layer a run crosses: this package's client, the gateway
// connection, Server.Do and the core apply, in steady state with trace
// sampling off. Each count is a median over many runs, so that what a
// background goroutine or a collection adds to a few of them does not
// show.
func TestGatewayQuietRunAllocs(t *testing.T) {
	fx := startGateway(t, twoTenants(), Options{})
	cl, err := DialClient(fx.gateway.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Auth("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	const n = 16
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("alloc-key-%06d", i))
		vals[i] = bytes.Repeat([]byte{byte('a' + i)}, 64)
	}
	set := func() {
		if refused, err := cl.SetBatch(keys, vals, 0); err != nil || refused != 0 {
			t.Fatalf("SetBatch: %d refused, %v", refused, err)
		}
	}
	get := func() {
		got, err := cl.GetBatch(keys)
		if err != nil {
			t.Fatalf("GetBatch: %v", err)
		}
		for i := range got {
			if !bytes.Equal(got[i], vals[i]) {
				t.Fatalf("key %d read back %q", i, got[i])
			}
		}
	}
	median := func(f func()) uint64 {
		for i := 0; i < 100; i++ {
			f() // warm every recycled buffer
		}
		counts := make([]uint64, 301)
		var ms runtime.MemStats
		for i := range counts {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			f()
			runtime.ReadMemStats(&ms)
			counts[i] = ms.Mallocs - before
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
		return counts[len(counts)/2]
	}
	sets, gets := median(set), median(get)
	t.Logf("SetBatch(16) allocates %d objects (parent: 156), GetBatch(16) %d (parent: 125)", sets, gets)
	if sets > setBatch16Allocs {
		t.Errorf("SetBatch(16) allocates %d objects, budget %d", sets, setBatch16Allocs)
	}
	if gets > getBatch16Allocs {
		t.Errorf("GetBatch(16) allocates %d objects, budget %d", gets, getBatch16Allocs)
	}
}
