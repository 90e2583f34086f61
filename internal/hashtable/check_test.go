package hashtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScanVisitsEverything(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	want := map[string]string{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("scan-%04d", i)
		v := make([]byte, rng.Intn(400))
		rng.Read(v)
		if _, err := tbl.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = string(v)
	}
	got := map[string]string{}
	tbl.Scan(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("scan value mismatch for %s", k)
		}
	}
}

func TestScanCallbackMayUseTheTable(t *testing.T) {
	// Table operations reuse table-owned scratch; Scan must keep the key
	// and value it hands out clear of it, since callbacks (Store.Walk's
	// users) are free to look other keys up mid-walk.
	tbl, _, _ := testTable(t, 1<<20, 0.01, 20)
	for i := 0; i < 300; i++ {
		v := bytes.Repeat([]byte{byte(i)}, 1+(i*37)%1400)
		if _, err := tbl.Put([]byte(fmt.Sprintf("re-%04d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	other := []byte("re-0299")
	n := 0
	tbl.Scan(func(k, v []byte) bool {
		key, val := string(k), string(v)
		if _, ok := tbl.Get(other); !ok {
			t.Fatalf("Get(%q) during Scan missed", other)
		}
		if string(k) != key || string(v) != val {
			t.Fatalf("Scan's view of %q changed under a Get from its callback", key)
		}
		n++
		return true
	})
	if n != 300 {
		t.Errorf("Scan visited %d entries, want 300", n)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	for i := 0; i < 100; i++ {
		if _, err := tbl.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	tbl.Scan(func(_, _ []byte) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d, want 10", n)
	}
}

func TestCheckCleanTable(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		v := make([]byte, rng.Intn(600))
		rng.Read(v)
		if _, err := tbl.Put([]byte(fmt.Sprintf("chk-%04d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	// Churn to exercise deletes and chained buckets.
	for i := 0; i < 300; i++ {
		tbl.Delete([]byte(fmt.Sprintf("chk-%04d", rng.Intn(1000))))
	}
	rep, err := tbl.Check()
	if err != nil {
		t.Fatalf("Check on clean table: %v", err)
	}
	if rep.Keys != tbl.NumKeys() {
		t.Errorf("report keys %d != %d", rep.Keys, tbl.NumKeys())
	}
	sum := 0
	for i, n := range rep.ChainHist {
		sum += (i + 1) * n
	}
	if rep.MaxChainLen < 1 || rep.MaxChainLen != len(rep.ChainHist) || sum != rep.ChainLenSum {
		t.Errorf("chain stats implausible: %+v", rep)
	}
}

func TestCheckDetectsBucketCorruption(t *testing.T) {
	tbl, mem, _ := testTable(t, 1<<20, 0.5, 20)
	for i := 0; i < 200; i++ {
		if _, err := tbl.Put([]byte(fmt.Sprintf("c-%04d", i)), []byte("value!")); err != nil {
			t.Fatal(err)
		}
	}
	// Smash random bucket bytes until Check notices (some corruptions are
	// semantically invisible, e.g. bytes of free slots).
	rng := rand.New(rand.NewSource(3))
	detected := false
	for trial := 0; trial < 200 && !detected; trial++ {
		addr := uint64(rng.Intn(int(tbl.NumBuckets()))) * BucketBytes
		junk := make([]byte, 8)
		rng.Read(junk)
		mem.Poke(addr+uint64(rng.Intn(56)), junk)
		if _, err := tbl.Check(); err != nil {
			detected = true
		}
	}
	if !detected {
		t.Fatal("200 corruptions, none detected")
	}
}

func TestCheckDetectsAccountingDrift(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 20)
	if _, err := tbl.Put([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	tbl.numKeys++ // simulate an accounting bug
	if _, err := tbl.Check(); err == nil {
		t.Fatal("accounting drift undetected")
	}
	tbl.numKeys--
	tbl.payloadBytes += 7
	if _, err := tbl.Check(); err == nil {
		t.Fatal("payload drift undetected")
	}
}

func TestCheckAfterRandomWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _, _ := testTable(t, 1<<19, 0.5, 15)
		for op := 0; op < 400; op++ {
			k := []byte(fmt.Sprintf("p-%02d", rng.Intn(40)))
			switch rng.Intn(3) {
			case 0:
				v := make([]byte, rng.Intn(300))
				rng.Read(v)
				if _, err := tbl.Put(k, v); err != nil {
					return err == ErrFull
				}
			case 1:
				tbl.Get(k)
			case 2:
				tbl.Delete(k)
			}
		}
		_, err := tbl.Check()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestScanDataMatchesGet(t *testing.T) {
	tbl, _, _ := testTable(t, 1<<20, 0.5, 13)
	for i := 0; i < 300; i++ {
		v := bytes.Repeat([]byte{byte(i)}, i%520)
		if _, err := tbl.Put([]byte(fmt.Sprintf("sv-%03d", i)), v); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Scan(func(k, v []byte) bool {
		got, ok := tbl.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("scan/get disagree on %q", k)
		}
		return true
	})
}
