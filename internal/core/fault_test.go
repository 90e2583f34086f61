package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kvdirect/internal/fault"
	"kvdirect/internal/wire"
)

func faultyStore(t *testing.T, inj *fault.Injector, disableCache bool) *Store {
	t.Helper()
	s, err := NewStore(Config{
		MemoryBytes:  4 << 20,
		DisableCache: disableCache,
		Faults:       inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestEccEndToEndSingleBitFlips: with single-bit host-memory flips on
// every DMA read, the full KVS stack (hash table, slabs, dispatcher) must
// keep returning byte-exact values, and every repair must be counted.
func TestEccEndToEndSingleBitFlips(t *testing.T) {
	inj := fault.NewInjector(31)
	s := faultyStore(t, inj, true)

	const n = 64
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%04d-payload", i)) }
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%04d", i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	inj.Set(fault.HostBitFlip, 1)
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			v, ok := s.Get([]byte(fmt.Sprintf("key-%04d", i)))
			if !ok {
				t.Fatalf("round %d: key %d missing", round, i)
			}
			if !bytes.Equal(v, val(i)) {
				t.Fatalf("round %d: key %d = %q, want %q", round, i, v, val(i))
			}
		}
	}
	inj.DisableAll()

	h := s.Health()
	if h.Corrected == 0 {
		t.Fatal("no corrections recorded")
	}
	if h.Uncorrectable != 0 {
		t.Fatalf("unexpected uncorrectable faults: %d", h.Uncorrectable)
	}
	if !h.OK() {
		t.Fatalf("health degraded after fully-corrected faults: %s", h)
	}
	if h.FaultsInjected == 0 {
		t.Fatal("injector fired nothing")
	}
}

// TestEccEndToEndDoubleBitFlips: uncorrectable faults must never produce
// a silently-wrong OK response — Apply converts the result into an
// explicit error and Health reports the store degraded.
func TestEccEndToEndDoubleBitFlips(t *testing.T) {
	inj := fault.NewInjector(37)
	s := faultyStore(t, inj, true)

	key := []byte("victim-key")
	if err := s.Put(key, []byte("precious-payload-bytes")); err != nil {
		t.Fatal(err)
	}

	inj.Set(fault.HostDoubleBitFlip, 1)
	resp := s.Apply(wire.Request{Code: wire.OpGet, Key: key})
	inj.DisableAll()

	if resp.Status != wire.StatusError {
		t.Fatalf("status = %v, want StatusError (got value %q)", resp.Status, resp.Value)
	}
	if !strings.Contains(string(resp.Value), "uncorrectable") {
		t.Fatalf("error text %q does not name the fault", resp.Value)
	}
	h := s.Health()
	if h.Uncorrectable == 0 {
		t.Fatal("uncorrectable fault not counted")
	}
	if h.OK() {
		t.Fatal("health still ok after data loss")
	}
}

// TestScrubRepairsLatentFaults: flips planted without any access stay
// latent; a scrub patrol must find and repair them all.
func TestScrubRepairsLatentFaults(t *testing.T) {
	inj := fault.NewInjector(41)
	s := faultyStore(t, inj, true)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Plant latent single-bit faults directly (no read to trigger repair).
	for i := uint64(0); i < 8; i++ {
		s.prot.InjectBitFlip(i*4096, uint(i%8))
	}
	repaired, uncorrectable := s.Scrub()
	if repaired < 8 {
		t.Fatalf("repaired = %d, want >= 8", repaired)
	}
	if uncorrectable != 0 {
		t.Fatalf("uncorrectable = %d, want 0", uncorrectable)
	}
	// A second scrub finds nothing new.
	repaired, _ = s.Scrub()
	if repaired != 0 {
		t.Fatalf("second scrub repaired %d, want 0", repaired)
	}
}

// TestStatsTextReportsFaults: the wire-level stats text must expose the
// fault counters and overall health so remote clients can monitor it.
func TestStatsTextReportsFaults(t *testing.T) {
	inj := fault.NewInjector(43)
	s := faultyStore(t, inj, true)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	inj.Set(fault.HostBitFlip, 1)
	s.Get([]byte("k"))
	inj.DisableAll()

	resp := s.Apply(wire.Request{Code: wire.OpStats})
	if resp.Status != wire.StatusOK {
		t.Fatalf("stats failed: %v", resp.Status)
	}
	text := string(resp.Value)
	for _, want := range []string{
		"ecc_corrected=", "ecc_uncorrectable=0", "cache_ecc_corrected=",
		"pcie_retries=", "faults_injected=", "corrupt_chains=0", "health=ok",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("stats text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\necc_corrected=0\n") {
		t.Fatalf("corrections not reflected in stats text:\n%s", text)
	}
}

// TestFaultFreeStoreUnchanged: with no injector configured, the ECC and
// fault layers must stay out of the engine stack entirely.
func TestFaultFreeStoreUnchanged(t *testing.T) {
	s, err := NewStore(Config{MemoryBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.prot != nil || s.fmem != nil {
		t.Fatal("fault/ECC layers present without Faults config")
	}
	if err := s.Put([]byte("a"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.OK() || h.FaultsInjected != 0 {
		t.Fatalf("unexpected health: %s", h)
	}
}
