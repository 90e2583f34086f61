package core

import (
	"fmt"
	"testing"
)

// BenchmarkStorePutGet measures the fault-free hot path end to end
// (hash index, slabs, dispatcher, NIC DRAM cache). It doubles as the
// regression guard for the fault-injection hooks: with no injector
// configured they must cost nothing but a nil check. The allocation
// column is the other guard: seven GETs in eight ops allocate their
// returned value and nothing else does, so it reads 0 allocs/op (the
// report truncates 0.875); TestApplyAllocs pins the per-op counts.
func BenchmarkStorePutGet(b *testing.B) {
	s, err := NewStore(Config{MemoryBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	const nKeys = 4096
	keys := make([][]byte, nKeys)
	vals := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench-key-%05d", i))
		vals[i] = []byte(fmt.Sprintf("bench-value-%05d-payload", i))
		if err := s.Put(keys[i], vals[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%nKeys]
		if i%8 == 0 {
			if err := s.Put(k, vals[i%nKeys]); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, ok := s.Get(k); !ok {
			b.Fatal("missing key")
		}
	}
}
