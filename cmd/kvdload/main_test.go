package main

import (
	"testing"

	"kvdirect"
	"kvdirect/internal/workload"
	"kvdirect/kvnet"
	"kvdirect/kvrepl"
)

// TestLoadKeysSpreadsAcrossShards: the load phase dials the topology, so
// against four shards every shard ends up with about a quarter of the
// keys. (When kvdload dialed one address, shard 0 took them all — the
// server has no ownership check.)
func TestLoadKeysSpreadsAcrossShards(t *testing.T) {
	const shards, keys, keySize = 4, 4000, 10
	d, err := kvrepl.Deploy("127.0.0.1:0", shards, 1, 0, kvdirect.Config{MemoryBytes: 8 << 20}, kvrepl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	addrs := make([]string, shards)
	for s, r := range d.Routes() {
		addrs[s] = r.Primary
	}
	gen := workload.New(workload.Config{Keys: keys, KeySize: keySize, ValSize: 16, Seed: 1})
	if err := loadKeys(addrs, gen, keys, keySize, 32, 3); err != nil {
		t.Fatal(err)
	}
	total := uint64(0)
	for s, addr := range addrs {
		cl, err := kvnet.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := cl.ScrapeTelemetry()
		_ = cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		n := snap.Gauges["core.keys"]
		total += n
		if mean := uint64(keys / shards); n < mean/2 || n > mean*3/2 {
			t.Errorf("shard %d holds %d keys, want within 50%% of %d", s, n, mean)
		}
	}
	if total != keys {
		t.Errorf("shards hold %d keys in all, want %d", total, keys)
	}
}
