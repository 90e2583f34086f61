package experiments

import (
	"kvdirect/internal/model"
	"kvdirect/internal/netmodel"
	"kvdirect/internal/wire"
)

// Fig15 reproduces Figure 15, "Efficiency of network batching":
// throughput and latency versus batched KV size, with and without
// client-side batching. Wire sizes come from the real codec
// (wire.EncodedSize), not an estimate.
func Fig15(sc Scale) []*Table {
	net := netmodel.DefaultConfig()
	tput := &Table{
		ID:      "fig15a",
		Title:   "Network throughput vs batched KV size (Mops)",
		Columns: []string{"KV size(B)", "no batching", "batching", "gain"},
		Notes:   "paper: up to 4x gain for its batched sizes with <1 us added latency; smaller KVs gain more (header-dominated)",
	}
	lat := &Table{
		ID:      "fig15b",
		Title:   "Network latency vs batched KV size (us)",
		Columns: []string{"KV size(B)", "no batching", "batching"},
	}
	for _, kv := range []int{10, 16, 32, 64, 128, 254} {
		opWire := wireBytesPerOp(kv)
		batch := net.BatchFor(opWire)
		single := net.OpsPerSecond(opWire, opWire, 1)
		batched := net.OpsPerSecond(opWire, opWire, batch)
		tput.Add(itoa(kv), mops(single), mops(batched), f2(batched/single))
		lat.Add(itoa(kv),
			f2(net.LatencyNs(opWire, false)/1000),
			f2(net.LatencyNs(opWire*batch, true)/1000))
	}
	return []*Table{tput, lat}
}

// wireBytesPerOp measures the real per-op wire footprint of a batch of
// same-size PUTs (the compressed steady state) using the codec itself.
func wireBytesPerOp(kvSize int) int {
	keyLen := 8
	if kvSize < 10 {
		keyLen = kvSize - 1
	}
	valLen := kvSize - keyLen
	reqs := make([]wire.Request, 32)
	for i := range reqs {
		k := make([]byte, keyLen)
		v := make([]byte, valLen)
		k[0] = byte(i)
		v[0] = byte(i) // distinct values defeat same-value elision
		reqs[i] = wire.Request{Code: wire.OpPut, Key: k, Value: v}
	}
	n, err := wire.EncodedSize(reqs)
	if err != nil {
		panic(err)
	}
	return (n - wire.HeaderBytes) / len(reqs)
}

// Table2 reproduces Table 2: throughput of atomic vector update against
// the alternatives (one key per element; fetch the whole vector to the
// client), in GB/s of vector data processed.
func Table2(sc Scale) []*Table {
	net := netmodel.DefaultConfig()
	t := &Table{
		ID:    "table2",
		Title: "Vector operation throughput (GB/s of vector data)",
		Columns: []string{"vector size(B)", "update w/ return", "update w/o return",
			"one key per element", "fetch to client"},
		Notes: "alternatives also lack consistency within the vector (paper Table 2)",
	}
	for _, vec := range []int{64, 128, 256, 512, 1024} {
		v := net.Vector(vec, 4, model.PCIeAchievableTwoEP)
		t.Add(itoa(vec), gbps(v.UpdateWithReturn), gbps(v.UpdateWithoutReturn),
			gbps(v.OneKeyPerElement), gbps(v.FetchToClient))
	}
	return []*Table{t}
}
