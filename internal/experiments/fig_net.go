package experiments

import (
	"math"
	"slices"

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
		Notes:   "smaller KVs gain more: an unbatched packet of a small op is mostly header",
	}
	lat := &Table{
		ID:      "fig15b",
		Title:   "Network latency vs batched KV size (us)",
		Columns: []string{"KV size(B)", "no batching", "batching"},
	}
	var gains []float64
	worstLat := 0.0
	for _, kv := range []int{10, 16, 32, 64, 128, 254} {
		opWire := wireBytesPerOp(kv)
		batch := net.BatchFor(opWire)
		single := net.OpsPerSecond(opWire, opWire, 1)
		batched := net.OpsPerSecond(opWire, opWire, batch)
		batchedUs := net.LatencyNs(opWire*batch, true) / 1000
		tput.Add(itoa(kv), mops(single), mops(batched), f2(batched/single))
		lat.Add(itoa(kv), f2(net.LatencyNs(opWire, false)/1000), f2(batchedUs))
		gains = append(gains, batched/single)
		worstLat = max(worstLat, batchedUs)
	}
	tput.Claims = []Claim{
		atLeast("fig15a/least-gain", "batching raises throughput at every KV size, up to 4x", slices.Min(gains), 1),
		atLeast("fig15a/gain-10B-minus-254B", "the gain shrinks as KVs grow", gains[0]-gains[len(gains)-1], 0.01),
	}
	lat.Claims = []Claim{
		atMost("fig15b/worst-batched", "batched round trips stay below ~3.5 us", worstLat, 3.5),
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
	lead := math.MaxFloat64
	for _, vec := range []int{64, 128, 256, 512, 1024} {
		v := net.Vector(vec, 4, model.PCIeAchievableTwoEP)
		t.Add(itoa(vec), gbps(v.UpdateWithReturn), gbps(v.UpdateWithoutReturn),
			gbps(v.OneKeyPerElement), gbps(v.FetchToClient))
		lead = min(lead, (v.UpdateWithoutReturn-max(v.OneKeyPerElement, v.FetchToClient))/1e9)
	}
	t.Claims = []Claim{
		atLeast("table2/update-lead", "vector update beats one key per element and fetching to the client at every size", lead, 0),
	}
	return []*Table{t}
}
