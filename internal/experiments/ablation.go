package experiments

import (
	"fmt"
	"math"

	"kvdirect/internal/core"
	"kvdirect/internal/model"
	"kvdirect/internal/ooo"
	"kvdirect/internal/workload"
)

// Ablations quantifies each of KV-Direct's design choices in isolation by
// toggling it off on an otherwise-identical store and measuring the same
// 10 B-KV YCSB point. It goes beyond the paper's figures (which compare
// against external baselines) by holding everything else constant.
func Ablations(sc Scale) []*Table {
	t := &Table{
		ID:    "ablation",
		Title: "Design-choice ablations (10 B KVs, 50% GET, long-tail)",
		Columns: []string{"configuration", "PCIe DMAs/op", "NIC DRAM ops/op",
			"merge ratio", "modeled Mops"},
		Notes: "each row toggles one mechanism off; the full design is the reference",
	}

	type variant struct {
		name string
		cfg  core.Config
	}
	base := core.Config{MemoryBytes: sc.MemBytes, InlineThreshold: 15, HashIndexRatio: 0.9, Seed: uint64(sc.Seed)}
	noInline := base
	noInline.InlineThreshold = -1
	noInline.HashIndexRatio = chooseRatio(10, 0)
	noCache := base
	noCache.DisableCache = true
	noOoO := base
	noOoO.DisableOoO = true

	var rows []ablationRow // in the order below: the full design, then one per mechanism
	for _, v := range []variant{
		{"full design", base},
		{"no inline KVs", noInline},
		{"no DRAM load dispatch", noCache},
		{"no out-of-order execution", noOoO},
	} {
		row := measureAblation(sc, v.cfg)
		t.Add(v.name, f2(row.pcie), f2(row.dram), f2(row.merge), mops(row.tput))
		rows = append(rows, row)
	}
	bestAblated := max(rows[1].tput, rows[2].tput, rows[3].tput)
	t.Claims = []Claim{
		atLeast("ablation/full-design-lead", "each mechanism pays: switching any one off lowers throughput", (rows[0].tput-bestAblated)/1e6, 0.1),
		within("ablation/no-dispatch-dram", "without load dispatch the NIC DRAM serves nothing", rows[2].dram, 0, 0),
		atMost("ablation/no-ooo-merge", "the merges are out-of-order execution's: without it nothing merges", rows[3].merge, 0),
	}

	// The OoO ablation's throughput impact shows best on dependent
	// atomics; add the timing-model view.
	ops := zipfStream(sc.SimOps, 0.5, sc.Seed)
	with := ooo.DefaultSimConfig(true).Simulate(ops).OpsPerSec
	without := ooo.DefaultSimConfig(false).Simulate(ops).OpsPerSec
	t.Notes += fmt.Sprintf("; timing model on dependent long-tail ops: OoO %s vs stall %s Mops",
		mops(with), mops(without))
	return []*Table{t}
}

type ablationRow struct {
	pcie, dram, merge, tput float64
}

func measureAblation(sc Scale, cfg core.Config) ablationRow {
	s, err := core.NewStore(cfg)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	const keySize = 5
	gen := workload.New(workload.Config{Keys: 1, KeySize: keySize, ValSize: 5, Seed: sc.Seed})
	var n uint64
	for s.Utilization() < 0.15 {
		if err := s.Put(gen.KeyBytes(n)[:keySize], gen.ValueBytes(n, 0)); err != nil {
			break
		}
		n++
	}
	keys := workload.New(workload.Config{
		Keys: n, Skew: 0.99, GetRatio: 0.5, KeySize: keySize, ValSize: 5, Seed: sc.Seed + 1,
	})
	// Warm the cache.
	for i := 0; i < sc.Ops; i++ {
		s.Get(keys.KeyBytes(keys.NextKey())[:keySize])
	}
	s.ResetCounters()
	for i := 0; i < sc.Ops; i++ {
		op := keys.Next()
		key := keys.KeyBytes(op.KeyID)[:keySize]
		if op.Kind == workload.Get {
			s.SubmitGet(key, nil)
		} else {
			s.SubmitPut(key, keys.ValueBytes(op.KeyID, uint64(i)), nil)
		}
	}
	s.Flush()
	st := s.Stats()
	load := model.Load{
		PCIe: float64(st.Mem.Accesses()) / float64(sc.Ops),
		DRAM: float64(st.Cache.DRAMLineReads+st.Cache.DRAMLineWrites) / float64(sc.Ops),
	}
	tput, _ := model.Rate(load, pcieOpsPerSec(model.CacheLineBytes), math.Inf(1))
	return ablationRow{pcie: load.PCIe, dram: load.DRAM, merge: st.Engine.MergeRatio(), tput: tput}
}
