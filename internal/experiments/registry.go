package experiments

// Experiment is one regenerable table/figure group.
type Experiment struct {
	Name string // kvdbench subcommand, e.g. "fig11"
	Desc string
	Run  func(Scale) []*Table
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "PCIe random DMA throughput and latency", Fig3},
		{"fig6", "inline threshold vs memory accesses", Fig6},
		{"fig9", "hash index ratio / utilization vs accesses", Fig9},
		{"fig10", "max utilization vs hash index ratio", Fig10},
		{"fig11", "hash table designs: accesses per op", Fig11},
		{"fig12", "slab merging: bitmap vs multi-core radix sort", Fig12},
		{"fig13", "out-of-order engine effectiveness", Fig13},
		{"fig14", "DRAM load dispatcher throughput", Fig14},
		{"fig15", "network batching efficiency", Fig15},
		{"fig16", "YCSB system throughput", Fig16},
		{"fig17", "latency under peak throughput", Fig17},
		{"table2", "vector operation throughput", Table2},
		{"table3", "comparison with state-of-the-art systems", Table3},
		{"table4", "impact on host CPU workloads", Table4},
		{"scaling", "multi-NIC scaling to 1.22 GOps", Scaling},
		{"ablation", "design-choice ablations (beyond the paper)", Ablations},
		{"syssim", "integrated event-simulation cross-check (beyond the paper)", SysSim},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
