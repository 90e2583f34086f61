// Package model holds the KV-Direct testbed's numbers that belong to no
// one component (SOSP'17, §2.2–§5.2) and the one bottleneck rule that
// turns measured per-op loads into throughput: Rate.
//
// Components own their own numbers: the PCIe endpoint's live in
// pcie.DefaultConfig, the network's in netmodel.DefaultConfig, and the
// reservation station's window and slot count in package ooo. What is
// left here is the clock, the NIC DRAM channel, host-side measurements,
// the published baselines and the power figures.
package model

import "math"

// Hardware constants from the paper.
const (
	// FPGA KV processor.
	ClockHz       = 180e6 // 180 MHz, fully pipelined: one op per cycle
	PeakOpsPerSec = ClockHz

	// The NIC attaches through two PCIe Gen3 x8 endpoints (bifurcated
	// x16); each endpoint's parameters are pcie.DefaultConfig.
	PCIeEndpoints       = 2
	PCIeAchievableTwoEP = 13.2e9 // measured achievable bytes/s, two endpoints

	// NIC on-board DRAM: one DDR3-1600 channel.
	NICDRAMBytesPerSec   = 12.8e9
	NICDRAMLatencyNs     = 200 // one line access
	CacheLineBytes       = 64
	NICDRAMLineOpsPerSec = NICDRAMBytesPerSec / CacheLineBytes

	// Host memory (paper §2.2).
	HostDRAMReadNs = 110 // 64 B random read latency

	NICProcessingNs = 400 // decode + pipeline traversal in the FPGA

	// CPU baseline measurements (paper §2.2).
	CPURandom64BOpsPerCore = 29.3e6
	CPUKVOpsPerCore        = 5.5e6 // interleaved compute + access
	CPUKVOpsPerCoreBatched = 7.9e6 // with software batching/prefetch
	CPUCoresPerServer      = 16    // 2x8-core E5-2650v2, HT off

	// RDMA baselines (paper §2.2, §5.1.3).
	RDMAOneSidedAtomicsOps = 2.24e6 // single-key atomics, RDMA NIC
	RDMAMessageRateOps     = 115e6  // 80-150 Mops message rate, midpoint

	// Power (paper §5.2.3, watts).
	ServerIdlePower     = 87.0
	KVDirectDeltaPower  = 34.4 // NIC + PCIe + host memory + daemon
	KVDirectSystemPower = ServerIdlePower + KVDirectDeltaPower
)

// Load is an op stream's mean demand on the NIC's memory system, as the
// functional store measured it.
type Load struct {
	PCIe float64 // PCIe DMAs per op
	DRAM float64 // NIC DRAM line operations per op
}

// Bound names the resource that binds a rate.
type Bound string

// The four resources of the bottleneck rule.
const (
	Clock   Bound = "clock"
	Network Bound = "network"
	PCIe    Bound = "pcie"
	DRAM    Bound = "dram"
)

// Rate is KV-Direct's bottleneck rule (paper §2.4, §5.2.2, Figure 16): a
// fully pipelined KV processor runs at the clock unless the network or the
// memory system binds first. pcieOps is the PCIe random-access capacity in
// DMAs/s over both endpoints, netOps the network's KV-op ceiling (+Inf
// where the network is not modeled); the NIC DRAM's capacity is its line
// rate, and a resource with zero load never binds. It returns the rate in
// ops/s and the resource that sets it; on a tie the earlier of clock,
// network, PCIe, DRAM is named.
func Rate(load Load, pcieOps, netOps float64) (float64, Bound) {
	rate, bound := PeakOpsPerSec, Clock
	if netOps < rate {
		rate, bound = netOps, Network
	}
	if r := pcieOps / load.PCIe; r < rate {
		rate, bound = r, PCIe
	}
	if r := NICDRAMLineOpsPerSec / load.DRAM; r < rate {
		rate, bound = r, DRAM
	}
	return rate, bound
}

// PowerEfficiency returns KV operations per watt for the given throughput,
// using whole-system power (Table 3's headline metric).
func PowerEfficiency(opsPerSec float64) float64 {
	return opsPerSec / KVDirectSystemPower
}

// DeltaPowerEfficiency returns ops per watt counting only the power added
// by KV-Direct (NIC + PCIe + memory + daemon), the paper's parenthesized
// criterion for offload systems whose host can run other work.
func DeltaPowerEfficiency(opsPerSec float64) float64 {
	return opsPerSec / KVDirectDeltaPower
}

// MultiNICThroughput models the near-linear scaling of §5.2's 10-NIC
// experiment: each NIC owns a disjoint memory partition on its own NUMA
// path, so scaling is linear until the aggregate host memory bandwidth
// ceiling is reached.
func MultiNICThroughput(perNICOps float64, nics int, hostMemBytesPerSec float64) float64 {
	linear := perNICOps * float64(nics)
	// Each op costs ~1 line of host DRAM traffic on average (cache absorbs
	// the rest); the 128 GiB dual-socket testbed sustains ~85 GB/s.
	memCeiling := hostMemBytesPerSec / float64(CacheLineBytes)
	return math.Min(linear, memCeiling)
}

// HostMemBandwidthBytesPerSec is the dual-socket testbed's aggregate DRAM
// bandwidth (8 channels DDR3-1600).
const HostMemBandwidthBytesPerSec = 85e9
