package model

import (
	"math"
	"testing"
)

// TestRate: each of the four resources binds in exactly one case and is
// named, and an op with no load runs at the clock.
func TestRate(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name            string
		load            Load
		pcieOps, netOps float64
		want            float64
		bound           Bound
	}{
		{"zero load", Load{}, 120e6, inf, PeakOpsPerSec, Clock},
		{"light load", Load{PCIe: 0.5, DRAM: 0.5}, 120e6, 1e9, PeakOpsPerSec, Clock},
		{"network", Load{PCIe: 0.5}, 120e6, 40e6, 40e6, Network},
		{"pcie", Load{PCIe: 2, DRAM: 1}, 120e6, inf, 60e6, PCIe},
		{"dram", Load{PCIe: 0.1, DRAM: 4}, 120e6, inf, NICDRAMLineOpsPerSec / 4, DRAM},
	} {
		got, bound := Rate(c.load, c.pcieOps, c.netOps)
		if got != c.want || bound != c.bound {
			t.Errorf("%s: Rate = %.2f Mops (%s), want %.2f Mops (%s)", c.name, got/1e6, bound, c.want/1e6, c.bound)
		}
	}
}

func TestPowerEfficiencyMatchesPaper(t *testing.T) {
	// Paper: first general-purpose KVS to achieve 1 MOps/W on commodity
	// servers (180 Mops / 121.4 W = 1.48 MOps/W).
	eff := PowerEfficiency(PeakOpsPerSec)
	if eff < 1e6 {
		t.Errorf("power efficiency %.2f MOps/W, want > 1", eff/1e6)
	}
	if eff > 2e6 {
		t.Errorf("power efficiency %.2f MOps/W implausibly high", eff/1e6)
	}
	// Delta criterion is ~10x better than CPU systems.
	if d := DeltaPowerEfficiency(PeakOpsPerSec); d < 4e6 {
		t.Errorf("delta power efficiency %.2f MOps/W, want > 4", d/1e6)
	}
}

func TestMultiNICScaling(t *testing.T) {
	perNIC := 122e6 // average per-NIC rate in the 10-NIC experiment
	ten := MultiNICThroughput(perNIC, 10, HostMemBandwidthBytesPerSec)
	if ten < 1.1e9 || ten > 1.25e9 {
		t.Errorf("10-NIC throughput = %.2f Gops, want ~1.22", ten/1e9)
	}
	// Near-linear: 10 NICs within 10%% of 10x one NIC.
	one := MultiNICThroughput(perNIC, 1, HostMemBandwidthBytesPerSec)
	if ten < 9*one {
		t.Errorf("scaling not near-linear: 1 NIC %.1f, 10 NIC %.1f Mops",
			one/1e6, ten/1e6)
	}
	// Ludicrous NIC counts hit the host memory bandwidth wall.
	wall := MultiNICThroughput(perNIC, 1000, HostMemBandwidthBytesPerSec)
	if wall != HostMemBandwidthBytesPerSec/64 {
		t.Errorf("1000-NIC throughput should hit memory wall, got %g", wall)
	}
}

func TestKVDirectVsCPUPowerRatio(t *testing.T) {
	// Paper: 3x power efficiency vs CPU KVS. A 16-core CPU server at
	// 7.9 Mops/core batched burns ~250-400 W under load.
	cpuOps := CPUKVOpsPerCoreBatched * CPUCoresPerServer
	cpuEff := cpuOps / 350.0
	ratio := PowerEfficiency(PeakOpsPerSec) / cpuEff
	if ratio < 2.5 {
		t.Errorf("KV-Direct/CPU power efficiency ratio = %.1fx, want >= 2.5x", ratio)
	}
}
