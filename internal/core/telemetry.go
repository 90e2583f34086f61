package core

import (
	"encoding/json"

	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// The core is a simulated clock domain: the walltime analyzer bans
// wall-clock reads here, so tracing in this package charges spans with
// measured access-count deltas only. Stage durations are stamped by the
// network layer around the pipeline, where real time is honest.

// SetTelemetry attaches a registry. The store does not create one
// itself: the owner (kvnet server, replica, cluster) shares a single
// registry across layers so all metrics land in one namespace. Must be
// called before concurrent use begins, like the rest of Store
// configuration.
func (s *Store) SetTelemetry(reg *telemetry.Registry) { s.tel = reg }

// Telemetry returns the attached registry, nil if none.
func (s *Store) Telemetry() *telemetry.Registry { return s.tel }

// AccessCounts converts a Stats snapshot into span-attributable access
// counts: DMA round-trips over PCIe, NIC DRAM cache behaviour, and the
// dispatcher's routing split.
func (st Stats) AccessCounts() telemetry.AccessCounts {
	return telemetry.AccessCounts{
		PCIeReads:      st.Mem.Reads,
		PCIeWrites:     st.Mem.Writes,
		PCIeReadLines:  st.Mem.ReadLines,
		PCIeWriteLines: st.Mem.WriteLines,
		DRAMHits:       st.Cache.Hits,
		DRAMMisses:     st.Cache.Misses,
		DRAMLineReads:  st.Cache.DRAMLineReads,
		DRAMLineWrites: st.Cache.DRAMLineWrites,
		DispatchDirect: st.Dispatch.DirectReads + st.Dispatch.DirectWrites,
		DispatchCached: st.Dispatch.CachedReads + st.Dispatch.CachedWrites,
	}
}

// accessStats reads just the counters a traced op needs, skipping the
// table walks Stats() performs.
func (s *Store) accessStats() Stats {
	st := Stats{Mem: s.mem.Stats(), Dispatch: s.disp.Stats()}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	return st
}

// PublishTelemetry pushes the store's current component counters into
// the attached registry as gauges (levels of the simulation's
// cumulative counters), so HTTP and wire scrapes see core state without
// reaching into the store. No-op without a registry. Callers must hold
// whatever lock serializes the store's pipeline.
func (s *Store) PublishTelemetry() {
	if s.tel == nil {
		return
	}
	st := s.Stats()
	g := s.tel.Gauges()
	g.Set("core.keys", st.Keys)
	g.Set("core.payload_bytes", st.PayloadBytes)
	g.Set("core.chain_buckets", st.ChainBuckets)
	g.Set("core.corrupt_chains", st.CorruptChains)
	g.Set("core.faults_injected", st.FaultsInjected)
	g.Set("pcie.reads", st.Mem.Reads)
	g.Set("pcie.writes", st.Mem.Writes)
	g.Set("pcie.read_lines", st.Mem.ReadLines)
	g.Set("pcie.write_lines", st.Mem.WriteLines)
	g.Set("dram.hits", st.Cache.Hits)
	g.Set("dram.misses", st.Cache.Misses)
	g.Set("dram.fills", st.Cache.Fills)
	g.Set("dram.line_reads", st.Cache.DRAMLineReads)
	g.Set("dram.line_writes", st.Cache.DRAMLineWrites)
	g.Set("dispatch.direct_reads", st.Dispatch.DirectReads)
	g.Set("dispatch.direct_writes", st.Dispatch.DirectWrites)
	g.Set("dispatch.cached_reads", st.Dispatch.CachedReads)
	g.Set("dispatch.cached_writes", st.Dispatch.CachedWrites)
	g.Set("ordered.keys", st.Ordered.Keys)
	g.Set("ordered.node_bytes", st.Ordered.NodeBytes)
	g.Set("ordered.inserts", st.Ordered.Inserts)
	g.Set("ordered.deletes", st.Ordered.Deletes)
	g.Set("ordered.seeks", st.Ordered.Seeks)
	g.Set("ordered.visited", st.Ordered.Visited)
	g.Set("ecc.corrected", st.ECC.Corrected+st.Cache.EccCorrected)
	g.Set("ecc.healed", st.Cache.EccHealed)
	g.Set("ecc.uncorrectable", st.ECC.Uncorrectable+st.Cache.EccLost)
	g.Set("fault.retries", st.Fault.Retries)
	g.Set("fault.stalls", st.Fault.Stalls)
}

// telemetrySnapshot serves the wire OpTelemetry scrape: refresh the
// registry's core gauges and marshal the full snapshot. Runs inside the
// pipeline (already serialized by the network server), so no extra
// locking.
func (s *Store) telemetrySnapshot() wire.Response {
	if s.tel == nil {
		return wire.Response{Status: wire.StatusError,
			Value: []byte("telemetry not enabled")}
	}
	s.PublishTelemetry()
	data, err := json.Marshal(s.tel.Snapshot())
	if err != nil {
		return wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
	}
	return wire.Response{Status: wire.StatusOK, Value: data}
}
