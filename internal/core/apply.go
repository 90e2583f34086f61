package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// Apply executes one decoded wire request against the store and builds
// its response — the glue between the vector operation decoder and the KV
// processor that the network server uses.
//
// No silent corruption: if executing the operation tripped an
// uncorrectable memory fault (double-bit flip with no intact copy
// anywhere), the result may have been built from damaged bytes, so a
// would-be OK/NotFound is converted into an explicit error. Results that
// already report an error pass through unchanged.
//
//kvd:hotpath
func (s *Store) Apply(req wire.Request) wire.Response {
	before := s.uncorrectable()
	var resp wire.Response
	switch req.Code {
	case wire.OpGet:
		if v, ok := s.Get(req.Key); ok {
			resp = wire.Response{Status: wire.StatusOK, Value: v}
		} else {
			resp = wire.Response{Status: wire.StatusNotFound}
		}
	case wire.OpPut:
		if err := s.Put(req.Key, req.Value); err != nil {
			resp = errResp(err) //lint:allow hotalloc -- a failed PUT's reply carries the error text
		} else {
			resp = wire.Response{Status: wire.StatusOK}
		}
	case wire.OpDelete:
		if s.Delete(req.Key) {
			resp = wire.Response{Status: wire.StatusOK}
		} else {
			resp = wire.Response{Status: wire.StatusNotFound}
		}
	default:
		resp = s.applyOther(req) //lint:allow hotalloc -- atomics, vector ops, scans, stats and gateway ops build value-bearing replies
	}
	if s.uncorrectable() > before && resp.Status != wire.StatusError {
		return wire.Response{Status: wire.StatusError,
			Value: []byte("uncorrectable memory fault during operation")} //lint:allow hotalloc -- uncorrectable-fault path: runs at most once per ECC loss, never per op
	}
	return resp
}

// applyOther executes every opcode but the plain GET/PUT/DELETE that
// Apply handles inline.
func (s *Store) applyOther(req wire.Request) wire.Response {
	switch req.Code {
	case wire.OpUpdateScalar:
		width := int(req.ElemWidth)
		param, err := paramScalar(req.Param, width)
		if err != nil {
			return errResp(err)
		}
		old, err := s.Update(req.Key, req.FuncID, width, param)
		if err != nil {
			return errResp(err)
		}
		out := make([]byte, width)
		encodeElem(out, 0, width, old)
		return wire.Response{Status: wire.StatusOK, Value: out}

	case wire.OpUpdateS2V:
		width := int(req.ElemWidth)
		param, err := paramScalar(req.Param, width)
		if err != nil {
			return errResp(err)
		}
		orig, err := s.UpdateScalarToVector(req.Key, req.FuncID, width, param)
		if err != nil {
			return errResp(err)
		}
		return wire.Response{Status: wire.StatusOK, Value: orig}

	case wire.OpUpdateV2V:
		orig, err := s.UpdateVectorToVector(req.Key, req.FuncID, int(req.ElemWidth), req.Value)
		if err != nil {
			return errResp(err)
		}
		return wire.Response{Status: wire.StatusOK, Value: orig}

	case wire.OpReduce:
		width := int(req.ElemWidth)
		init, err := paramScalar(req.Param, width)
		if err != nil {
			return errResp(err)
		}
		sum, err := s.Reduce(req.Key, req.FuncID, width, init)
		if err != nil {
			return errResp(err)
		}
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, sum)
		return wire.Response{Status: wire.StatusOK, Value: out}

	case wire.OpFilter:
		v, err := s.Filter(req.Key, req.FuncID, int(req.ElemWidth))
		if err != nil {
			return errResp(err)
		}
		return wire.Response{Status: wire.StatusOK, Value: v}

	case wire.OpScan:
		limit, cursor, err := wire.DecodeScanParam(req.Value)
		if err != nil {
			return errResp(err)
		}
		start := req.Key
		if len(cursor) > 0 {
			// A continuation cursor resumes past the original start key.
			start = cursor
		}
		entries, next, err := s.scanBounded(start, limit, wire.MaxScanDataBytes)
		if err != nil {
			return errResp(err)
		}
		page, err := wire.EncodeScanPage(entries, next)
		if err != nil {
			return errResp(err)
		}
		return wire.Response{Status: wire.StatusOK, Value: page}

	case wire.OpStats:
		st := s.Stats()
		h := s.Health()
		state := "ok"
		if !h.OK() {
			state = "degraded"
		}
		text := fmt.Sprintf(
			"keys=%d\npayload_bytes=%d\nchain_buckets=%d\nutilization=%.4f\n"+
				"pcie_reads=%d\npcie_writes=%d\ncache_hit_rate=%.4f\n"+
				"merge_ratio=%.4f\nwritebacks=%d\nwriteback_errors=%d\n"+
				"slab_allocs=%d\nslab_frees=%d\nslab_sync_dmas=%d\n"+
				"ecc_corrected=%d\necc_uncorrectable=%d\n"+
				"cache_ecc_corrected=%d\ncache_ecc_healed=%d\ncache_ecc_lost=%d\n"+
				"pcie_retries=%d\npcie_stalls=%d\n"+
				"faults_injected=%d\ncorrupt_chains=%d\nhealth=%s\n",
			st.Keys, st.PayloadBytes, st.ChainBuckets, s.Utilization(),
			st.Mem.Reads, st.Mem.Writes, st.Cache.HitRate(),
			st.Engine.MergeRatio(), st.Engine.Writebacks, st.Engine.WritebackErrors,
			st.Slab.Allocs, st.Slab.Frees, st.Slab.SyncDMAs,
			st.ECC.Corrected, st.ECC.Uncorrectable,
			st.Cache.EccCorrected, st.Cache.EccHealed, st.Cache.EccLost,
			st.Fault.Retries, st.Fault.Stalls,
			st.FaultsInjected, st.CorruptChains, state)
		return wire.Response{Status: wire.StatusOK, Value: []byte(text)}

	case wire.OpTelemetry:
		return s.telemetrySnapshot()

	case wire.OpPutVer:
		return s.applyPutVer(req)

	case wire.OpCounterVer:
		return s.applyCounterVer(req)

	case wire.OpRegister:
		src := string(req.Param)
		var err error
		if req.ElemWidth == 1 {
			err = s.RegisterFilterExpression(req.FuncID, src)
		} else {
			err = s.RegisterExpression(req.FuncID, src)
		}
		if err != nil {
			return errResp(err)
		}
		return wire.Response{Status: wire.StatusOK}

	default:
		return wire.Response{Status: wire.StatusError, Value: []byte("bad opcode")}
	}
}

// ApplyRun executes reqs in order into out[:len(reqs)], the one entry
// point every serving path applies through, so dependent ops in a run
// see each other's effects. An op that panics (a misbehaving λ, a
// corrupted pointer) is answered as its own error and the ops after it
// apply as a run of their own; the result counts the panics. A non-nil
// span is charged once with the model's access-count delta across it all.
//
//kvd:hotpath
func (s *Store) ApplyRun(reqs []wire.Request, out []wire.Response, span *telemetry.Span) (panics int) {
	if span != nil {
		before := s.accessStats()
		defer func() { //lint:allow hotalloc -- a traced run's charge; the defer is open-coded and its closure stays on the stack
			after := s.accessStats()
			span.AddCounts(Stats{
				Mem:      after.Mem.Sub(before.Mem),
				Cache:    after.Cache.Sub(before.Cache),
				Dispatch: after.Dispatch.Sub(before.Dispatch),
			}.AccessCounts())
		}()
	}
	i := 0
	defer func() { //lint:allow hotalloc -- one recover per run, open-coded with its closure on the stack; only a panic's error text allocates
		if r := recover(); r != nil {
			out[i] = wire.Response{Status: wire.StatusError, Value: fmt.Appendf(nil, "panic: %v", r)}
			panics = 1 + s.ApplyRun(reqs[i+1:], out[i+1:], nil)
		}
	}()
	for ; i < len(reqs); i++ {
		out[i] = s.Apply(reqs[i]) //lint:allow hotalloc -- see the allows in Apply
	}
	return 0
}

// ApplyBatch executes a decoded packet through ApplyRun, untraced.
func (s *Store) ApplyBatch(reqs []wire.Request) []wire.Response {
	out := make([]wire.Response, len(reqs))
	s.ApplyRun(reqs, out, nil)
	return out
}

func paramScalar(p []byte, width int) (uint64, error) {
	if err := checkWidth(width); err != nil {
		return 0, err
	}
	if len(p) != width {
		return 0, ErrParamWidth
	}
	return decodeElem(p, 0, width), nil
}

func errResp(err error) wire.Response {
	if errors.Is(err, ErrNotFound) {
		return wire.Response{Status: wire.StatusNotFound}
	}
	if errors.Is(err, ErrFull) {
		return wire.Response{Status: wire.StatusFull, Value: []byte(err.Error())}
	}
	return wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
}
