// Package kvdirect is a faithful software reproduction of KV-Direct
// (SOSP'17), the high-performance in-memory key-value store that offloads
// KV processing to a programmable NIC with remote direct key-value access.
//
// The hardware — FPGA KV processor, PCIe Gen3 x8 DMA engines, on-NIC DRAM
// cache, 40 Gbps network — is modeled in software with the paper's
// measured parameters, while every algorithmic component is a real
// implementation: the inline-capable chained hash index, the slab
// allocator with NIC-side caching and lazy merging, the out-of-order
// execution engine with data forwarding, the DRAM load dispatcher, and
// the batched wire format with vector operations.
//
// # Quick start
//
//	store, err := kvdirect.New(kvdirect.Config{})
//	if err != nil { ... }
//	store.Put([]byte("answer"), []byte("42"))
//	v, ok := store.Get([]byte("answer"))
//
// Atomic and vector operations (paper Table 1):
//
//	old, _ := store.Update([]byte("seq"), kvdirect.FnAdd, 8, 1) // fetch-add
//	sum, _ := store.Reduce([]byte("weights"), kvdirect.FnAdd, 4, 0)
//
// For pipelined (batched) access that exercises the out-of-order engine,
// use the Submit* methods and Flush.
//
// The companion packages and binaries regenerate the paper's evaluation:
// see cmd/kvdbench and EXPERIMENTS.md.
package kvdirect

import (
	"bytes"
	"fmt"

	"kvdirect/internal/core"
	"kvdirect/internal/fault"
	"kvdirect/internal/wire"
)

// Config parameterizes a Store; the zero value gives the paper's testbed
// scaled down 256x (256 MiB host KVS, 16 MiB NIC DRAM cache). See
// internal/core.Config for field semantics.
type Config = core.Config

// Store is one KV-Direct NIC instance. It is not safe for concurrent use;
// wrap it with kvnet.Server (whose store backend serializes, as the
// single hardware pipeline does) for shared access.
type Store = core.Store

// Stats aggregates counters across all simulated components.
type Stats = core.Stats

// Done is the completion callback type for pipelined operations.
type Done = core.Done

// UpdateFunc is a pre-registered scalar/vector update λ.
type UpdateFunc = core.UpdateFunc

// FilterFunc is a pre-registered filter λ.
type FilterFunc = core.FilterFunc

// New creates a store.
func New(cfg Config) (*Store, error) { return core.NewStore(cfg) }

// Built-in update and filter function ids.
const (
	FnAdd  = core.FnAdd
	FnSub  = core.FnSub
	FnMax  = core.FnMax
	FnMin  = core.FnMin
	FnXor  = core.FnXor
	FnSwap = core.FnSwap

	FilterNonZero = core.FilterNonZero
	FilterOdd     = core.FilterOdd
)

// Errors mirrored from the core implementation.
var (
	ErrFull       = core.ErrFull
	ErrNotFound   = core.ErrNotFound
	ErrBadVector  = core.ErrBadVector
	ErrBadWidth   = core.ErrBadWidth
	ErrUnknownFn  = core.ErrUnknownFn
	ErrBadScalar  = core.ErrBadScalar
	ErrParamWidth = core.ErrParamWidth
)

// --- fault injection (see internal/fault and DESIGN.md) ---

// FaultInjector is a deterministic, seedable source of injected faults,
// attachable to a Store (Config.Faults) and a kvnet server
// (ServerOptions.Faults). All hooks are inert while every probability is
// zero.
type FaultInjector = fault.Injector

// FaultPoint names one injection point.
type FaultPoint = fault.Point

// NewFaultInjector creates an injector; the same seed and probabilities
// reproduce the same fault schedule.
func NewFaultInjector(seed int64) *FaultInjector { return fault.NewInjector(seed) }

// Named fault-injection points.
const (
	FaultHostBitFlip       = fault.HostBitFlip       // single-bit flip in host memory (ECC corrects)
	FaultHostDoubleBitFlip = fault.HostDoubleBitFlip // double-bit flip (ECC detects, store escalates)
	FaultDRAMBitFlip       = fault.DRAMBitFlip       // single-bit flip in NIC DRAM (ECC corrects)
	FaultDRAMDoubleBitFlip = fault.DRAMDoubleBitFlip // double-bit flip (clean lines self-heal)
	FaultPCIeStall         = fault.PCIeStall         // DMA request stalled
	FaultPCIeDropTag       = fault.PCIeDropTag       // DMA read completion lost, re-issued
	FaultNetCorruptFrame   = fault.NetCorruptFrame   // response payload corrupted in flight
	FaultNetTruncateFrame  = fault.NetTruncateFrame  // response cut mid-frame
	FaultNetReset          = fault.NetReset          // connection reset before the response

	FaultGwDecodeCorrupt        = fault.GwDecodeCorrupt        // inbound memcache frame corrupted at the gateway
	FaultGwTenantQuotaExhausted = fault.GwTenantQuotaExhausted // gateway admission forced to report quota exhaustion
)

// Health summarizes a store's fault/recovery state (Store.Health).
type Health = core.Health

// OpCode identifies a wire-level operation (Table 1).
type OpCode = wire.OpCode

// Wire operation codes, usable with Op/Result batches over kvnet.
const (
	OpGet          = wire.OpGet
	OpPut          = wire.OpPut
	OpDelete       = wire.OpDelete
	OpUpdateScalar = wire.OpUpdateScalar
	OpUpdateS2V    = wire.OpUpdateS2V
	OpUpdateV2V    = wire.OpUpdateV2V
	OpReduce       = wire.OpReduce
	OpFilter       = wire.OpFilter
	// OpRegister installs a λ expression on the server before use
	// (Param = expression source; ElemWidth 0 = update, 1 = filter).
	OpRegister = wire.OpRegister
	// OpStats fetches server counters as key=value text.
	OpStats = wire.OpStats
	// OpTelemetry fetches the unified telemetry snapshot as JSON (see
	// internal/telemetry); fails unless a registry is attached.
	OpTelemetry = wire.OpTelemetry
	// OpScan performs an ordered range scan: Key is the start key and
	// Value an encoded scan parameter (build with ScanOp); the response
	// value is a scan page (decode with DecodeScanResult).
	OpScan = wire.OpScan
	// OpPutVer is the versioned conditional store the protocol gateway
	// maps the memcache storage family onto (build with PutVerOp /
	// DeleteVerOp, decode with DecodePutVerResult).
	OpPutVer = wire.OpPutVer
	// OpCounterVer atomically adjusts an ASCII-decimal counter item
	// (build with CounterOp, decode with DecodeCounterResult).
	OpCounterVer = wire.OpCounterVer
)

// Result status codes.
const (
	StatusOK       = wire.StatusOK
	StatusNotFound = wire.StatusNotFound
	StatusError    = wire.StatusError
	// StatusNotPrimary rejects a mutating operation sent to a replica
	// that is not its group's primary; the op was not applied and the
	// value may carry the primary's address as a redirect hint.
	StatusNotPrimary = wire.StatusNotPrimary
	// StatusExists: a versioned store's precondition failed because the
	// key exists (ADD) or its version mismatched (CAS).
	StatusExists = wire.StatusExists
	// StatusNotStored: APPEND/PREPEND against a missing key.
	StatusNotStored = wire.StatusNotStored
	// StatusBadDelta: counter op against a non-numeric stored value.
	StatusBadDelta = wire.StatusBadDelta
	// StatusFull: the store or the item's wire capacity is exhausted.
	StatusFull = wire.StatusFull
)

// Op is one operation in a client batch. It is the wire package's own
// request type, so a batch reaches the core apply path — in process or
// through the codec — without being converted.
type Op = wire.Request

// Result is one operation outcome (see wire.Response for OK, NotFound
// and NotPrimary).
type Result = wire.Response

// TraceContext says whether, and where in which distributed trace, a
// batch is traced — the argument of every DoTrace. The zero value is an
// untraced batch; TraceContext{Sampled: true} starts a fresh trace.
type TraceContext = wire.TraceContext

// PutVerMode selects the condition of a versioned store (PutVerOp).
type PutVerMode = wire.PutVerMode

// Versioned-store modes: the memcache storage family as seven modes of
// one compare-version-and-swap primitive (see internal/wire/gw.go).
const (
	PutVerSet     = wire.PutVerSet
	PutVerAdd     = wire.PutVerAdd
	PutVerReplace = wire.PutVerReplace
	PutVerCAS     = wire.PutVerCAS
	PutVerAppend  = wire.PutVerAppend
	PutVerPrepend = wire.PutVerPrepend
	PutVerDelete  = wire.PutVerDelete
)

// PutVerOp builds a versioned conditional store: mode selects the
// precondition, expect the required current version (0 = unconditional
// where the mode allows), flags ride with the item, payload is the user
// value. The server assigns the new version; decode the result with
// DecodePutVerResult.
func PutVerOp(mode PutVerMode, key []byte, expect uint64, flags uint32, payload []byte) (Op, error) {
	param, err := wire.EncodePutVerParam(mode, expect)
	if err != nil {
		return Op{}, err
	}
	val, err := wire.EncodeGwValue(flags, payload)
	if err != nil {
		return Op{}, err
	}
	return Op{Code: OpPutVer, Key: key, Value: val, Param: param}, nil
}

// DeleteVerOp builds a versioned delete (expect 0 = unconditional).
func DeleteVerOp(key []byte, expect uint64) (Op, error) {
	param, err := wire.EncodePutVerParam(wire.PutVerDelete, expect)
	if err != nil {
		return Op{}, err
	}
	return Op{Code: OpPutVer, Key: key, Param: param}, nil
}

// DecodePutVerResult unpacks a successful versioned-store result into
// the item's new version (for deletes, the deleted version), whether the
// key existed before, and the previous stored length in bytes.
func DecodePutVerResult(r Result) (version uint64, existed bool, oldLen int, err error) {
	if r.Status != StatusOK {
		return 0, false, 0, fmt.Errorf("kvdirect: putver failed: status %d", r.Status)
	}
	return wire.DecodePutVerReply(r.Value)
}

// CounterOp builds an atomic counter adjustment on an ASCII-decimal
// item: incr selects direction, delta the step; a missing key is created
// holding initial when create is true and reports NotFound otherwise.
func CounterOp(key []byte, incr bool, delta, initial uint64, create bool) (Op, error) {
	sub := wire.CounterIncr
	if !incr {
		sub = wire.CounterDecr
	}
	param, err := wire.EncodeCounterParam(sub, delta, initial, create)
	if err != nil {
		return Op{}, err
	}
	return Op{Code: OpCounterVer, Key: key, Param: param}, nil
}

// DecodeCounterResult unpacks a successful counter result into the
// post-adjustment value and the item's new version.
func DecodeCounterResult(r Result) (value, version uint64, err error) {
	if r.Status != StatusOK {
		return 0, 0, fmt.Errorf("kvdirect: counter failed: status %d", r.Status)
	}
	return wire.DecodeCounterReply(r.Value)
}

// GwItem is the decoded form of a value stored by the versioned-store
// ops: a server-owned version (the CAS token), client flags, and the
// user payload. A GET of such a key returns the encoded form; split it
// with DecodeGwItem.
type GwItem = wire.GwItem

// DecodeGwItem splits a stored value into its gateway item parts.
// Values written by native PUTs read as version 0.
func DecodeGwItem(stored []byte) GwItem { return wire.DecodeGwItem(stored) }

// ScanEntry is one key/value pair returned by an ordered range scan.
type ScanEntry = wire.ScanEntry

// ScanOp builds a SCAN operation: up to limit pairs in ascending key
// order starting at the first key >= start. Pass the cursor from a prior
// page's DecodeScanResult to continue a paged scan (nil for the first
// page).
func ScanOp(start []byte, limit int, cursor []byte) (Op, error) {
	param, err := wire.EncodeScanParam(limit, cursor)
	if err != nil {
		return Op{}, err
	}
	return Op{Code: OpScan, Key: start, Value: param}, nil
}

// DecodeScanResult unpacks a SCAN result into its entries and the
// continuation cursor (nil when the scan is exhausted).
func DecodeScanResult(r Result) ([]ScanEntry, []byte, error) {
	if r.Status != StatusOK {
		return nil, nil, fmt.Errorf("kvdirect: scan failed: %s", r.Value)
	}
	return wire.DecodeScanPage(r.Value)
}

// MergeScanPages k-way merges per-shard scan pages (each sorted
// ascending) into one globally ordered page of at most limit entries.
// The returned cursor is the smallest key not included — either because
// the limit cut it off or because some shard reported its own
// continuation cursor — or nil when every shard is exhausted and all
// entries fit. Callers resume by scanning every shard again from the
// cursor.
func MergeScanPages(pages [][]ScanEntry, cursors [][]byte, limit int) ([]ScanEntry, []byte) {
	// A shard that truncated its page may hold unreturned keys starting
	// at its cursor, possibly below other shards' later entries — so only
	// keys strictly below the smallest shard cursor are provably complete
	// across all shards and safe to emit.
	var bound []byte
	for _, c := range cursors {
		if len(c) > 0 && (bound == nil || bytes.Compare(c, bound) < 0) {
			bound = c
		}
	}
	heads := make([]int, len(pages))
	var out []ScanEntry
	for len(out) < limit {
		best := -1
		for i, p := range pages {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || bytes.Compare(p[heads[i]].Key, pages[best][heads[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 || (bound != nil && bytes.Compare(pages[best][heads[best]].Key, bound) >= 0) {
			break
		}
		out = append(out, pages[best][heads[best]])
		heads[best]++
	}
	// Resume point: the smallest key not emitted — a withheld entry or
	// the bound itself — nil when every shard is exhausted and merged.
	next := bound
	for i, p := range pages {
		if heads[i] < len(p) {
			if next == nil || bytes.Compare(p[heads[i]].Key, next) < 0 {
				next = p[heads[i]].Key
			}
		}
	}
	return out, next
}

// Execute runs a batch of operations against a local store in order,
// mirroring what a network round trip would do: dependent operations in
// one batch see each other's effects, and an op that panics is answered
// as its own error.
func Execute(s *Store, ops []Op) []Result {
	return s.ApplyBatch(ops)
}

// EncodeBatch and DecodeResults expose the wire codec for transports
// (used by kvnet; exported for custom integrations and fuzzing).
func EncodeBatch(ops []Op) ([]byte, error) {
	return wire.AppendRequests(nil, ops)
}

// DecodeResults parses a response packet produced by a KV-Direct server.
func DecodeResults(pkt []byte) ([]Result, error) {
	return wire.DecodeResponses(pkt)
}
