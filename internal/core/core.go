// Package core assembles the KV processor (paper §3.3, Figure 4): the
// operation decoder feeds a reservation station (out-of-order engine),
// which issues independent operations into the main processing pipeline —
// hash table lookups and slab allocation over a unified memory access
// engine that dispatches between host memory (PCIe) and NIC DRAM.
//
// Store is the functional embodiment: every byte of KVS state lives in the
// simulated host memory, every DMA the hardware would issue is counted,
// and the full KV-Direct operation set (Table 1) is supported, including
// vector operations with pre-registered update functions.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"kvdirect/internal/dispatch"
	"kvdirect/internal/ecc"
	"kvdirect/internal/fault"
	"kvdirect/internal/hashtable"
	"kvdirect/internal/memory"
	"kvdirect/internal/nicdram"
	"kvdirect/internal/ooo"
	"kvdirect/internal/ordered"
	"kvdirect/internal/slab"
	"kvdirect/internal/telemetry"
)

// Config parameterizes a Store. The zero value is usable: defaults follow
// the paper's testbed scaled down 256x (256 MiB KVS, 16 MiB NIC DRAM).
type Config struct {
	// MemoryBytes is the host-memory KVS size (default 256 MiB).
	MemoryBytes uint64
	// HashIndexRatio is the fraction of memory holding hash buckets,
	// configured at initialization time (default 0.5).
	HashIndexRatio float64
	// InlineThreshold is the maximum key+value size stored inline in the
	// hash index (default 13, near-optimal for 10 B KVs at 50%
	// utilization per Figure 6). Set -1 to disable inlining.
	InlineThreshold int
	// NICCacheBytes is the NIC DRAM cache size (default MemoryBytes/16,
	// the paper's 4 GiB : 64 GiB ratio). 0 keeps the default; set
	// DisableCache to run without NIC DRAM.
	NICCacheBytes uint64
	// LoadDispatchRatio is the fraction of memory served through NIC
	// DRAM (default 0.5). Ignored when DisableCache is set.
	LoadDispatchRatio float64
	// DisableCache turns off the DRAM load dispatcher (PCIe-only
	// baseline of Figure 14).
	DisableCache bool
	// DisableOoO replaces out-of-order execution with pipeline stalling
	// (Figure 13 baseline).
	DisableOoO bool
	// RSSlots and Window size the reservation station (defaults 1024 and
	// 256).
	RSSlots, Window int
	// Seed perturbs hash functions.
	Seed uint64
	// Faults attaches a fault injector: bit flips in host memory and NIC
	// DRAM, plus DMA-engine stalls and dropped completions. It also turns
	// on the line-level SECDED code (internal/ecc) over both, so reads
	// verify and transparently correct single-bit faults. Nil disables
	// injection and ECC entirely.
	Faults *fault.Injector
}

func (c Config) withDefaults() Config {
	if c.MemoryBytes == 0 {
		c.MemoryBytes = 256 << 20
	}
	if c.HashIndexRatio == 0 {
		c.HashIndexRatio = 0.5
	}
	if c.InlineThreshold == 0 {
		c.InlineThreshold = 13
	}
	if c.InlineThreshold < 0 {
		c.InlineThreshold = 0
	}
	if c.NICCacheBytes == 0 {
		c.NICCacheBytes = c.MemoryBytes / 16
	}
	if c.LoadDispatchRatio == 0 {
		c.LoadDispatchRatio = 0.5
	}
	return c
}

// Store errors.
var (
	ErrFull       = hashtable.ErrFull
	ErrNotFound   = errors.New("core: key not found")
	ErrBadVector  = errors.New("core: value length not a multiple of element width")
	ErrBadWidth   = errors.New("core: element width must be 1, 2, 4 or 8")
	ErrUnknownFn  = errors.New("core: unregistered function id")
	ErrBadScalar  = errors.New("core: value is not a scalar of the requested width")
	ErrParamWidth = errors.New("core: parameter length does not match element count")
)

// UpdateFunc is a pre-registered λ for update and reduce operations: it
// combines an element (zero-extended to uint64) with a parameter and
// returns the new element / accumulator. In hardware these are compiled
// to pipelined logic by the HLS toolchain; here they are Go functions
// registered before use.
type UpdateFunc func(elem, param uint64) uint64

// FilterFunc is a pre-registered λ for filter operations.
type FilterFunc func(elem uint64) bool

// Built-in function ids, pre-registered on every Store.
const (
	FnAdd  uint8 = 1 // elem + param
	FnSub  uint8 = 2 // elem - param
	FnMax  uint8 = 3
	FnMin  uint8 = 4
	FnXor  uint8 = 5
	FnSwap uint8 = 6 // returns param (atomic exchange)

	FilterNonZero uint8 = 1
	FilterOdd     uint8 = 2
)

// Store is a KV-Direct NIC instance: one KV processor with its host-memory
// partition, NIC DRAM cache and reservation station. Not safe for
// concurrent use (the hardware pipeline is a single clock domain; the
// network server's backend serializes into it).
type Store struct {
	cfg    Config
	mem    *memory.Memory
	prot   *ecc.ProtectedMemory // nil unless Faults
	fmem   *fault.Memory        // nil unless Faults
	faults *fault.Injector      // nil unless Faults
	cache  *nicdram.Cache
	disp   *dispatch.Dispatcher
	alloc  *slab.Allocator
	table  *hashtable.Table
	exec   indexedExec // the engine's executor; holds the ordered index once a scan built it
	engine *ooo.Engine

	updateFns map[uint8]UpdateFunc
	filterFns map[uint8]FilterFunc

	tel *telemetry.Registry // nil until SetTelemetry

	item []byte // scratch a gateway write builds its new item in (see modify)

	closed bool
}

// NewStore builds a store per cfg.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	mem := memory.New(cfg.MemoryBytes)
	// Host-memory engine stack: raw DRAM or, with Faults, raw DRAM under
	// the SECDED layer under the DMA fault injector. Everything above
	// (NIC DRAM fills, dispatcher, hash table, slabs) sees only the top
	// of the stack.
	var host memory.Engine = mem
	var prot *ecc.ProtectedMemory
	var fmem *fault.Memory
	if cfg.Faults != nil {
		prot = ecc.NewProtectedMemory(mem)
		fmem = fault.NewMemory(prot, prot, cfg.Faults)
		host = fmem
	}
	var cache *nicdram.Cache
	ratio := 0.0
	if !cfg.DisableCache {
		cache = nicdram.New(host, cfg.NICCacheBytes)
		if cfg.Faults != nil {
			cache.EnableECC(cfg.Faults, prot)
		}
		ratio = cfg.LoadDispatchRatio
	}
	disp := dispatch.New(host, cache, ratio)
	idx, slabs := memory.Split(cfg.MemoryBytes, cfg.HashIndexRatio)
	alloc := slab.New(slabs, slab.Options{})
	table, err := hashtable.New(disp, alloc, hashtable.Config{
		Index:           idx,
		InlineThreshold: cfg.InlineThreshold,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Store{
		cfg:       cfg,
		mem:       mem,
		prot:      prot,
		fmem:      fmem,
		faults:    cfg.Faults,
		cache:     cache,
		disp:      disp,
		alloc:     alloc,
		table:     table,
		exec:      indexedExec{table: table},
		updateFns: map[uint8]UpdateFunc{},
		filterFns: map[uint8]FilterFunc{},
	}
	// The engine issues to the hash table through the index-coherence
	// wrapper, so every mutation — client ops and deferred write-backs
	// alike — keeps the ordered secondary index in sync once the first
	// scan has built it (see scan.go).
	s.engine = ooo.NewEngine(&s.exec, cfg.RSSlots, cfg.Window)
	s.engine.Stall = cfg.DisableOoO

	s.updateFns[FnAdd] = func(e, p uint64) uint64 { return e + p }
	s.updateFns[FnSub] = func(e, p uint64) uint64 { return e - p }
	s.updateFns[FnMax] = func(e, p uint64) uint64 {
		if p > e {
			return p
		}
		return e
	}
	s.updateFns[FnMin] = func(e, p uint64) uint64 {
		if p < e {
			return p
		}
		return e
	}
	s.updateFns[FnXor] = func(e, p uint64) uint64 { return e ^ p }
	s.updateFns[FnSwap] = func(_, p uint64) uint64 { return p }
	s.filterFns[FilterNonZero] = func(e uint64) bool { return e != 0 }
	s.filterFns[FilterOdd] = func(e uint64) bool { return e&1 == 1 }
	return s, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

// Close releases the store: the pipeline is drained, then the host
// memory and NIC DRAM mappings are unmapped (a store never closed frees
// them only when the collector finds it unreachable, and mapped bytes
// put no pressure on the collector). Owners that build several stores
// (replica groups, deployments) call it on every store they created
// when construction fails partway or the owner shuts down. An op
// applied after Close fails its bounds check: ApplyRun answers it with
// an error. Close is idempotent and must not race with an op; Closed
// reports it for leak tests.
func (s *Store) Close() {
	if s.closed {
		return
	}
	s.engine.Flush()
	s.closed = true
	s.mem.Release()
	if s.cache != nil {
		s.cache.Release()
	}
}

// RegisterUpdateFunc registers λ under id, overriding any builtin. This is
// the software analogue of compiling a user-defined function into the
// FPGA before use (active messages, §3.2).
func (s *Store) RegisterUpdateFunc(id uint8, fn UpdateFunc) { s.updateFns[id] = fn }

// RegisterFilterFunc registers a filter λ under id.
func (s *Store) RegisterFilterFunc(id uint8, fn FilterFunc) { s.filterFns[id] = fn }

// keyHash indexes the reservation station (any stable hash works;
// dependency tracking only needs same key ⇒ same slot).
func keyHash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// --- synchronous operations (Table 1) ---

// Get returns the value of key.
//
//kvd:hotpath
func (s *Store) Get(key []byte) ([]byte, bool) {
	op := ooo.Op{Kind: ooo.Get, Key: key, KeyHash: keyHash(key)}
	v, ok, _ := s.engine.Do(&op)
	return v, ok
}

// Put inserts or replaces a (key, value) pair.
//
//kvd:hotpath
func (s *Store) Put(key, value []byte) error {
	op := ooo.Op{Kind: ooo.Put, Key: key, KeyHash: keyHash(key), Value: value}
	_, _, err := s.engine.Do(&op)
	return err
}

// Delete removes key, reporting whether it existed.
//
//kvd:hotpath
func (s *Store) Delete(key []byte) bool {
	op := ooo.Op{Kind: ooo.Delete, Key: key, KeyHash: keyHash(key)}
	_, ok, _ := s.engine.Do(&op)
	return ok
}

// Update atomically updates the scalar value of key with λ(v, param) and
// returns the original value (update_scalar2scalar). A missing key is
// initialized as if its value were zero.
func (s *Store) Update(key []byte, fnID uint8, width int, param uint64) (old uint64, err error) {
	var res []byte
	var cbErr error
	s.SubmitUpdate(key, fnID, width, param, func(v []byte, _ bool, e error) { res, cbErr = v, e })
	s.engine.Flush()
	if cbErr != nil {
		return 0, cbErr
	}
	if len(res) == 0 {
		return 0, nil
	}
	return decodeElem(res, 0, width), nil
}

// UpdateScalarToVector atomically applies λ(e_i, param) to every element
// of key's vector value, returning the original vector
// (update_scalar2vector).
func (s *Store) UpdateScalarToVector(key []byte, fnID uint8, width int, param uint64) ([]byte, error) {
	fn, ok := s.updateFns[fnID]
	if !ok {
		return nil, ErrUnknownFn
	}
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	return s.vectorRMW(key, width, func(elems []uint64) []uint64 {
		for i := range elems {
			elems[i] = fn(elems[i], param)
		}
		return elems
	})
}

// UpdateVectorToVector atomically applies λ(e_i, p_i) element-wise using
// the parameter vector, returning the original vector
// (update_vector2vector). The parameter vector must have the same element
// count as the stored vector.
func (s *Store) UpdateVectorToVector(key []byte, fnID uint8, width int, params []byte) ([]byte, error) {
	fn, ok := s.updateFns[fnID]
	if !ok {
		return nil, ErrUnknownFn
	}
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	if len(params)%width != 0 {
		return nil, ErrParamWidth
	}
	nParams := len(params) / width
	return s.vectorRMW(key, width, func(elems []uint64) []uint64 {
		if len(elems) != nParams {
			return nil // element-count mismatch: leave the value unchanged
		}
		for i := range elems {
			elems[i] = fn(elems[i], decodeElem(params, i, width))
		}
		return elems
	})
}

// Reduce folds key's vector into a scalar: Σ = λ(e_i, Σ) starting from
// init. Read-only and atomic with respect to the pipeline.
func (s *Store) Reduce(key []byte, fnID uint8, width int, init uint64) (uint64, error) {
	fn, ok := s.updateFns[fnID]
	if !ok {
		return 0, ErrUnknownFn
	}
	if err := checkWidth(width); err != nil {
		return 0, err
	}
	v, found, err := s.atomicRead(key)
	if err != nil {
		return 0, err
	}
	if !found {
		return 0, ErrNotFound
	}
	if len(v)%width != 0 {
		return 0, ErrBadVector
	}
	acc := init
	for i := 0; i < len(v)/width; i++ {
		acc = fn(decodeElem(v, i, width), acc)
	}
	return acc, nil
}

// Filter returns the elements of key's vector for which λ holds.
func (s *Store) Filter(key []byte, fnID uint8, width int) ([]byte, error) {
	fn, ok := s.filterFns[fnID]
	if !ok {
		return nil, ErrUnknownFn
	}
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	v, found, err := s.atomicRead(key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	if len(v)%width != 0 {
		return nil, ErrBadVector
	}
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v)/width; i++ {
		if fn(decodeElem(v, i, width)) {
			out = append(out, v[i*width:(i+1)*width]...)
		}
	}
	return out, nil
}

// --- asynchronous (pipelined) operations ---

// Done is a completion callback: value is op-dependent (GET result,
// atomic's original value), found reports key presence, err any failure.
type Done func(value []byte, found bool, err error)

// SubmitGet pipelines a GET.
func (s *Store) SubmitGet(key []byte, done Done) {
	s.engine.Submit(&ooo.Op{Kind: ooo.Get, Key: key, KeyHash: keyHash(key), Done: done})
}

// SubmitPut pipelines a PUT.
func (s *Store) SubmitPut(key, value []byte, done Done) {
	s.engine.Submit(&ooo.Op{Kind: ooo.Put, Key: key, KeyHash: keyHash(key), Value: value, Done: done})
}

// SubmitDelete pipelines a DELETE.
func (s *Store) SubmitDelete(key []byte, done Done) {
	s.engine.Submit(&ooo.Op{Kind: ooo.Delete, Key: key, KeyHash: keyHash(key), Done: done})
}

// SubmitUpdate pipelines an atomic scalar update (update_scalar2scalar).
// done receives the original value bytes. A missing key initializes from
// zero; an existing value of the wrong width fails.
func (s *Store) SubmitUpdate(key []byte, fnID uint8, width int, param uint64, done Done) {
	fn, ok := s.updateFns[fnID]
	if !ok {
		if done != nil {
			done(nil, false, ErrUnknownFn)
		}
		return
	}
	if err := checkWidth(width); err != nil {
		if done != nil {
			done(nil, false, err)
		}
		return
	}
	var widthErr bool
	s.engine.Submit(&ooo.Op{Kind: ooo.Atomic, Key: key, KeyHash: keyHash(key),
		Fn: func(old []byte) []byte {
			var cur uint64
			if old != nil {
				if len(old) != width {
					widthErr = true
					return nil
				}
				cur = decodeElem(old, 0, width)
			}
			out := make([]byte, width)
			encodeElem(out, 0, width, fn(cur, param))
			return out
		},
		Done: func(v []byte, found bool, err error) {
			if done == nil {
				return
			}
			if widthErr {
				done(nil, found, ErrBadScalar)
				return
			}
			done(v, found, err)
		}})
}

// Flush drains all pipelined operations.
func (s *Store) Flush() { s.engine.Flush() }

// --- vector plumbing ---

// atomicRead reads key's value through the engine (atomicity with respect
// to in-flight operations comes from the reservation station).
func (s *Store) atomicRead(key []byte) ([]byte, bool, error) {
	return s.engine.Do(&ooo.Op{Kind: ooo.Get, Key: key, KeyHash: keyHash(key)})
}

// vectorRMW atomically transforms key's vector value, returning the
// original vector. xform returns nil to signal an element-count mismatch.
func (s *Store) vectorRMW(key []byte, width int, xform func([]uint64) []uint64) ([]byte, error) {
	var orig []byte
	var found, mismatch, badLen bool
	s.engine.Submit(&ooo.Op{Kind: ooo.Atomic, Key: key, KeyHash: keyHash(key),
		Fn: func(old []byte) []byte {
			if old == nil {
				return nil // missing key: leave unchanged
			}
			if len(old)%width != 0 {
				badLen = true
				return nil
			}
			elems := make([]uint64, len(old)/width)
			for i := range elems {
				elems[i] = decodeElem(old, i, width)
			}
			res := xform(elems)
			if res == nil {
				mismatch = true
				return nil
			}
			out := make([]byte, len(old))
			for i, e := range res {
				encodeElem(out, i, width, e)
			}
			return out
		},
		Done: func(v []byte, ok bool, _ error) {
			orig, found = v, ok
		}})
	s.engine.Flush()
	if !found {
		return nil, ErrNotFound
	}
	if badLen {
		return nil, ErrBadVector
	}
	if mismatch {
		return nil, ErrParamWidth
	}
	return orig, nil
}

func checkWidth(w int) error {
	switch w {
	case 1, 2, 4, 8:
		return nil
	}
	return ErrBadWidth
}

func decodeElem(b []byte, i, width int) uint64 {
	off := i * width
	switch width {
	case 1:
		return uint64(b[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(b[off:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(b[off:]))
	default:
		return binary.LittleEndian.Uint64(b[off:])
	}
}

func encodeElem(b []byte, i, width int, v uint64) {
	off := i * width
	switch width {
	case 1:
		b[off] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b[off:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b[off:], uint32(v))
	default:
		binary.LittleEndian.PutUint64(b[off:], v)
	}
}

// --- statistics ---

// Stats is a combined snapshot of every component's counters.
type Stats struct {
	Mem      memory.Stats
	Cache    nicdram.Stats
	Dispatch dispatch.Stats
	Slab     slab.Stats
	Engine   ooo.Stats
	Ordered  ordered.Stats
	ECC      ecc.ProtectedStats // zero unless Faults
	Fault    fault.MemoryStats  // zero unless Faults

	Keys           uint64
	PayloadBytes   uint64
	ChainBuckets   uint64
	CorruptChains  uint64 // hash table and ordered index walks cut short by a corrupt pointer
	FaultsInjected uint64
}

// Stats returns a snapshot across all components.
func (s *Store) Stats() Stats {
	st := Stats{
		Mem:           s.mem.Stats(),
		Dispatch:      s.disp.Stats(),
		Slab:          s.alloc.Stats(),
		Engine:        s.engine.Stats(),
		Keys:          s.table.NumKeys(),
		PayloadBytes:  s.table.PayloadBytes(),
		ChainBuckets:  s.table.ChainBuckets(),
		CorruptChains: s.table.CorruptChains(),
	}
	if s.exec.idx != nil {
		st.Ordered = s.exec.idx.Stats()
		st.CorruptChains += st.Ordered.Corrupt
	}
	if s.cache != nil {
		st.Cache = s.cache.Stats()
	}
	if s.prot != nil {
		st.ECC = s.prot.Stats()
	}
	if s.fmem != nil {
		st.Fault = s.fmem.Stats()
	}
	if s.faults != nil {
		st.FaultsInjected = s.faults.Total()
	}
	return st
}

// Health summarizes the store's fault state: what was injected, what the
// recovery machinery absorbed, and whether any data was actually lost.
type Health struct {
	FaultsInjected uint64 // faults fired by the injector
	Corrected      uint64 // single-bit faults repaired (host ECC + NIC DRAM ECC)
	Healed         uint64 // uncorrectable clean cache lines refetched from host
	Retries        uint64 // DMA reads re-issued after dropped completions
	Stalls         uint64 // DMA requests delayed by injected stalls
	Uncorrectable  uint64 // faults with no intact copy anywhere (data lost)
	CorruptChains  uint64 // hash-chain and index walks cut short by a corrupt pointer
}

// OK reports whether every fault so far was recovered without data loss.
func (h Health) OK() bool { return h.Uncorrectable == 0 && h.CorruptChains == 0 }

func (h Health) String() string {
	state := "ok"
	if !h.OK() {
		state = "degraded"
	}
	return fmt.Sprintf("health=%s injected=%d corrected=%d healed=%d retries=%d stalls=%d uncorrectable=%d corrupt_chains=%d",
		state, h.FaultsInjected, h.Corrected, h.Healed, h.Retries, h.Stalls,
		h.Uncorrectable, h.CorruptChains)
}

// Health returns the current fault/recovery summary.
func (s *Store) Health() Health {
	st := s.Stats()
	return Health{
		FaultsInjected: st.FaultsInjected,
		Corrected:      st.ECC.Corrected + st.Cache.EccCorrected,
		Healed:         st.Cache.EccHealed,
		Retries:        st.Fault.Retries,
		Stalls:         st.Fault.Stalls,
		Uncorrectable:  st.ECC.Uncorrectable + st.Cache.EccLost,
		CorruptChains:  st.CorruptChains,
	}
}

// uncorrectable returns the running count of detected-but-unrepairable
// faults — the quantity Apply watches to refuse results built on corrupt
// data.
func (s *Store) uncorrectable() uint64 {
	var n uint64
	if s.prot != nil {
		n += s.prot.Stats().Uncorrectable
	}
	// NewStore arms the cache's ECC sideband only alongside an injector;
	// without one EccLost stays zero and the snapshot is not worth taking.
	if s.cache != nil && s.faults != nil {
		n += s.cache.Stats().EccLost
	}
	return n
}

// Scrub walks the ECC-protected host memory repairing correctable faults
// (the background patrol scrubber). Returns zero without ECC.
func (s *Store) Scrub() (repaired, uncorrectable uint64) {
	if s.prot == nil {
		return 0, 0
	}
	return s.prot.Scrub()
}

// ResetCounters zeroes the activity counters (not the stored data), so an
// experiment can measure a window of operations.
func (s *Store) ResetCounters() {
	s.mem.ResetStats()
	s.disp.ResetStats()
	s.alloc.ResetStats()
	if s.cache != nil {
		s.cache.ResetStats()
	}
}

// Utilization returns stored payload bytes over the memory size.
func (s *Store) Utilization() float64 {
	return s.table.Utilization(s.cfg.MemoryBytes)
}

// NumKeys returns the number of stored keys.
func (s *Store) NumKeys() uint64 { return s.table.NumKeys() }
