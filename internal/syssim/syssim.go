// Package syssim is an integrated, event-driven simulation of one
// KV-Direct NIC end to end: client batches cross the network, the decoder
// unpacks one operation per clock cycle, the reservation station chains
// dependent operations, independent operations issue their own memory
// accesses against concurrency-limited resources (two PCIe endpoints with
// tag limits, the NIC DRAM channel), and responses travel back.
//
// Where model.Rate turns a trace's mean loads into a bound, syssim replays
// the trace op by op, each with the accesses the functional store made for
// it, and composes every latency and concurrency limit in one simulation,
// producing both sustained throughput and full end-to-end latency
// distributions under a closed-loop offered load. The experiments use it
// to cross-validate Figure 16, and Figure 17 charges each access the same
// cost (MemoryNs).
package syssim

import (
	"math"

	"kvdirect/internal/model"
	"kvdirect/internal/netmodel"
	"kvdirect/internal/ooo"
	"kvdirect/internal/pcie"
	"kvdirect/internal/sim"
	"kvdirect/internal/stats"
)

// Op is one operation of a trace: its key, whether it mutates, and the
// memory accesses the functional store made for it.
type Op struct {
	Key uint64 // key identity (dependency tracking)
	Put bool   // mutating op: forwarding it dirties the head's value

	PCIeReads  int // DMA reads of host memory
	PCIeWrites int // posted DMA writes of host memory
	DRAMLines  int // NIC DRAM line reads and writes
}

// accesses is the op's access count; access(i) is the kind of the i-th,
// issued in order: PCIe reads, then DRAM lines, then PCIe writes.
func (op Op) accesses() int { return op.PCIeReads + op.DRAMLines + op.PCIeWrites }

func (op Op) access(i int) access {
	switch {
	case i < op.PCIeReads:
		return pcieRead
	case i < op.PCIeReads+op.DRAMLines:
		return dramLine
	}
	return pcieWrite
}

type access int

const (
	pcieRead access = iota
	pcieWrite
	dramLine
)

// MeanLoad is a trace's mean per-op load on PCIe and NIC DRAM: what
// model.Rate takes.
func MeanLoad(trace []Op) model.Load {
	var l model.Load
	for _, op := range trace {
		l.PCIe += float64(op.PCIeReads + op.PCIeWrites)
		l.DRAM += float64(op.DRAMLines)
	}
	if n := float64(len(trace)); n > 0 {
		l.PCIe /= n
		l.DRAM /= n
	}
	return l
}

// Config parameterizes the simulation. Zero values take defaults from
// the paper's hardware.
type Config struct {
	ClockHz float64 // KV processor clock (model.ClockHz)
	Window  int     // max in-flight ops (ooo.DefaultWindow)
	RSSlots int     // reservation-station hash slots (ooo.DefaultRSSlots)

	PCIe            pcie.Config // latency model
	PCIeConcurrency int         // in-flight DMA limit (2 endpoints x 64 tags)
	DRAMLatencyNs   float64     // NIC DRAM access latency (model.NICDRAMLatencyNs)
	DRAMConcurrency int         // DRAM bank parallelism

	Net         netmodel.Config
	OpWireBytes int // per-op bytes inside a batch (~18 for tiny KVs)
	BatchOps    int // ops per request packet
	Clients     int // closed-loop clients, one batch outstanding each

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.ClockHz == 0 {
		c.ClockHz = model.ClockHz
	}
	if c.Window == 0 {
		c.Window = ooo.DefaultWindow
	}
	if c.RSSlots == 0 {
		c.RSSlots = ooo.DefaultRSSlots
	}
	if c.PCIe.LinkBytesPerSec == 0 {
		c.PCIe = pcie.DefaultConfig()
	}
	if c.PCIeConcurrency == 0 {
		c.PCIeConcurrency = model.PCIeEndpoints * c.PCIe.ReadTags
	}
	if c.DRAMLatencyNs == 0 {
		c.DRAMLatencyNs = model.NICDRAMLatencyNs
	}
	if c.DRAMConcurrency == 0 {
		// Little's law: the channel's line rate times one access's
		// latency (40 overlapped accesses at 200 ns).
		c.DRAMConcurrency = int(math.Round(model.NICDRAMLineOpsPerSec * c.DRAMLatencyNs / 1e9))
	}
	if c.Net.BytesPerSec == 0 {
		c.Net = netmodel.DefaultConfig()
	}
	if c.OpWireBytes == 0 {
		c.OpWireBytes = 18
	}
	if c.BatchOps == 0 {
		c.BatchOps = 40
	}
	if c.Clients == 0 {
		c.Clients = 16
	}
	return c
}

// serviceNs draws one access's service time: a NIC DRAM line access, a
// posted PCIe write's credit turnaround, or a sampled PCIe read.
func (c Config) serviceNs(a access, rng *sim.RNG) float64 {
	switch a {
	case dramLine:
		return rng.Normal(c.DRAMLatencyNs, c.DRAMLatencyNs/4, c.DRAMLatencyNs/2)
	case pcieWrite:
		return c.PCIe.WriteRTTNs
	}
	return c.PCIe.SampleReadLatencyNs(rng)
}

// MemoryNs draws the time an op's own accesses take back to back, with no
// queueing behind other ops: each costs what Run charges it.
func (c Config) MemoryNs(op Op, rng *sim.RNG) float64 {
	c = c.withDefaults()
	ns := 0.0
	for i := 0; i < op.accesses(); i++ {
		ns += c.serviceNs(op.access(i), rng)
	}
	return ns
}

// Result reports one simulation run.
type Result struct {
	Ops        int
	ElapsedNs  float64
	OpsPerSec  float64
	Latency    *stats.Sample // end-to-end per-op latency, ns
	PCIeUtil   float64       // mean in-flight DMAs / concurrency
	DRAMUtil   float64
	Forwarded  uint64  // ops completed by reservation-station forwarding
	DecodeBusy float64 // decoder utilization (issue slots used)
}

// resource is a concurrency-limited service center with FIFO admission.
type resource struct {
	slots int
	busy  int
	queue []func()

	// utilization accounting
	busyIntegral float64
	lastT        float64
}

func (r *resource) tick(t float64) {
	r.busyIntegral += float64(r.busy) * (t - r.lastT)
	r.lastT = t
}

// acquire runs f as soon as a slot frees (possibly immediately).
func (r *resource) acquire(t float64, f func()) {
	r.tick(t)
	if r.busy < r.slots {
		r.busy++
		f()
		return
	}
	r.queue = append(r.queue, f)
}

// release frees a slot at time t, admitting the next waiter.
func (r *resource) release(t float64) {
	r.tick(t)
	if len(r.queue) > 0 {
		next := r.queue[0]
		r.queue = r.queue[1:]
		next() // slot transfers to the waiter
		return
	}
	r.busy--
}

type rsEntry struct {
	busy  bool
	key   uint64 // head's key (forwarding matches on the full key)
	chain []*opState
}

type opState struct {
	op     Op
	sentAt float64 // client send time (latency anchor)
	batch  *batchState
}

type batchState struct {
	client    int
	remaining int
}

// Run replays the trace through the simulated NIC and returns sustained
// throughput and latency.
func Run(cfg Config, trace []Op) Result {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	var clk sim.Clock
	q := sim.NewEventQueue()

	nOps := len(trace)
	cycleNs := 1e9 / cfg.ClockHz
	pcieRes := &resource{slots: cfg.PCIeConcurrency}
	dramRes := &resource{slots: cfg.DRAMConcurrency}
	rs := make([]*rsEntry, cfg.RSSlots)
	for i := range rs {
		rs[i] = &rsEntry{}
	}

	lat := stats.NewSample(nOps)
	completed := 0
	issued := 0
	inflight := 0
	decoderFree := 0.0
	decodeBusyNs := 0.0
	var forwarded uint64

	// One-way network delay for a batch.
	netDelay := func(ops int) float64 {
		ser := float64(ops*cfg.OpWireBytes+cfg.Net.PacketOverhead) / cfg.Net.BytesPerSec * 1e9
		return cfg.Net.RTTNs/2 + ser
	}

	var completeOp func(st *opState)
	var finishHead func(slot int)

	// memoryAccess performs one access and then calls done.
	memoryAccess := func(a access, done func()) {
		res := pcieRes
		if a == dramLine {
			res = dramRes
		}
		res.acquire(clk.Now(), func() {
			q.Schedule(clk.Now()+cfg.serviceNs(a, rng), func() {
				res.release(clk.Now())
				done()
			})
		})
	}

	// executeHead runs an op's own accesses sequentially (dependent
	// accesses: bucket, then data), then finishes the head.
	executeHead := func(st *opState, slot int) {
		var step func(i int)
		step = func(i int) {
			if i >= st.op.accesses() {
				completeOp(st)
				finishHead(slot)
				return
			}
			memoryAccess(st.op.access(i), func() { step(i + 1) })
		}
		step(0)
	}

	finishHead = func(slot int) {
		e := rs[slot]
		// Forward chained ops whose key matches the head (one per cycle);
		// hash-collision false positives stay queued for the pipeline.
		var rest []*opState
		dirty := false
		fwd := 0
		for _, st := range e.chain {
			if st.op.Key == e.key {
				fwd++
				st := st
				q.Schedule(clk.Now()+float64(fwd)*cycleNs, func() { completeOp(st) })
				if st.op.Put {
					dirty = true
				}
			} else {
				rest = append(rest, st)
			}
		}
		forwarded += uint64(fwd)
		e.chain = rest
		if dirty {
			// Cache write-back: one posted DMA; the slot stays busy and the
			// chain is rescanned afterwards (new same-key arrivals chain in
			// the meantime).
			memoryAccess(pcieWrite, func() { finishHead(slot) })
			return
		}
		if len(e.chain) > 0 {
			next := e.chain[0]
			e.chain = e.chain[1:]
			e.key = next.op.Key
			executeHead(next, slot)
			return
		}
		e.busy = false
	}

	// Window gate: ops decoded but not completed are capped at Window
	// (the reservation station's in-flight limit).
	serverInflight := 0
	var windowQ []*opState
	var issueOp func(st *opState)
	admit := func(st *opState) {
		if serverInflight >= cfg.Window {
			windowQ = append(windowQ, st)
			return
		}
		serverInflight++
		issueOp(st)
	}

	// The decoder issues one op per clock cycle into the RS.
	issueOp = func(st *opState) {
		start := math.Max(clk.Now(), decoderFree)
		decoderFree = start + cycleNs
		decodeBusyNs += cycleNs
		q.Schedule(start+cycleNs, func() {
			slot := int(st.op.Key % uint64(cfg.RSSlots))
			e := rs[slot]
			if e.busy {
				e.chain = append(e.chain, st)
				return
			}
			e.busy = true
			e.key = st.op.Key
			executeHead(st, slot)
		})
	}

	var sendBatch func(client int)
	completeOp = func(st *opState) {
		completed++
		inflight--
		serverInflight--
		if len(windowQ) > 0 {
			nextOp := windowQ[0]
			windowQ = windowQ[1:]
			serverInflight++
			issueOp(nextOp)
		}
		st.batch.remaining--
		if st.batch.remaining == 0 {
			// Whole batch done: response travels back, client sends the
			// next batch after it lands.
			client := st.batch.client
			q.Schedule(clk.Now()+netDelay(cfg.BatchOps), func() {
				if issued < nOps {
					sendBatch(client)
				}
			})
		}
		lat.Add(clk.Now() - st.sentAt + netDelay(1)) // response one-way
	}

	sendBatch = func(client int) {
		n := cfg.BatchOps
		if nOps-issued < n {
			n = nOps - issued
		}
		if n <= 0 {
			return
		}
		b := &batchState{client: client, remaining: n}
		sent := clk.Now()
		arrive := sent + netDelay(n)
		for i := 0; i < n; i++ {
			op := trace[issued]
			issued++
			inflight++
			st := &opState{op: op, sentAt: sent, batch: b}
			q.Schedule(arrive, func() { admit(st) })
		}
	}

	for c := 0; c < cfg.Clients && issued < nOps; c++ {
		sendBatch(c)
	}
	for q.RunNext(&clk) {
	}

	elapsed := clk.Now()
	res := Result{
		Ops:       completed,
		ElapsedNs: elapsed,
		Latency:   lat,
		Forwarded: forwarded,
	}
	if elapsed > 0 {
		res.OpsPerSec = float64(completed) / (elapsed * 1e-9)
		pcieRes.tick(elapsed)
		dramRes.tick(elapsed)
		res.PCIeUtil = pcieRes.busyIntegral / (elapsed * float64(cfg.PCIeConcurrency))
		res.DRAMUtil = dramRes.busyIntegral / (elapsed * float64(cfg.DRAMConcurrency))
		res.DecodeBusy = decodeBusyNs / elapsed
	}
	return res
}
