package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/wire"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
)

// span is one entry of <workload>.trace.json. Times are nanoseconds
// since the traced pass began. A root span ("request") is the observed
// interval of the real client call. Its children are estimated: each
// layer's duration was measured by calling the layer's public functions
// on the same batch right after the call, and the span is laid inside
// its parent in pipeline order, so only its length is an observation.
type span struct {
	ID        int    `json:"id"`
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"` // span id; 0 for a root
	RequestID int    `json:"request_id"`
	Estimated bool   `json:"estimated"`
}

// The layers of one round trip, in pipeline order.
const (
	encodeReq = iota
	frameReq
	decodeReq
	apply
	encodeResp
	frameResp
	decodeResp
	gwCodec
	layers
)

var layerNames = [layers]string{"wire.encode_req", "kvnet.frame_req", "wire.decode_req", "core.apply",
	"wire.encode_resp", "kvnet.frame_resp", "wire.decode_resp", "kvgw.codec"}

// probeCalls bounds how many recorded batches a probe replays.
const probeCalls = 2000

// rec is one traced batch, kept so that probes can replay it.
type rec struct {
	b     *batch
	ops   []kvdirect.Op
	reqs  []wire.Request
	resps []wire.Response
}

// tracedPass measures the layers from outside. It sends a fixed number
// of batches — connection 0's op stream again — over one connection to
// the now idle servers, and replays each batch through every inner
// layer against a shadow store preloaded like the serving one.
type tracedPass struct {
	e      *env
	shadow *kvdirect.Store
	ref    *kvnet.Server // a plain kvnet server over the shadow store
	refCl  *kvnet.Client
	recs   []rec
	spans  []span
	frames bytes.Buffer // what replayed frames are written to and read back from

	rootNs   int64 // total of the root spans
	layerNs  [layers]int64
	ops      int
	reqBytes int
	rspBytes int
}

func runTraced(e *env, timedP50us float64, m map[string]float64) ([]span, error) {
	shadow, err := e.newStore()
	if err != nil {
		return nil, err
	}
	defer shadow.Close()
	t := &tracedPass{e: e, shadow: shadow}
	n := e.s.traced
	if e.cfg.smoke {
		n = 200
	}
	before := shadow.Stats()
	wall, err := t.pass(n)
	if err != nil {
		return nil, err
	}
	// The counts below repeat exactly for a seed: the shadow store has
	// seen the preload and these n batches, once each, and nothing else.
	after := shadow.Stats()
	mem, cache := after.Mem.Sub(before.Mem), after.Cache.Sub(before.Cache)
	ops, batches := float64(t.ops), float64(n)
	m["core.dma_reads_per_op"] = float64(mem.Reads) / ops
	m["core.dma_writes_per_op"] = float64(mem.Writes) / ops
	m["core.nic_cache_hit_ratio"] = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
	m["core.dispatch_cached_frac"] = after.Dispatch.Sub(before.Dispatch).CachedFraction()
	m["wire.req_bytes_per_op"] = float64(t.reqBytes) / ops
	m["wire.resp_bytes_per_op"] = float64(t.rspBytes) / ops

	perOp := func(l int) float64 { return float64(t.layerNs[l]) / ops }
	m["wire.encode_req_ns_per_op"] = perOp(encodeReq)
	m["wire.decode_req_ns_per_op"] = perOp(decodeReq)
	m["wire.encode_resp_ns_per_op"] = perOp(encodeResp)
	m["wire.decode_resp_ns_per_op"] = perOp(decodeResp)
	m["core.apply_ns_per_op"] = perOp(apply)
	m["kvgw.codec_ns_per_op"] = perOp(gwCodec)
	m["kvnet.frame_ns_per_batch"] = float64(t.layerNs[frameReq]+t.layerNs[frameResp]) / batches

	// A root's self time is what its children do not cover: sockets,
	// goroutine hand-offs, locks, and whatever else the layers' public
	// functions do not show.
	children := int64(0)
	for _, ns := range t.layerNs {
		children += ns
	}
	m["kvnet.transport_self_ns_per_batch"] = float64(t.rootNs-children) / batches
	m["kvnet.transport_self_frac"] = float64(t.rootNs-children) / float64(t.rootNs)
	m["trace.overhead_frac"] = 1 - float64(t.rootNs)/float64(wall)
	m["trace.rtt_vs_timed_ratio"] = t.rootMeanNs() / 1e3 / timedP50us

	// The probes replay recorded batches on a plain server over the
	// shadow store. They come after the exact counts were read, since
	// they apply batches again.
	if t.ref, err = kvnet.Serve(shadow, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer t.ref.Close()
	if t.refCl, err = kvnet.Dial(t.ref.Addr()); err != nil {
		return nil, err
	}
	defer t.refCl.Close()
	// A probe that fails ends the traced pass: a broken connection must
	// not leave a plausible number behind.
	doRef := func(r *rec) error { return allOK(t.refCl.Do(r.ops)) }
	loopback := func(r *rec) error { return allOK(t.ref.Do(r.ops)) }
	m["kvnet.rtt_ns_per_batch"] = t.rootMeanNs()
	if !e.nativeRoot {
		if m["kvnet.rtt_ns_per_batch"], err = t.probe(1, doRef); err != nil {
			return nil, err
		}
	}
	if m["kvnet.allocs_per_batch"], err = t.allocsPerCall(doRef); err != nil {
		return nil, err
	}
	if m["kvnet.loopback_ns_per_batch"], err = t.probe(1, loopback); err != nil {
		return nil, err
	}
	if m["kvnet.loopback_2x_ns_per_batch"], err = t.probe(2, loopback); err != nil {
		return nil, err
	}
	applyAllocs, err := t.allocsPerCall(func(r *rec) error {
		for i, resp := range shadow.ApplyBatch(r.reqs) {
			if resp.Status != wire.StatusOK {
				return fmt.Errorf("apply on the shadow store: op %d: status %d", i, resp.Status)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["core.apply_allocs_per_op"] = applyAllocs / float64(e.s.batch)
	m["wire.allocs_per_batch"] = 0
	if t.layerNs[encodeReq] > 0 {
		m["wire.allocs_per_batch"], err = t.allocsPerCall(func(r *rec) error {
			pkt, err := kvdirect.EncodeBatch(r.ops)
			if err != nil {
				return err
			}
			if _, err = wire.DecodeRequests(pkt); err != nil {
				return err
			}
			if pkt, err = wire.AppendResponses(nil, r.resps); err != nil {
				return err
			}
			_, err = kvdirect.DecodeResults(pkt)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	for _, name := range []string{"kvrepl.put_rtt_ns", "kvrepl.quorum_overhead_ns", "kvrepl.allocs_per_put",
		"kvgw.get_rtt_ns", "kvgw.set_rtt_ns", "kvgw.overhead_vs_native_ns",
		"kvgw.allocs_per_setq_batch", "kvgw.allocs_per_getq_batch", "kvgw.ops_per_backend_batch"} {
		m[name] = 0 // unless this is their workload
	}
	if e.tracedLayer != nil {
		if err := e.tracedLayer(t, m); err != nil {
			return nil, err
		}
	}
	return t.spans, nil
}

// allOK is the error of one replayed call: the transport's, or that of
// the first operation whose status is not OK.
func allOK(res []kvdirect.Result, err error) error {
	if err != nil {
		return err
	}
	for i, r := range res {
		if !r.OK() {
			return fmt.Errorf("op %d: status %d: %s", i, r.Status, r.Value)
		}
	}
	return nil
}

// pass sends n batches and returns how long that took, replays and all.
func (t *tracedPass) pass(n int) (time.Duration, error) {
	e := t.e
	fill, call := e.stream(0), e.conns[0].call
	t.recs = make([]rec, 0, n)
	t.spans = make([]span, 0, n*layers)
	begin := time.Now()
	for req := 1; req <= n; req++ {
		r := rec{b: newBatch(e.s.batch)}
		fill(r.b)
		r.ops = e.ops(r.b)
		sent := time.Now()
		bad := call(r.b)
		done := time.Now()
		if bad > 0 {
			return 0, fmt.Errorf("batch %d: %d operations failed", req, bad)
		}
		var d [layers]time.Duration
		if err := e.replay(t, &r, &d); err != nil {
			return 0, fmt.Errorf("batch %d: %w", req, err)
		}
		t.recs = append(t.recs, r)
		t.ops += len(r.ops)
		t.rootNs += int64(done.Sub(sent))

		root := span{ID: len(t.spans) + 1, Name: "request", RequestID: req,
			Start: int64(sent.Sub(begin)), End: int64(done.Sub(begin))}
		t.spans = append(t.spans, root)
		at := root.Start
		for l, ns := range d {
			if ns == 0 {
				continue // not a layer of this workload's path
			}
			t.layerNs[l] += int64(ns)
			// A replay slower than the call itself is cut at the
			// parent's end; the totals above keep its full length.
			end := min(at+int64(ns), root.End)
			t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: layerNames[l], RequestID: req,
				Parent: root.ID, Start: at, End: end, Estimated: true})
			at = end
		}
	}
	return time.Since(begin), nil
}

// replayNative times the layers a kvnet round trip crosses, by their
// public functions: codec, framing through a buffer, and the apply on
// the shadow store.
func replayNative(t *tracedPass, r *rec, d *[layers]time.Duration) error {
	frame := func(pkt []byte) ([]byte, error) {
		if err := kvnet.WriteFrame(&t.frames, pkt); err != nil {
			return nil, err
		}
		return kvnet.ReadFrame(&t.frames)
	}
	at := time.Now()
	lap := func(l int) {
		now := time.Now()
		d[l], at = now.Sub(at), now
	}
	pkt, err := kvdirect.EncodeBatch(r.ops)
	lap(encodeReq)
	if err != nil {
		return err
	}
	pkt, err = frame(pkt)
	lap(frameReq)
	if err != nil {
		return err
	}
	r.reqs, err = wire.DecodeRequests(pkt)
	lap(decodeReq)
	if err != nil {
		return err
	}
	r.resps = t.shadow.ApplyBatch(r.reqs)
	lap(apply)
	out, err := wire.AppendResponses(nil, r.resps)
	lap(encodeResp)
	if err != nil {
		return err
	}
	t.reqBytes, t.rspBytes = t.reqBytes+len(pkt), t.rspBytes+len(out)
	out, err = frame(out)
	lap(frameResp)
	if err != nil {
		return err
	}
	res, err := kvdirect.DecodeResults(out)
	lap(decodeResp)
	if bad := t.e.check(r.b, res, err); bad > 0 {
		return fmt.Errorf("replay on the shadow store: %d operations failed (%v)", bad, err)
	}
	return nil
}

// replayGateway times the layers a gateway round trip crosses: the
// memcache codec both ways, and the apply of the translated batch. The
// gateway hands that batch to Server.Do in-process, so the native codec
// and framing are not on its path.
func replayGateway(t *tracedPass, r *rec, d *[layers]time.Duration) error {
	reqs := make([]kvgw.Request, 0, len(r.ops)+2)
	resps := make([]kvgw.Response, 0, len(r.ops)+2)
	noop := func() {
		reqs = append(reqs, kvgw.Request{Opcode: kvgw.CmdNoop})
		resps = append(resps, kvgw.Response{Opcode: kvgw.CmdNoop})
	}
	for i, id := range r.b.ids {
		if r.b.put[i] {
			reqs = append(reqs, kvgw.Request{Opcode: kvgw.CmdSetQ, Opaque: uint32(i), Key: t.e.keys[id],
				Value: t.e.vals[id], Extras: make([]byte, 8)})
			continue
		}
		if i > 0 && r.b.put[i-1] {
			noop() // ends the quiet run of SETs
		}
		reqs = append(reqs, kvgw.Request{Opcode: kvgw.CmdGetQ, Opaque: uint32(i), Key: t.e.keys[id]})
		resps = append(resps, kvgw.Response{Opcode: kvgw.CmdGet, Opaque: uint32(i), CAS: 1,
			Extras: make([]byte, 4), Value: t.e.vals[id]})
	}
	noop()
	var buf []byte
	start := time.Now()
	for _, q := range reqs {
		var err error
		if buf, err = kvgw.AppendRequest(buf[:0], q); err != nil {
			return err
		}
		if _, _, err = kvgw.DecodeRequest(buf); err != nil {
			return err
		}
	}
	for _, p := range resps {
		var err error
		if buf, err = kvgw.AppendResponse(buf[:0], p); err != nil {
			return err
		}
		if _, _, err = kvgw.DecodeResponse(buf); err != nil {
			return err
		}
	}
	mid := time.Now()
	pkt, err := kvdirect.EncodeBatch(r.ops) // untimed: only to get the batch as the store takes it
	if err != nil {
		return err
	}
	if r.reqs, err = wire.DecodeRequests(pkt); err != nil {
		return err
	}
	applyStart := time.Now()
	r.resps = t.shadow.ApplyBatch(r.reqs)
	d[gwCodec], d[apply] = mid.Sub(start), time.Since(applyStart)
	for i, resp := range r.resps {
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("replay on the shadow store: op %d: status %d", i, resp.Status)
		}
	}
	return nil
}

func (t *tracedPass) rootMeanNs() float64 { return float64(t.rootNs) / float64(len(t.recs)) }

// probe replays recorded batches through f, from par goroutines at
// once, and returns the mean nanoseconds per call, or the first error.
func (t *tracedPass) probe(par int, f func(r *rec) error) (float64, error) {
	n := min(len(t.recs), probeCalls)
	errs := make([]error, par)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range t.recs[:n] {
				if errs[g] = f(&t.recs[i]); errs[g] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	ns := float64(time.Since(start)) / float64(n)
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	return ns, nil
}

// allocCalls is how often allocsPerCall repeats the call: an odd
// number, so that the median is one of the counts.
const allocCalls = 501

// allocsPerCall is the heap allocations of one f on the first traced
// batch: the median, over allocCalls calls, of the process's malloc
// count across the call. One batch, so that every call allocates the
// same; the median, so that what a background goroutine or a collection
// adds to a few of them does not show. The count then repeats from run
// to run, for a seed.
func (t *tracedPass) allocsPerCall(f func(r *rec) error) (float64, error) {
	counts := make([]float64, allocCalls)
	var ms runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		err := f(&t.recs[0])
		runtime.ReadMemStats(&ms)
		if err != nil {
			return 0, fmt.Errorf("allocation probe: %w", err)
		}
		counts[i] = float64(ms.Mallocs - before)
	}
	return median(counts), nil
}

// gatewayLayer adds the gateway's own metrics: single-item round trips
// against the same item fetched natively, and allocations per quiet run.
func (t *tracedPass) gatewayLayer(cl *kvgw.Client, tenant *kvgw.Tenant, m map[string]float64) error {
	e := t.e
	n := min(e.nkeys(), probeCalls)
	// mean is the mean nanoseconds of f over the first n key ids; f says
	// whether it found the item.
	mean := func(what string, f func(id int) (found bool, err error)) (float64, error) {
		start := time.Now()
		for id := 0; id < n; id++ {
			if found, err := f(id); err != nil || !found {
				return 0, fmt.Errorf("%s of key %d: found=%t: %v", what, id, found, err)
			}
		}
		return float64(time.Since(start)) / float64(n), nil
	}
	var err error
	m["kvgw.get_rtt_ns"], err = mean("gateway GET", func(id int) (bool, error) {
		_, _, _, found, err := cl.Get(e.keys[id])
		return found, err
	})
	if err != nil {
		return err
	}
	m["kvgw.set_rtt_ns"], err = mean("gateway SET", func(id int) (bool, error) {
		_, err := cl.Set(e.keys[id], e.vals[id], 0)
		return true, err
	})
	if err != nil {
		return err
	}
	native, err := mean("native GET", func(id int) (bool, error) {
		_, found, err := t.refCl.Get(tenant.Namespace(e.keys[id]))
		return found, err
	})
	if err != nil {
		return err
	}
	m["kvgw.overhead_vs_native_ns"] = m["kvgw.get_rtt_ns"] - native
	b := t.recs[0].b
	half := len(b.ids) / 2
	call := func(b *batch) func(*rec) error {
		return func(*rec) error {
			if bad := e.conns[0].call(b); bad > 0 {
				return fmt.Errorf("%d of %d operations failed", bad, len(b.ids))
			}
			return nil
		}
	}
	if m["kvgw.allocs_per_setq_batch"], err = t.allocsPerCall(call(&batch{b.ids[:half], b.put[:half]})); err != nil {
		return err
	}
	m["kvgw.allocs_per_getq_batch"], err = t.allocsPerCall(call(&batch{b.ids[half:], b.put[half:]}))
	return err
}
