package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// timedSetups is how many times a run sets a workload up; setup_s is
// their median, because one set-up is too short to be steady.
const timedSetups = 3

// minSamples is the fewest timed calls a p99 may rest on: ten samples
// lie beyond it. The window that lat_p99_us is taken from must hold them.
const minSamples = 1000

// runWorkload sets one workload up, measures it, and then sets it up
// again for the rest of the timedSetups. The further set-ups come last
// so that the first one and the timed run see a fresh process, as a
// user's would.
func runWorkload(s *spec, cfg config) (result, []span, error) {
	res := result{Name: s.name, EndToEnd: map[string]float64{}}
	var setups []float64
	var spans []span
	for len(setups) < timedSetups {
		runtime.GC()
		start := time.Now()
		e, err := setup(s, cfg)
		if err != nil {
			return res, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if len(setups) == 1 {
			spans, err = measure(e, &res)
		}
		e.close()
		if err != nil {
			return res, nil, err
		}
		if cfg.smoke {
			break // a smoke run checks that metrics exist, not what they say
		}
	}
	res.EndToEnd["setup_s"] = median(setups)
	return res, spans, nil
}

// measure takes the end-to-end metrics of a workload that has been set
// up, with tracing off, checks the outcome, and then — on the same
// servers, now idle — runs the traced pass for the per-layer metrics.
func measure(e *env, res *result) ([]span, error) {
	t, err := runTimed(e)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for w := 0; w < windows; w++ {
		lat := t.samples(w, w+1, anyClass, true)
		res.WindowSamples = append(res.WindowSamples, len(lat))
		res.WindowOps = append(res.WindowOps, t.opsPerSec(w, w+1, true))
		res.WindowP50 = append(res.WindowP50, quantile(lat, 0.50))
		res.WindowP99 = append(res.WindowP99, quantile(lat, 0.99))
	}
	all, raw := t.samples(0, windows, anyClass, true), t.samples(0, windows, anyClass, false)
	res.Samples = len(all)
	res.Attempted, res.Failed = t.attempted, t.failed
	res.EndToEnd["ops_per_s"] = median(res.WindowOps)
	res.EndToEnd["lat_p50_us"] = quantile(all, 0.50)
	// The tail alone is taken from the window where it was lowest, not
	// from all samples. What the host adds to a call — a freeze, a burst
	// of stolen time — it adds to about one call in a hundred, more in one
	// minute and fewer in the next, and the yardstick's medians do not see
	// it. Over ten runs the p99 of all samples spread by 7 to 15 %, the
	// lowest window's by 5 to 8 % (README.md, "Noise"). The p99 of all
	// samples is reported as client.lat_p99_all_us.
	best := 0
	for w, p99 := range res.WindowP99 {
		if p99 < res.WindowP99[best] {
			best = w
		}
	}
	res.EndToEnd["lat_p99_us"] = res.WindowP99[best]
	res.EndToEnd["peak_rss_mb"] = rss
	res.Raw = map[string]float64{
		"client.ops_per_s_raw":  t.opsPerSec(0, windows, false),
		"client.lat_p50_raw_us": quantile(raw, 0.50),
		"client.lat_p99_raw_us": quantile(raw, 0.99),
		"client.lat_p99_all_us": quantile(all, 0.99),
		"client.echo_p50_us":    median(t.echoUs),
		"client.table_step_ns":  median(t.stepNs),
		"client.slow_p50":       median(t.slow),
		"client.slow_max":       slices.Max(t.slow),
	}

	if res.Failed > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d operations failed, first: %s", res.Failed, res.Attempted, e.firstFailure))
	}
	if n := res.WindowSamples[best]; n < minSamples && !e.cfg.smoke { // a smoke run checks that metrics exist, not what they say
		res.Notes = append(res.Notes, fmt.Sprintf("lat_p99_us rests on %d samples, needs %d", n, minSamples))
	}
	if got := e.numKeys(); got != e.wantKeys {
		res.Notes = append(res.Notes, fmt.Sprintf("store holds %d keys after the run, preloaded %d", got, e.wantKeys))
	}
	if e.readBack != nil {
		if wrong := e.readBack(); wrong > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%d acknowledged writes do not read back", wrong))
		}
	}
	res.Correct = len(res.Notes) == 0

	if !e.cfg.trace {
		return nil, nil
	}
	res.PerLayer = t.layerMetrics(res)
	e.timedLayer(res.PerLayer)
	spans, err := runTraced(e, res.Raw["client.lat_p50_raw_us"], res.PerLayer)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	return spans, nil
}

// sliceLen is how long the connections run between two yardstick
// probes. It is short because the machine changes speed several times a
// second, and a slice should see one speed.
const sliceLen = 50 * time.Millisecond

// slice is one burst of the closed loop, between two yardstick probes.
type slice struct {
	window int           // the measured window it fell in
	dur    time.Duration // from the first call to the last reply
	ops    int64
	slow   float64 // of the machine, by the probes before and after
	// lat[c][from[c]:to[c]] are the slice's samples on connection c.
	from, to [conns]int
}

// timed is what the measured windows yield.
type timed struct {
	slices []slice
	// lat holds, per connection, one sample per call: its nanoseconds,
	// with the call's class above classShift.
	lat               [conns][]uint32
	attempted, failed int64
	proc              procStats // summed over the slices, so without the yardstick; the process holds clients and servers alike
	echoUs, stepNs    []float64 // every yardstick probe of the measured windows
	slow              []float64 // every slice's
}

// runTimed drives every connection in a closed loop — the next call
// leaves when the previous reply has been checked — in slices of
// sliceLen with a yardstick probe between them, through one warm-up
// window, which is discarded, and five measured ones.
func runTimed(e *env) (*timed, error) {
	// One P while the clock runs: clients, servers and the yardstick take
	// turns on one thread. Two connections, their server goroutines, the
	// replicas and the collector are more runnable threads than this
	// machine has CPUs, and the kernel's scheduler tick then shows in every
	// tail. Set-up and the traced pass keep the default.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	y, err := newYardstick()
	if err != nil {
		return nil, err
	}
	defer y.close()
	window := e.cfg.window
	t := &timed{}
	var batches [conns]*batch
	for c := range batches {
		batches[c] = newBatch(e.s.batch)
		// Room for 100 000 calls a second, so that the slices rarely grow.
		t.lat[c] = make([]uint32, 0, int(100_000*(windows+1)*window.Seconds()))
	}
	// burst runs one slice. A call that is under way when the slice ends
	// is finished and counted.
	burst := func(s *slice) {
		var attempted, failed [conns]int64
		var wg sync.WaitGroup
		start := time.Now()
		end := start.Add(sliceLen)
		for c := range e.conns {
			s.from[c] = len(t.lat[c])
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn, b := e.conns[c], batches[c]
				for done := start; done.Before(end); {
					conn.fill(b)
					sent := time.Now()
					bad := conn.call(b)
					done = time.Now()
					ns := uint32(min(done.Sub(sent), 1<<classShift-1)) // a call of a second or more counts as one second
					t.lat[c] = append(t.lat[c], ns|uint32(b.class())<<classShift)
					attempted[c] += int64(len(b.ids))
					failed[c] += int64(bad)
				}
			}()
		}
		wg.Wait()
		s.dur = time.Since(start)
		for c := range e.conns {
			s.to[c] = len(t.lat[c])
			s.ops += attempted[c]
			t.attempted += attempted[c]
			t.failed += failed[c]
		}
	}
	before, err := y.probe()
	if err != nil {
		return nil, err
	}
	// The warm-up window comes first; its slices count as window -1.
	for begin := time.Now().Add(window); ; {
		s := slice{window: -1}
		if el := time.Since(begin); el >= 0 {
			s.window = int(el / window)
		}
		if s.window >= windows {
			return t, nil
		}
		proc := readProc()
		burst(&s)
		proc = readProc().sub(proc)
		after, err := y.probe()
		if err != nil {
			return nil, err
		}
		s.slow = slow(before, after)
		before = after
		if s.window < 0 {
			t.attempted, t.failed = 0, 0
			for c := range t.lat {
				t.lat[c] = t.lat[c][:0]
			}
			continue
		}
		t.slices = append(t.slices, s)
		t.proc = t.proc.add(proc)
		t.echoUs = append(t.echoUs, after.echoUs)
		t.stepNs = append(t.stepNs, after.stepNs)
		t.slow = append(t.slow, s.slow)
	}
}

const classShift = 30

func anyClass(int) bool { return true }

// opsPerSec is the operations per second over windows [lo, hi): when
// scaled, per second of the reference speed.
func (t *timed) opsPerSec(lo, hi int, scaled bool) float64 {
	ops, sec := 0.0, 0.0
	for _, s := range t.slices {
		if s.window < lo || s.window >= hi {
			continue
		}
		ops += float64(s.ops)
		if scaled {
			sec += s.dur.Seconds() / s.slow
		} else {
			sec += s.dur.Seconds()
		}
	}
	return ops / sec
}

// samples returns, ascending, the nanoseconds of the calls that
// completed in windows [lo, hi) and whose class keep accepts: when
// scaled, what each would have taken at the reference speed.
func (t *timed) samples(lo, hi int, keep func(class int) bool, scaled bool) []uint32 {
	var ns []uint32
	for _, s := range t.slices {
		if s.window < lo || s.window >= hi {
			continue
		}
		slow := 1.0
		if scaled {
			slow = s.slow
		}
		for c := range t.lat {
			for _, v := range t.lat[c][s.from[c]:s.to[c]] {
				if keep(int(v >> classShift)) {
					ns = append(ns, uint32(float64(v&(1<<classShift-1))/slow))
				}
			}
		}
	}
	slices.Sort(ns)
	return ns
}

// layerMetrics are the per-layer metrics that come from the timed
// windows themselves.
func (t *timed) layerMetrics(res *result) map[string]float64 {
	class := func(k int) []uint32 {
		return t.samples(0, windows, func(c int) bool { return c == k }, true)
	}
	all := t.samples(0, windows, anyClass, true)
	ops := float64(t.attempted)
	m := map[string]float64{
		"proc.allocs_per_op":   float64(t.proc.mallocs) / ops,
		"proc.bytes_per_op":    float64(t.proc.bytes) / ops,
		"proc.cpu_us_per_op":   t.proc.cpu.Seconds() * 1e6 / ops,
		"proc.gc_cycles":       float64(t.proc.gcCycles),
		"proc.gc_pause_ms":     float64(t.proc.gcPauseNs) / 1e6,
		"client.get_p50_us":    quantile(class(classGet), 0.50),
		"client.put_p50_us":    quantile(class(classPut), 0.50),
		"client.lat_p999_us":   0,
		"kvnet.client_retries": 0, "kvnet.client_reconnects": 0, "kvnet.server_bad_batches": 0,
		"kvrepl.quorum_wait_p50_ns": 0, "kvrepl.lag_max": 0,
	}
	for name, v := range res.Raw {
		m[name] = v
	}
	if len(all) >= 10*minSamples { // ten samples lie beyond p999
		m["client.lat_p999_us"] = quantile(all, 0.999)
	}
	m["client.window_spread_frac"] = spreadFrac(res.WindowOps)
	return m
}

// quantile is the nearest-rank q-quantile of sorted nanosecond samples,
// in microseconds; 0 when there are none.
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return float64(sorted[max(0, min(i, len(sorted)-1))]) / 1e3
}

// spreadFrac is how far apart the windows' throughputs lie: (max − min)
// as a share of their median.
func spreadFrac(windowOps []float64) float64 {
	return (slices.Max(windowOps) - slices.Min(windowOps)) / median(windowOps)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// procStats are process-wide resource counters.
type procStats struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNs      uint64
	cpu            time.Duration // user + system
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //lint:allow statuserr -- fails only on a bad argument
	return procStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs,
		cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano())}
}

func (p procStats) add(q procStats) procStats {
	return procStats{p.mallocs + q.mallocs, p.bytes + q.bytes, p.gcCycles + q.gcCycles,
		p.gcPauseNs + q.gcPauseNs, p.cpu + q.cpu}
}

func (p procStats) sub(q procStats) procStats {
	return procStats{p.mallocs - q.mallocs, p.bytes - q.bytes, p.gcCycles - q.gcCycles,
		p.gcPauseNs - q.gcPauseNs, p.cpu - q.cpu}
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's high-water mark, so that a process running several workloads
// reports each one's own peak. Where the kernel refuses, later
// workloads report the peak of the process so far.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //lint:allow statuserr -- a refusal only leaves the process-wide peak, as the comment says
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}
