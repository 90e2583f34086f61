package experiments

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"kvdirect/internal/baseline"
	"kvdirect/internal/hashtable"
	"kvdirect/internal/memory"
	"kvdirect/internal/slab"
)

// harness drives a real KV-Direct hash table over counted memory for the
// access-count experiments.
type harness struct {
	tbl   *hashtable.Table
	mem   *memory.Memory
	alloc *slab.Allocator
	total uint64

	rng     *rand.Rand
	keySize int
	valSize func(id uint64) int // value size per key id

	nextID uint64
	live   []uint64
}

func newHarness(memBytes uint64, ratio float64, threshold int, seed int64,
	keySize int, valSize func(uint64) int) *harness {
	mem := memory.New(memBytes)
	idx, slabs := memory.Split(memBytes, ratio)
	alloc := slab.New(slabs, slab.Options{})
	tbl, err := hashtable.New(mem, alloc, hashtable.Config{
		Index: idx, InlineThreshold: threshold, Seed: uint64(seed),
	})
	if err != nil {
		panic(err)
	}
	return &harness{
		tbl: tbl, mem: mem, alloc: alloc, total: memBytes,
		rng: rand.New(rand.NewSource(seed)), keySize: keySize, valSize: valSize,
	}
}

func (h *harness) key(id uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], id+1) // ids stay well below 2^40
	k := make([]byte, h.keySize)
	copy(k, buf[:])
	return k
}

func (h *harness) val(id uint64) []byte {
	n := h.valSize(id)
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(id>>uint(8*(i%8))) ^ byte(i)
	}
	return v
}

// insertOne inserts the next fresh key; returns false when the table is
// full.
func (h *harness) insertOne() bool {
	id := h.nextID
	if _, err := h.tbl.Put(h.key(id), h.val(id)); err != nil {
		return false
	}
	h.nextID++
	h.live = append(h.live, id)
	return true
}

// fillTo inserts fresh keys until the utilization target (payload bytes /
// total memory) is reached; returns false if the table filled up first.
func (h *harness) fillTo(util float64) bool {
	for h.tbl.Utilization(h.total) < util {
		if !h.insertOne() {
			return false
		}
	}
	return true
}

// fillMax inserts until full and returns the maximum utilization reached.
func (h *harness) fillMax() float64 {
	for h.insertOne() {
	}
	return h.tbl.Utilization(h.total)
}

// measureGets returns average memory accesses per GET of random live keys.
func (h *harness) measureGets(n int) float64 {
	if len(h.live) == 0 {
		return 0
	}
	h.mem.ResetStats()
	for i := 0; i < n; i++ {
		id := h.live[h.rng.Intn(len(h.live))]
		if _, ok := h.tbl.Get(h.key(id)); !ok {
			panic("harness: live key missing")
		}
	}
	return float64(h.mem.Stats().Accesses()) / float64(n)
}

// measurePuts returns average accesses per PUT, using a delete+reinsert
// churn protocol so utilization stays constant and insertion cost (the
// expensive path for cuckoo/hopscotch) is what gets measured. Only the
// insert's accesses are charged.
func (h *harness) measurePuts(n int) float64 {
	if len(h.live) == 0 {
		return 0
	}
	var acc uint64
	measured := 0
	for i := 0; i < n; i++ {
		j := h.rng.Intn(len(h.live))
		victim := h.live[j]
		h.live[j] = h.live[len(h.live)-1]
		h.live = h.live[:len(h.live)-1]
		if !h.tbl.Delete(h.key(victim)) {
			panic("harness: delete of live key failed")
		}
		before := h.mem.Stats()
		if !h.insertOne() {
			continue
		}
		acc += h.mem.Stats().Sub(before).Accesses()
		measured++
	}
	if measured == 0 {
		return 0
	}
	return float64(acc) / float64(measured)
}

// chooseRatio picks a hash index ratio sized so the index and slab
// regions exhaust together for the given KV geometry (the paper tunes
// this before each benchmark).
func chooseRatio(kvSize, threshold int) float64 {
	if kvSize+2 <= threshold+2 && kvSize+2 <= hashtable.MaxInlineData {
		// Inline: almost everything lives in buckets; keep a slab sliver
		// for chained buckets.
		return 0.9
	}
	// Non-inline: index costs ~5.5 B per key (slot / occupancy), data
	// costs the slab class footprint.
	idx := 5.5
	cls, ok := slab.ClassFor(kvSize + 4)
	data := float64(slab.MaxSlab)
	if ok {
		data = float64(slab.Sizes[cls])
	}
	return idx / (idx + data)
}

// mixedVal is the Figure 6/9/10 value-size mix: values 0-25 B on 5 B keys
// give 5-30 B KVs, so inline thresholds actually divide the population.
func mixedVal(id uint64) int { return int(id % 26) }

// tuneRatio coarsely searches for the hash index ratio maximizing the
// achievable utilization for a configuration, mirroring the paper's
// "tune hash index ratio ... before each benchmark". The search runs on a
// small memory: the optimum is size-independent.
func tuneRatio(threshold int, seed int64, keySize int, valSize func(uint64) int) float64 {
	const tuneBytes = 4 << 20
	best, bestRatio := -1.0, 0.5
	for _, ratio := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		h := newHarness(tuneBytes, ratio, threshold, seed, keySize, valSize)
		if max := h.fillMax(); max > best {
			best, bestRatio = max, ratio
		}
	}
	return bestRatio
}

// Fig6 reproduces Figure 6: average memory access count under varying
// inline thresholds and memory utilizations, with KV sizes mixed 5-30 B
// so the threshold actually divides the population. Each threshold runs
// at its tuned hash index ratio.
func Fig6(sc Scale) []*Table {
	t := &Table{
		ID:      "fig6",
		Title:   "Memory accesses per GET vs utilization, by inline threshold",
		Columns: []string{"utilization", "thr=10B", "thr=15B", "thr=20B", "thr=25B"},
		Notes:   "mixed 5-30 B KVs, per-threshold tuned index ratio; higher thresholds inline more KVs (paper Figure 6)",
	}
	utils := []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	thresholds := []int{10, 15, 20, 25}
	vals := make([][]float64, len(utils)) // [utilization][threshold]
	for ui := range vals {
		vals[ui] = []float64{unreachable, unreachable, unreachable, unreachable}
	}
	for ti, thr := range thresholds {
		ratio := tuneRatio(thr, sc.Seed+int64(ti), 5, mixedVal)
		h := newHarness(sc.MemBytes, ratio, thr, sc.Seed+int64(ti), 5, mixedVal)
		for ui, u := range utils {
			if h.fillTo(u) {
				vals[ui][ti] = h.measureGets(sc.Ops)
			}
		}
	}
	// The largest fall in accesses from one reachable utilization to the
	// next, over every threshold.
	fall := -math.MaxFloat64
	for ti := range thresholds {
		prev := 0.0
		for ui := range utils {
			if v := vals[ui][ti]; !math.IsNaN(v) {
				fall, prev = max(fall, prev-v), v
			}
		}
	}
	for ui, u := range utils {
		row := []string{f2(u)}
		for _, v := range vals[ui] {
			row = append(row, cell2(v))
		}
		t.Add(row...)
	}
	t.Claims = []Claim{
		atMost("fig6/largest-fall", "at every inline threshold, accesses per GET grow with utilization", fall, 0.15),
	}
	return []*Table{t}
}

// Fig9 reproduces Figure 9: memory access count vs hash index ratio (a)
// and vs memory utilization (b), for inline and offline (never-inline)
// configurations.
func Fig9(sc Scale) []*Table {
	// inlineOffline measures accesses per GET with a 25 B inline
	// threshold and with none, at one index ratio and utilization.
	inlineOffline := func(ratio, util float64) (in, off float64) {
		pt := [2]float64{unreachable, unreachable}
		for i, thr := range []int{25, 0} {
			if h := newHarness(sc.MemBytes, ratio, thr, sc.Seed, 5, mixedVal); h.fillTo(util) {
				pt[i] = h.measureGets(sc.Ops)
			}
		}
		return pt[0], pt[1]
	}
	a := &Table{
		ID:      "fig9a",
		Title:   "Memory accesses per GET vs hash index ratio (utilization 0.25)",
		Columns: []string{"index ratio", "inline", "offline"},
		Notes:   "mixed 5-30 B KVs; more index space means more inlining and fewer collisions",
	}
	gap := 0.0 // offline minus inline at the highest ratio where both fit
	for _, ratio := range []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8} {
		in, off := inlineOffline(ratio, 0.25)
		if !math.IsNaN(in + off) {
			gap = off - in
		}
		a.Add(f2(ratio), cell2(in), cell2(off))
	}
	a.Claims = []Claim{
		atLeast("fig9a/offline-minus-inline", "inlining saves accesses once the index has room for it", gap, 0.01),
	}

	b := &Table{
		ID:      "fig9b",
		Title:   "Memory accesses per GET vs utilization (hash index ratio 0.5)",
		Columns: []string{"utilization", "inline", "offline"},
	}
	for _, u := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30} {
		in, off := inlineOffline(0.5, u)
		b.Add(f2(u), cell2(in), cell2(off))
	}
	return []*Table{a, b}
}

// Fig10 reproduces Figure 10: the maximum achievable memory utilization
// drops as the hash index ratio grows (less dynamic-allocation space), so
// the optimal ratio for a target utilization is the largest ratio that
// still reaches it; the dashed line is the access count at that point.
func Fig10(sc Scale) []*Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Max achievable utilization and GET accesses vs hash index ratio (mixed 5-30 B KVs)",
		Columns: []string{"index ratio", "max utilization", "accesses@max"},
		Notes:   "max utilization drops as the index squeezes out dynamic-allocation space; pick the largest ratio that still reaches the required utilization (paper Figure 10)",
	}
	rise, prev := -math.MaxFloat64, 2.0
	var accesses []float64
	for _, ratio := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9} {
		h := newHarness(sc.MemBytes, ratio, 25, sc.Seed, 5, mixedVal)
		max := h.fillMax()
		get := h.measureGets(sc.Ops)
		rise, prev = math.Max(rise, max-prev), max
		accesses = append(accesses, get)
		t.Add(f2(ratio), f3(max), f2(get))
	}
	t.Claims = []Claim{
		atMost("fig10/largest-rise", "max utilization drops as the hash index ratio grows", rise, 0.01),
		atLeast("fig10/accesses-first-minus-last", "accesses at max utilization fall as the ratio grows (fewer chained lookups)", accesses[0]-accesses[len(accesses)-1], 0.01),
	}
	return []*Table{t}
}

// Fig11 reproduces Figure 11: memory accesses per KV operation for
// KV-Direct (chaining + inline), MemC3 (bucketized cuckoo) and FaRM
// (chain-associative hopscotch), for 10 B and 254 B KVs, GET and PUT,
// across memory utilizations. "—" marks utilizations a design cannot
// reach (the paper's missing bars).
func Fig11(sc Scale) []*Table {
	var tables []*Table
	vals := map[string][][3]float64{} // table ID → [utilization][KV-Direct, cuckoo, hopscotch]
	utils := map[int][]float64{10: {0.10, 0.20, 0.30, 0.35}, 252: {0.25, 0.40, 0.55, 0.70}}
	for _, kv := range []int{10, 252} {
		for _, op := range []string{"GET", "PUT"} {
			t := &Table{
				ID:      fmt.Sprintf("fig11-%db-%s", kv, op),
				Title:   fmt.Sprintf("Memory accesses per %s, %d B KVs", op, kv),
				Columns: []string{"utilization", "KV-Direct", "MemC3(cuckoo)", "FaRM(hopscotch)"},
				Notes:   "values in slabs for MemC3/FaRM with inline keys; — marks unreachable utilizations (paper Figure 11)",
			}
			for _, u := range utils[kv] {
				pt := [3]float64{kvdPoint(sc, kv, op, u), cuckooPoint(sc, kv, op, u), hopscotchPoint(sc, kv, op, u)}
				vals[t.ID] = append(vals[t.ID], pt)
				t.Add(f2(u), cell2(pt[0]), cell2(pt[1]), cell2(pt[2]))
			}
			tables = append(tables, t)
		}
	}
	get10, put10, put252 := vals["fig11-10b-GET"], vals["fig11-10b-PUT"], vals["fig11-252b-PUT"]
	// reach is the highest 10 B utilization a design reaches (0: none).
	reach := func(design int) float64 {
		top := 0.0
		for ui, pt := range get10 {
			if !math.IsNaN(pt[design]) {
				top = utils[10][ui]
			}
		}
		return top
	}
	highest, below := utils[10][len(utils[10])-1], utils[10][len(utils[10])-2]
	last := put252[len(put252)-1]
	tables[0].Claims = []Claim{
		atMost("fig11-10b-GET/kvd-low-util", "~1 memory access per GET for inline KVs", get10[0][0], 1.2),
		atLeast("fig11-10b-GET/cuckoo-minus-kvd", "KV-Direct GETs need fewer accesses than MemC3's cuckoo", get10[1][1]-get10[1][0], 0.01),
		atLeast("fig11-10b-GET/hopscotch-minus-kvd", "KV-Direct GETs need fewer accesses than FaRM's hopscotch", get10[1][2]-get10[1][0], 0.01),
		atLeast("fig11-10b-GET/kvd-highest-util", "the rightmost, highest-utilization bars are KV-Direct's alone", reach(0), highest),
		atMost("fig11-10b-GET/cuckoo-highest-util", "MemC3 cannot reach the highest utilizations for small KVs", reach(1), below),
		atMost("fig11-10b-GET/hopscotch-highest-util", "FaRM cannot reach the highest utilizations for small KVs", reach(2), below),
	}
	tables[1].Claims = []Claim{
		atMost("fig11-10b-PUT/kvd-low-util", "~2 memory accesses per PUT for inline KVs", put10[0][0], 2.3),
	}
	tables[3].Claims = []Claim{
		atLeast("fig11-252b-PUT/cuckoo-minus-kvd", "KV-Direct PUTs beat cuckoo at high utilization", last[1]-last[0], 0.01),
		atLeast("fig11-252b-PUT/hopscotch-minus-kvd", "KV-Direct PUTs beat hopscotch, which degrades at high utilization", last[2]-last[0], 0.01),
	}
	return tables
}

// tuneRatioFor finds the largest hash index ratio (fewest collisions and
// most inlining) that still reaches the required utilization — the
// paper's "optimal choice of inline threshold and hash index ratio for
// the given KV size and memory utilization requirement".
func tuneRatioFor(util float64, threshold int, seed int64, keySize int, valSize func(uint64) int) (float64, bool) {
	const tuneBytes = 4 << 20
	for ratio := 0.9; ratio >= 0.09; ratio -= 0.1 {
		h := newHarness(tuneBytes, ratio, threshold, seed, keySize, valSize)
		if h.fillTo(util) {
			return ratio, true
		}
	}
	return 0, false
}

// kvdPoint, cuckooPoint and hopscotchPoint measure one design's accesses
// per op at a utilization, unreachable if the design cannot fill to it.
func kvdPoint(sc Scale, kv int, op string, util float64) float64 {
	threshold := 13
	keySize := 5
	valSize := kv - keySize
	if kv > 50 {
		threshold = 0
		keySize = 10
		valSize = kv - keySize
	}
	ratio, reachable := tuneRatioFor(util, threshold, sc.Seed, keySize,
		func(uint64) int { return valSize })
	if !reachable {
		return unreachable
	}
	h := newHarness(sc.MemBytes, ratio, threshold, sc.Seed, keySize,
		func(uint64) int { return valSize })
	if !h.fillTo(util) {
		return unreachable
	}
	if op == "GET" {
		return h.measureGets(sc.Ops)
	}
	return h.measurePuts(sc.Ops)
}

func cuckooPoint(sc Scale, kv int, op string, util float64) float64 {
	c := baseline.NewCuckoo(sc.MemBytes, kv, cuckooIndexRatio(kv), sc.Seed)
	next := uint64(1)
	for c.Utilization(sc.MemBytes) < util {
		if !c.Put(next) {
			return unreachable
		}
		next++
	}
	rng := rand.New(rand.NewSource(sc.Seed + 7))
	if op == "GET" {
		c.GetStats = baseline.AccessStats{}
		for i := 0; i < sc.Ops; i++ {
			c.Get(uint64(rng.Intn(int(next-1))) + 1)
		}
		return c.GetStats.PerOp()
	}
	c.PutStats = baseline.AccessStats{}
	for i := 0; i < sc.Ops; i++ {
		victim := uint64(rng.Intn(int(next-1))) + 1
		if c.Delete(victim) {
			c.Put(next)
			next++
		}
	}
	return c.PutStats.PerOp()
}

func hopscotchPoint(sc Scale, kv int, op string, util float64) float64 {
	h := baseline.NewHopscotch(sc.MemBytes, kv, cuckooIndexRatio(kv))
	next := uint64(1)
	for h.Utilization(sc.MemBytes) < util {
		if !h.Put(next) {
			return unreachable
		}
		next++
	}
	rng := rand.New(rand.NewSource(sc.Seed + 8))
	if op == "GET" {
		h.GetStats = baseline.AccessStats{}
		for i := 0; i < sc.Ops; i++ {
			h.Get(uint64(rng.Intn(int(next-1))) + 1)
		}
		return h.GetStats.PerOp()
	}
	h.PutStats = baseline.AccessStats{}
	for i := 0; i < sc.Ops; i++ {
		victim := uint64(rng.Intn(int(next-1))) + 1
		if h.Delete(victim) {
			h.Put(next)
			next++
		}
	}
	return h.PutStats.PerOp()
}

// cuckooIndexRatio sizes the baseline index so index slots and slab
// objects exhaust together at full load.
func cuckooIndexRatio(kv int) float64 {
	slot := 8.0 / 0.95
	obj := float64((kv + 2 + 15) / 16 * 16)
	return slot / (slot + obj)
}
