package kvrepl

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/kvgw"
	"kvdirect/kvnet"
)

// The contract harness: every row is a Deploy topology, a path (the
// native kvnet.Client, or the memcache gateway riding DoTrace) and a
// fault schedule. Concurrent clients record every call (oracle_test.go);
// then the faults go off, every key is read back into the same history,
// every live replica of each owning group must hold the same bytes, and
// the history must satisfy the contract.

const (
	actors   = 4
	minAcked = 100 // the vacuity guard: fewer acked ops exercised nothing
	// migratePace: a learner whose messages stall lags a faster writer forever.
	migratePace = 2 * time.Millisecond
)

// A schedule is what a row does to the deployment while the load runs.
type schedule struct {
	name       string
	faults     func(*fault.Injector) // armed before the load starts
	destFaults func(*fault.Injector) // armed on a migration's destination group
	// replay: the native client may replay a PUT or DELETE after an
	// ambiguous transport error, and a replay can land after another
	// client's write to the key. So each key gets a single writer, and a
	// DELETE's existed bit is not checked. Gateway rows never replay.
	replay bool
	lossy  bool // uncorrectable memory faults: checked by lossyErr
	noCtr  bool // plain values only: no FETCH-ADD counters
	scan   bool // the scan phase instead of the concurrent load
	pace   time.Duration
	during func(t *testing.T, fx *fixture) // returns when the load may stop
	check  func(t *testing.T, fx *fixture) // postconditions, faults off
}

type row struct {
	shards, replicas int
	gateway          bool
	sched            schedule
}

type fixture struct {
	row
	d            *Deployment
	inj, destInj *fault.Injector
	sc           *kvnet.Client // native rows
	gwAddr       string        // gateway rows
	tenants      *kvgw.Registry
	h            *history
	acked        atomic.Int64
	seed         int64
	keys, ctrs   []string
	mig          *Migration
}

func netFaults(in *fault.Injector) {
	in.Set(fault.NetReset, 0.02).Set(fault.NetTruncateFrame, 0.02).Set(fault.NetCorruptFrame, 0.03)
}

// checkRetried: the client's retries, not luck, absorbed the net faults.
func checkRetried(t *testing.T, fx *fixture) {
	if fx.sc.Counters().Get("client.retries") == 0 {
		t.Fatal("net faults fired but the client never retried")
	}
}

// The schedules, each with the postconditions of the test it replaced.
var (
	noFault      = schedule{name: "none"}
	netFault     = schedule{name: "net", faults: netFaults, replay: true, check: checkRetried}
	scanUnderNet = schedule{name: "scan", faults: netFaults, replay: true, scan: true, check: checkRetried}

	correctableMem = schedule{name: "correctable-memory", replay: true, noCtr: true,
		faults: func(in *fault.Injector) {
			in.Set(fault.HostBitFlip, 0.2).Set(fault.DRAMBitFlip, 0.2).Set(fault.PCIeDropTag, 0.05).Set(fault.PCIeStall, 0.05)
		},
		check: func(t *testing.T, fx *fixture) {
			var corrected, retries uint64
			for s := 0; s < fx.shards; s++ {
				for _, r := range fx.d.group(s).Replicas {
					h := r.Store().Health()
					if !h.OK() {
						t.Errorf("replica %d/%d degraded by correctable faults: %s", s, r.ID(), h)
					}
					corrected, retries = corrected+h.Corrected, retries+h.Retries
				}
			}
			if corrected == 0 || retries == 0 {
				t.Fatalf("%d ECC corrections, %d DMA retries under certain flips and dropped completions", corrected, retries)
			}
		}}

	uncorrectableMem = schedule{name: "uncorrectable-memory", replay: true, noCtr: true, lossy: true,
		faults: func(in *fault.Injector) {
			in.Set(fault.HostBitFlip, 0.05).Set(fault.DRAMBitFlip, 0.05).Set(fault.HostDoubleBitFlip, 0.01).
				Set(fault.DRAMDoubleBitFlip, 0.01).Set(fault.NetReset, 0.01).Set(fault.NetCorruptFrame, 0.01)
		},
		check: func(t *testing.T, fx *fixture) {
			text, err := fx.sc.Stats()
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"faults_injected=", "ecc_corrected=", "health="} {
				if !strings.Contains(text, want) || strings.Contains(text, "faults_injected=0\n") {
					t.Fatalf("stats text lacks %q, or counts no fault:\n%s", want, text)
				}
			}
		}}

	// Every shard's primary dies under load. ReplStallBackup keeps the
	// backups behind, so an ack given before quorum would be lost.
	killPrimary = schedule{name: "kill-primary", replay: true, pace: 500 * time.Microsecond,
		faults: func(in *fault.Injector) { in.Set(fault.ReplStallBackup, 1) },
		during: func(t *testing.T, fx *fixture) {
			fx.waitAcked(t, minAcked)
			for s := 0; s < fx.shards; s++ {
				if err := fx.primary(t, s).Close(); err != nil {
					t.Errorf("kill shard %d primary: %v", s, err)
				}
			}
			fx.waitAcked(t, fx.acked.Load()+minAcked/2)
		},
		check: func(t *testing.T, fx *fixture) {
			if got := fx.d.Coordinator().Counters().Get("repl.failovers"); got < uint64(fx.shards) {
				t.Fatalf("%d failovers for %d killed primaries", got, fx.shards)
			}
		}}

	migrateUnderFaults = schedule{name: "migrate-under-faults", replay: true, pace: migratePace,
		faults:     func(in *fault.Injector) { in.Set(fault.ReplMigrateStall, 0.2).Set(fault.ReplCutoverPartition, 0.5) },
		destFaults: func(in *fault.Injector) { in.Set(fault.ReplDestCrash, 0.005) },
		during: func(t *testing.T, fx *fixture) {
			old := fx.migrate(t, false)
			// Until the cutover the learner's is the destination's only
			// inbound stream; after it, the new group's own streams crash too.
			var learnerCrashes uint64
			for {
				n := fx.destInj.Injected(fault.ReplDestCrash)
				if fx.mig.State() >= MigrateCutover {
					break
				}
				learnerCrashes = n
				time.Sleep(200 * time.Microsecond)
			}
			if err := fx.mig.Wait(); err != nil {
				t.Fatalf("migration did not survive the fault mix: %v (status %+v)", err, fx.mig.Status())
			}
			if fx.mig.Status().Resyncs == 0 && learnerCrashes > 0 {
				t.Fatalf("%d crashes hit the learner stream but it never resynced", learnerCrashes)
			}
			fx.settleMigration(t, old)
		},
		check: func(t *testing.T, fx *fixture) {
			if got := fx.d.Coordinator().Counters().Get("repl.migrations_completed"); got != 1 {
				t.Fatalf("repl.migrations_completed = %d, want 1", got)
			}
		}}

	// The kill variants stall every learner message: the kill lands mid-transfer.
	stallLearner = func(in *fault.Injector) { in.Set(fault.ReplMigrateStall, 1) }

	// Before the fence the migration aborts and the old group fails over;
	// past it, the transfer may finish from the frozen log.
	migrateKillSource = schedule{name: "migrate-kill-source", replay: true, pace: migratePace, faults: stallLearner,
		during: func(t *testing.T, fx *fixture) {
			old := fx.migrate(t, true)
			if err := fx.primary(t, 0).Close(); err != nil {
				t.Fatal(err)
			}
			fx.settleMigration(t, old)
			if fx.mig.Err() != nil && fx.d.Coordinator().Counters().Get("repl.failovers") == 0 {
				t.Fatal("aborted migration with a dead source primary, and the old group never failed over")
			}
		}}

	migrateKillDest = schedule{name: "migrate-kill-destination", replay: true, pace: migratePace, faults: stallLearner,
		during: func(t *testing.T, fx *fixture) {
			old := fx.migrate(t, true)
			if err := fx.mig.dest.Close(); err != nil {
				t.Fatal(err)
			}
			fx.settleMigration(t, old)
			if fx.mig.Err() == nil {
				t.Fatal("migration claimed success with a dead destination primary")
			}
			if got := fx.d.Coordinator().Counters().Get("repl.migrations_aborted"); got != 1 {
				t.Fatalf("repl.migrations_aborted = %d, want 1", got)
			}
		}}

	// The control plane dies mid-transfer; the data path keeps serving,
	// and a successor adopts the live group at its current epoch, so
	// fencing from before the crash stays valid.
	migrateKillCoord = schedule{name: "migrate-kill-coordinator", replay: true, pace: migratePace, faults: stallLearner,
		during: func(t *testing.T, fx *fixture) {
			fx.migrate(t, true)
			fx.d.Coordinator().Close()
			if <-fx.mig.Done(); fx.mig.Err() == nil {
				t.Fatalf("migration claimed success after its coordinator died: %+v", fx.mig.Status())
			}
			prim, members := fx.primary(t, 0), map[int]*Replica{}
			for _, r := range fx.d.group(0).Replicas {
				if r.Alive() {
					members[r.ID()] = r
				}
			}
			succ := NewCoordinator(CoordOptions{})
			t.Cleanup(succ.Close)
			epoch := prim.Epoch()
			if err := succ.Adopt(0, members, prim.ID()); err != nil {
				t.Fatalf("successor adopt: %v", err)
			}
			succ.mu.Lock()
			adopted := succ.groups[0].epoch
			succ.mu.Unlock()
			if adopted != epoch {
				t.Fatalf("successor adopted epoch %d, the primary holds %d", adopted, epoch)
			}
			succ.OnRoute(func(shard int, addrs kvnet.ShardAddrs) {
				_ = fx.sc.UpdateShard(shard, addrs) //lint:allow statuserr -- a stale route self-heals on retry
			})
			fx.waitAcked(t, fx.acked.Load()+minAcked/2)
		}}
)

// TestContract holds every topology, through both paths, to the one
// contract under each fault schedule.
func TestContract(t *testing.T) {
	runRows(t, []row{
		{1, 1, false, noFault}, {3, 1, false, noFault}, {1, 3, false, noFault}, {2, 3, false, noFault},
		{1, 1, true, noFault}, {3, 1, true, noFault}, {1, 3, true, noFault}, {2, 3, true, noFault},
		{3, 1, false, netFault}, {2, 3, false, netFault},
		{3, 1, false, correctableMem}, {3, 1, false, uncorrectableMem},
		{1, 3, false, killPrimary}, {2, 3, false, killPrimary}, {1, 3, true, killPrimary}, {2, 3, true, killPrimary},
		{1, 1, false, scanUnderNet}, {3, 1, false, scanUnderNet}, {2, 3, false, scanUnderNet},
	})
}

// TestContractMigration is the same contract across a live migration of
// shard 0: faulted, or with the source, the destination or the
// coordinator killed mid-transfer.
func TestContractMigration(t *testing.T) {
	runRows(t, []row{
		{1, 3, false, migrateUnderFaults}, {1, 3, true, migrateUnderFaults}, {1, 1, true, migrateUnderFaults},
		{1, 3, false, migrateKillSource}, {1, 3, false, migrateKillDest}, {1, 3, false, migrateKillCoord},
	})
}

func runRows(t *testing.T, rows []row) {
	for _, r := range rows {
		path := map[bool]string{false: "native", true: "gateway"}[r.gateway]
		t.Run(fmt.Sprintf("%dx%d/%s/%s", r.shards, r.replicas, path, r.sched.name), func(t *testing.T) {
			t.Parallel()
			fx := newFixture(t, r)
			if r.sched.scan {
				fx.scanPhase(t)
			} else {
				fx.load(t)
			}
			fx.inj.DisableAll()
			if fx.destInj != nil {
				fx.destInj.DisableAll()
			}
			if r.sched.check != nil {
				r.sched.check(t, fx)
			}
			fx.sameReplicas(t, fx.readBack(t))
			if n := fx.acked.Load(); n < minAcked {
				t.Fatalf("%d acked ops: the row exercised nothing", n)
			}
			if r.sched.faults != nil && fx.inj.Total() == 0 {
				t.Fatal("the fault schedule fired nothing")
			}
			if err := checkHistory(fx.h.ops, r.sched.lossy); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func newFixture(t *testing.T, r row) *fixture {
	h := fnv.New64a()
	_, _ = h.Write([]byte(t.Name())) // fnv never errors
	fx := &fixture{row: r, h: &history{start: time.Now()}, seed: int64(h.Sum64() >> 1)}
	fx.inj = fault.NewInjector(fx.seed)
	d := deploy(t, r.shards, r.replicas, 0, fx.inj)
	fx.d = d
	if r.sched.destFaults != nil {
		// The group Migrate builds takes the deployment's Options: give
		// it its own injector, so its crashes are told from the source's.
		fx.destInj = fault.NewInjector(fx.seed + 1)
		d.opts.Faults = fx.destInj
		r.sched.destFaults(fx.destInj)
	}
	prefix, n := "k", 16
	var err error
	switch {
	case r.gateway:
		prefix = "g"
		fx.tenants, err = kvgw.NewRegistry(kvgw.RegistryConfig{AutoCreate: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		gw, err := kvgw.Serve(d, fx.tenants, "127.0.0.1:0", kvgw.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = gw.Close() })
		fx.gwAddr = gw.Addr()
	case r.sched.scan:
		prefix, n = "s", 120
	case !r.sched.noCtr:
		fx.ctrs = []string{"n0", "n1", "n2", "n3"}
	}
	if !r.gateway {
		fx.sc = dialRoutes(t, d)
	}
	for i := 0; i < n; i++ {
		fx.keys = append(fx.keys, fmt.Sprintf("%s%03d", prefix, i))
	}
	if r.sched.faults != nil {
		r.sched.faults(fx.inj)
	}
	return fx
}

func (fx *fixture) caller(t *testing.T) caller {
	if !fx.gateway {
		return nativeCaller{fx.sc}
	}
	g := &gwCaller{addr: fx.gwAddr, tenant: "contract"}
	t.Cleanup(func() { g.close() })
	return g
}

// load runs the concurrent clients until the schedule's during returns
// (by default, once minAcked ops have been acked four times over).
func (fx *fixture) load(t *testing.T) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		c, rng := fx.caller(t), rand.New(rand.NewSource(fx.seed+int64(a)))
		cas := map[string]uint64{} // the last version this client saw per key
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				o := fx.next(rng, a, seq, cas)
				if out, ok := fx.h.do(c, o); ok {
					fx.acked.Add(1)
					if out.ver != 0 {
						cas[o.key] = out.ver
					}
				}
				time.Sleep(fx.sched.pace)
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	if fx.sched.during == nil {
		fx.waitAcked(t, 4*minAcked)
		return
	}
	fx.waitAcked(t, minAcked/2)
	fx.sched.during(t, fx)
}

// next draws client a's seq'th op. Every write's value is unique:
// client‖seq, native values padded to 40 bytes so under memory faults
// each has an ECC line of its own.
func (fx *fixture) next(rng *rand.Rand, a, seq int, cas map[string]uint64) *op {
	o := &op{client: a, key: fx.keys[rng.Intn(len(fx.keys))], arg: fmt.Sprintf("c%d-%d", a, seq)}
	x := rng.Intn(100)
	if fx.gateway {
		switch {
		case x < 25:
			o.kind = gwGet
		case x < 40:
			o.kind, o.flags = gwSet, rng.Uint32()
		case x < 50: // a CAS: mostly with the version last seen, else a guess
			o.kind, o.cas = gwSet, cas[o.key]
			if o.cas == 0 || rng.Intn(4) == 0 {
				o.cas = uint64(1 + rng.Intn(3))
			}
		case x < 57:
			o.kind, o.flags = gwAdd, 1
		case x < 64:
			o.kind, o.flags = gwReplace, 2
		case x < 71:
			o.kind = gwAppend
		case x < 76:
			o.kind = gwPrepend
		case x < 84:
			o.kind = gwDelete
		case x < 94:
			o.kind, o.delta, o.initial, o.create = gwIncr, uint64(rng.Intn(100)), uint64(rng.Intn(1000)), true
		default:
			o.kind, o.delta = gwDecr, uint64(rng.Intn(100))
		}
		return o
	}
	o.arg = fmt.Sprintf("%-40s", o.arg)
	switch replay := fx.sched.replay; {
	case len(fx.ctrs) > 0 && x < 15:
		o.kind, o.key, o.delta = opFetchAdd, fx.ctrs[rng.Intn(len(fx.ctrs))], uint64(1+rng.Intn(9))
	case len(fx.ctrs) > 0 && x < 25:
		o.kind, o.key = opGet, fx.ctrs[rng.Intn(len(fx.ctrs))]
	case x < 50:
		o.kind = opGet
	default:
		if replay { // a single writer per key: client a writes keys a, a+actors, …
			o.key = fx.keys[a+actors*rng.Intn(len(fx.keys)/actors)]
		}
		o.kind, o.effectOnly = opPut, replay
		if x >= 85 {
			o.kind = opDelete
		}
	}
	return o
}

func (fx *fixture) waitAcked(t *testing.T, n int64) {
	t.Helper()
	waitFor(t, 15*time.Second, fmt.Sprintf("%d acked ops", n), func() bool { return fx.acked.Load() >= n })
}

// primary waits out an election gap and returns shard's primary.
func (fx *fixture) primary(t *testing.T, shard int) *Replica {
	t.Helper()
	var p *Replica
	waitFor(t, 5*time.Second, fmt.Sprintf("shard %d to have a primary", shard), func() bool {
		p = fx.d.group(shard).Primary()
		return p != nil
	})
	return p
}

// migrate starts the live migration of shard 0 and returns its source
// group; midFlight waits until it moves data, so a kill lands
// mid-transfer rather than before or after. Under a loaded race run a
// lease failover can depose the source first, which aborts the
// migration with a handover error: then the shard settles on the old
// group and the migration starts again, up to migrateTries times. Any
// other early end, success included, fails the row.
func (fx *fixture) migrate(t *testing.T, midFlight bool) *Group {
	t.Helper()
	const migrateTries = 3
	old := fx.d.group(0)
	for try := 1; ; try++ {
		var err error
		if fx.mig, err = fx.d.Migrate(0); err != nil {
			t.Fatal(err)
		}
		if !midFlight {
			return old
		}
		waitFor(t, 10*time.Second, "the migration to move data", func() bool {
			st := fx.mig.Status()
			return st.SnapshotBytes > 0 || st.Entries > 0 || fx.mig.finished()
		})
		if !fx.mig.finished() {
			return old
		}
		<-fx.mig.Done()
		err = fx.mig.Err()
		if err == nil || !strings.Contains(err.Error(), "changed hands") || try == migrateTries {
			t.Fatalf("migration finished before the kill could land (try %d): %v, %+v", try, err, fx.mig.Status())
		}
		t.Logf("migration try %d ended before the kill: %v; migrating again", try, err)
		waitFor(t, 5*time.Second, "the shard to settle on its old group", func() bool {
			fx.d.mu.Lock()
			busy := fx.d.migrating[0]
			fx.d.mu.Unlock()
			return !busy && old.Primary() != nil
		})
	}
}

// settleMigration waits out the migration — the shard moves to the
// destination on success, the source fails over if its primary died —
// and then for the load to go on.
func (fx *fixture) settleMigration(t *testing.T, old *Group) {
	t.Helper()
	<-fx.mig.Done()
	waitFor(t, 5*time.Second, "the shard to settle", func() bool {
		return (fx.mig.Err() == nil) == (fx.d.group(0) != old) && fx.d.group(0).Primary() != nil
	})
	fx.waitAcked(t, fx.acked.Load()+minAcked/2)
}

// scanPhase: one client interleaves PUT, DELETE and ScanPage. Writes are
// retried until acked, so the model is exact: every page must be exactly
// the model's range, and a full walk the whole model.
func (fx *fixture) scanPhase(t *testing.T) {
	rng, c := rand.New(rand.NewSource(fx.seed)), fx.caller(t)
	model := map[string]string{}
	until := func(o op) {
		for try := 0; ; try++ {
			o := o
			if _, ok := fx.h.do(c, &o); ok {
				fx.acked.Add(1)
				return
			}
			if try == 10 {
				t.Fatalf("%s of %q never acked", opNames[o.kind], o.key)
			}
		}
	}
	for i := 0; i < 600; i++ {
		k := fx.keys[rng.Intn(len(fx.keys))]
		switch x := rng.Intn(10); {
		case x < 4:
			v := fmt.Sprintf("c0-%d", i)
			until(op{kind: opPut, key: k, arg: v})
			model[k] = v
		case x < 6:
			until(op{kind: opDelete, key: k, effectOnly: true})
			delete(model, k)
		default:
			limit := 1 + rng.Intn(30)
			entries, cursor, err := fx.sc.ScanPage([]byte(k), limit)
			if err != nil {
				t.Fatal(err) // retries exhausted: the schedule is survivable by design
			}
			if err := scanErr(model, k, limit, entries, cursor); err != nil {
				t.Fatal(err)
			}
			fx.acked.Add(1)
		}
	}
	all, err := fx.sc.Scan(nil, len(model)+10)
	if err != nil {
		t.Fatal(err)
	}
	if err := walkErr(model, all); err != nil {
		t.Fatal(err)
	}
}

// readBack waits until every shard has a primary whose frontier its live
// replicas have reached, then reads every key once more, into the
// history, and returns what each read answered.
func (fx *fixture) readBack(t *testing.T) map[string]result {
	for s := 0; s < fx.shards; s++ {
		waitFor(t, 10*time.Second, fmt.Sprintf("shard %d to settle", s), func() bool {
			g := fx.d.group(s)
			p := g.Primary()
			for _, r := range g.Replicas {
				if p == nil || r.Alive() && r.LastApplied() < p.LastApplied() {
					return false
				}
			}
			return true
		})
	}
	c, kind := fx.caller(t), opGet
	if fx.gateway {
		kind = gwGet
	}
	got := map[string]result{}
	for _, k := range append(fx.keys, fx.ctrs...) {
		out, ok := fx.h.do(c, &op{client: actors, kind: kind, key: k})
		switch {
		case ok:
			got[k] = out
		case !fx.sched.lossy:
			t.Fatalf("read-back of %q failed with the faults off", k)
		}
	}
	return got
}

// sameReplicas: every live replica of each owning group holds the same
// bytes for every key, and the primary's are what the read-back saw.
func (fx *fixture) sameReplicas(t *testing.T, read map[string]result) {
	if fx.sched.lossy {
		return // a lost line is lost on its one replica only
	}
	ns := func(k string) []byte { return []byte(k) }
	if fx.gateway {
		tn, ok := fx.tenants.Lookup("contract")
		if !ok {
			t.Fatal("the contract tenant was never created")
		}
		ns = func(k string) []byte { return tn.Namespace([]byte(k)) }
	}
	for _, k := range append(fx.keys, fx.ctrs...) {
		key := ns(k)
		g := fx.d.group(kvdirect.ShardOf(key, fx.shards))
		v, found := g.Primary().Store().Get(key)
		want := result{found: found, val: string(v)}
		if item := kvdirect.DecodeGwItem(v); fx.gateway && found {
			want = result{found: true, val: string(item.Payload), flags: item.Flags, ver: item.Version}
		} else if fx.gateway {
			want = result{status: kvgw.StatusKeyNotFound}
		}
		if read[k] != want {
			t.Fatalf("%q: the read-back saw %+v, the primary holds %+v", k, read[k], want)
		}
		for _, r := range g.Replicas {
			if !r.Alive() {
				continue
			}
			if rv, rfound := r.Store().Get(key); rfound != found || string(rv) != string(v) {
				t.Fatalf("%q: replica %d holds %q (%v), the primary %q (%v)", k, r.ID(), rv, rfound, v, found)
			}
		}
	}
}
