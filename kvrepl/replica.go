package kvrepl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// Replica is one member of a replica group: a Store, a client-facing
// kvnet server (with the replica interposed as the Backend), and a
// replication endpoint that receives the primary's log stream when the
// replica is a backup. Exactly one replica per group holds RolePrimary
// at any epoch; the Coordinator moves the role on failure.
type Replica struct {
	shard     int
	id        int
	groupSize int
	opts      Options
	cfg       kvdirect.Config

	log        *repllog.Log
	tel        *telemetry.Registry
	counters   *telemetry.Counters
	gauges     *telemetry.Gauges
	ints       *telemetry.IntGauges
	quorumWait *telemetry.Histogram
	inflight   *telemetry.Histogram // repl.inflight_batches: batches in quorum wait, counting the one observed
	apply      kvnet.Applier        // the apply runs' instruments; the replica decides only when a run applies
	faults     *fault.Injector

	// Handles for the metrics bumped per shipped or applied entry and
	// per ack, resolved once so those paths do one atomic each.
	entriesShipped, migrationEntries, entriesDropped *atomic.Uint64
	shipFlushes, entriesApplied, acks                *atomic.Uint64
	lag, lagMax                                      *atomic.Int64

	clientSrv  *kvnet.Server
	replEdge   *kvnet.Edge // serves inbound replication streams (handleReplConn)
	clientAddr string
	replAddr   string

	mu          sync.Mutex
	store       *kvdirect.Store // swapped on snapshot install
	role        Role
	epoch       uint64
	lastApplied uint64
	abandoned   uint64 // primary: highest seq whose quorum wait gave up (lastApplied at promotion)
	waiting     int    // primary: batches parked in their quorum wait
	heldTo      uint64 // primary: highest log tail a held reply waits for; a write at or below it is not held itself
	primaryHint string // current primary's client address, for redirects
	closed      bool
	ackCond     *sync.Cond        // on mu: broadcast when the settled frontier advances or terms change, and on every lease tick
	peerAcked   []peerAck         // primary: highest seq each backup applied
	led         uint64            // the epoch peerAcked's acks belong to: the last one this replica led
	peers       map[int]*peerSync // primary: live shipping loops
	hbStop      chan struct{}     // stops the current heartbeat loop
	decoded     [1]wire.Request   // backup: applyEntry's decode scratch (the request aliases the logged packet)
	ticks       atomic.Uint64     // lease ticks so far: a held reply is released by the next one

	// beat is the coordinator heartbeat sink, deliberately outside mu:
	// the lease must keep renewing while the data path holds the replica
	// lock for long stretches (snapshot dumps), or a healthy primary
	// would be failed over mid-catch-up.
	beat atomic.Value // of beatFunc

	wg sync.WaitGroup
}

// NewReplica starts one replica: its store, its client server on
// clientAddr and its replication listener on replAddr (use
// "127.0.0.1:0" to pick free ports). The replica starts as a backup;
// the Coordinator promotes the group's first primary.
func NewReplica(shard, id, groupSize int, cfg kvdirect.Config, clientAddr, replAddr string, opts Options) (*Replica, error) {
	opts = opts.withDefaults(groupSize)
	store, err := kvdirect.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("kvrepl: replica %d/%d: %w", shard, id, err)
	}
	// One registry spans the whole replica stack — replication counters
	// and lag gauges, the client server's wire counters, and the store's
	// core/pcie/dram gauges all land in the same namespace, so a single
	// scrape (OpTelemetry or /metrics) sees the replica end to end.
	tel := telemetry.NewRegistry()
	store.SetTelemetry(tel)
	r := &Replica{
		shard:      shard,
		id:         id,
		groupSize:  groupSize,
		opts:       opts,
		cfg:        store.Config(),
		store:      store,
		log:        repllog.New(opts.LogWindow),
		tel:        tel,
		counters:   tel.Counters(),
		gauges:     tel.Gauges(),
		ints:       tel.IntGauges(),
		quorumWait: tel.Histogram("repl.quorum_wait_ns"),
		inflight:   tel.Histogram("repl.inflight_batches"),
		apply:      kvnet.NewApplier(tel),
		faults:     opts.Faults,

		entriesShipped:   tel.Counters().Handle("repl.entries_shipped"),
		migrationEntries: tel.Counters().Handle("repl.migration_entries"),
		entriesDropped:   tel.Counters().Handle("repl.entries_dropped"),
		shipFlushes:      tel.Counters().Handle("repl.ship_flushes"),
		entriesApplied:   tel.Counters().Handle("repl.entries_applied"),
		acks:             tel.Counters().Handle("repl.acks"),
		lag:              tel.IntGauges().Handle("repl.lag"),
		lagMax:           tel.IntGauges().Handle("repl.lag_max"),
	}
	r.ackCond = sync.NewCond(&r.mu)
	r.replEdge, err = kvnet.Listen(replAddr, r.handleReplConn, tel.Counters().Handle("server.panics"))
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("kvrepl: replica %d/%d repl listener: %w", shard, id, err)
	}
	r.clientSrv, err = kvnet.ServeBackend(r, clientAddr, kvnet.ServerOptions{Telemetry: tel, Faults: opts.Faults})
	if err != nil {
		_ = r.replEdge.Close() // never dialed; the serve error is reported
		store.Close()
		return nil, fmt.Errorf("kvrepl: replica %d/%d client server: %w", shard, id, err)
	}
	r.clientAddr = r.clientSrv.Addr()
	r.replAddr = r.replEdge.Addr()
	return r, nil
}

// ClientAddr returns the address clients dial.
func (r *Replica) ClientAddr() string { return r.clientAddr }

// ReplAddr returns the address the primary's log stream dials.
func (r *Replica) ReplAddr() string { return r.replAddr }

// ID returns the replica's id within its group.
func (r *Replica) ID() int { return r.id }

// Role returns the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role
}

// Epoch returns the highest election epoch the replica has seen.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// LastApplied returns the replica's applied log frontier.
func (r *Replica) LastApplied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastApplied
}

// Alive reports whether the replica has not been closed.
func (r *Replica) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.closed
}

// Counters exposes the replication counters: repl.entries_shipped,
// repl.ship_flushes (the flushes that carried them), repl.entries_applied,
// repl.entries_dropped, repl.acks, repl.gap_resyncs, repl.snapshots_sent,
// repl.snapshots_installed, repl.snapshot_fallbacks, repl.catchup_bytes, repl.promotions,
// repl.demotions, repl.not_primary_rejects, repl.epoch_rejects,
// repl.quorum_failures, repl.installs, repl.migration_entries. (A
// panicking apply is counted where every backend's is: server.panics.)
func (r *Replica) Counters() *telemetry.Counters { return r.counters }

// Telemetry returns the registry shared by the replica, its store and
// its client-facing server. Replication lag (repl.lag, repl.lag_max) is
// a signed gauge beside repl.epoch and repl.applied_seq: it is
// transiently negative when a backup applies past a heartbeat's
// frontier, which an unsigned gauge would wrap to ~2^64.
func (r *Replica) Telemetry() *telemetry.Registry { return r.tel }

// TelemetrySnapshot snapshots the replica's full registry — store,
// server and replication — refreshed under the replica lock, making a
// Replica a kvnet.SnapshotSource for /metrics export.
func (r *Replica) TelemetrySnapshot() telemetry.Snapshot {
	return r.clientSrv.TelemetrySnapshot()
}

// Store exposes the replica's store for inspection. The store is not
// safe for concurrent use — only read it once the group is quiesced
// (tests, post-failover verification).
func (r *Replica) Store() *kvdirect.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// beatFunc wraps the heartbeat sink for atomic.Value (which needs a
// consistent concrete type and cannot hold a bare nil func).
type beatFunc struct{ fn func(shard, id int) }

// setBeat installs the coordinator's heartbeat sink.
func (r *Replica) setBeat(fn func(shard, id int)) {
	r.beat.Store(beatFunc{fn})
}

// Close stops the replica: client server, replication listener, peer
// streams, heartbeats. Closing the current primary is exactly how a
// chaos test kills it — nothing is flushed or handed over.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.stopPeersLocked()
	r.stopHeartbeatLocked()
	r.wakeLocked()
	r.mu.Unlock()

	err := r.replEdge.Close()
	if serr := r.clientSrv.Close(); err == nil {
		err = serr
	}
	r.wg.Wait()
	r.mu.Lock()
	r.store.Close()
	r.mu.Unlock()
	return err
}

// --- role transitions ---

// promote makes the replica the primary for epoch, shipping to peers
// (id → replication address). Called by the Coordinator; a stale epoch
// is ignored.
func (r *Replica) promote(epoch uint64, peers map[int]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || epoch < r.epoch || (epoch == r.epoch && r.role == RolePrimary) {
		return
	}
	r.epoch = epoch
	r.role = RolePrimary
	r.led = epoch
	r.abandoned = r.lastApplied // serve what it holds without waiting for a first ack
	r.primaryHint = r.clientAddr
	r.stopPeersLocked()
	r.peers = map[int]*peerSync{}
	r.peerAcked = r.peerAcked[:0]
	for id, addr := range peers {
		if id != r.id {
			r.startPeerLocked(id, addr)
		}
	}
	r.startHeartbeatLocked()
	r.wakeLocked()
	r.counters.Add("repl.promotions", 1)
}

// demoteLocked steps down to backup under a higher epoch, fencing the
// old term: peer streams stop, quorum waiters fail, heartbeats cease.
func (r *Replica) demoteLocked(epoch uint64, hint string) {
	r.epoch = epoch
	if r.role == RolePrimary {
		r.counters.Add("repl.demotions", 1)
	}
	r.role = RoleBackup
	if hint != "" {
		r.primaryHint = hint
	}
	r.stopPeersLocked()
	r.stopHeartbeatLocked()
	r.wakeLocked()
}

// maybeDemote demotes if epoch is newer than the current term (used
// when a peer rejects our stream with a higher epoch).
func (r *Replica) maybeDemote(epoch uint64, hint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch > r.epoch {
		r.demoteLocked(epoch, hint)
	}
}

func (r *Replica) stopPeersLocked() {
	for _, p := range r.peers {
		p.stopPeer()
	}
	r.peers = nil
}

// startPeerLocked starts a voting shipping loop to peer id at the
// current term, replacing any loop it already has.
func (r *Replica) startPeerLocked(id int, addr string) {
	if old := r.peers[id]; old != nil {
		old.stopPeer()
	}
	p := newPeerSync(r, id, addr, r.epoch)
	r.peers[id] = p
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		p.run()
	}()
}

// addPeer starts a shipping loop to a newly added group member. A no-op
// unless the replica currently leads — a later promotion rebuilds the
// peer set from the coordinator's membership.
func (r *Replica) addPeer(peerID int, addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed && r.role == RolePrimary {
		r.startPeerLocked(peerID, addr)
	}
}

// removePeer stops shipping to a departing member and drops its ack
// from quorum accounting so a removed replica's stale frontier can
// neither satisfy nor wedge future quorums. A seq that was at quorum
// stays settled, so abandoned first rises to the highest such seq:
// reads parked on it must not wait for a write that may never come.
func (r *Replica) removePeer(peerID int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p := r.peers[peerID]; p != nil {
		p.stopPeer()
		delete(r.peers, peerID)
	}
	r.abandoned = max(r.abandoned, r.settledLocked())
	for i, a := range r.peerAcked {
		if a.id == peerID {
			r.peerAcked = append(r.peerAcked[:i], r.peerAcked[i+1:]...)
			break
		}
	}
	r.wakeLocked()
}

// adoptInstall commits a migration on the destination primary: the
// learner has proven the shard's final frontier matches ours, so we
// adopt the fenced cutover epoch and wait for the coordinator's
// promotion. A frontier mismatch refuses the install — the learner
// must keep draining.
func (r *Replica) adoptInstall(epoch, seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.lastApplied != seq || epoch < r.epoch {
		return false
	}
	r.epoch = epoch
	r.counters.Add("repl.installs", 1)
	return true
}

func (r *Replica) startHeartbeatLocked() {
	r.stopHeartbeatLocked()
	stop := make(chan struct{})
	r.hbStop = stop
	r.wg.Add(1)
	go r.heartbeatLoop(stop)
}

func (r *Replica) stopHeartbeatLocked() {
	if r.hbStop != nil {
		close(r.hbStop)
		r.hbStop = nil
	}
}

// heartbeatLoop renews the primary's lease with the coordinator. A
// ReplPartitionPrimary fault eats the beat — the lease expires and the
// coordinator elects a new primary even though this one still runs,
// which is exactly the partition scenario epoch fencing must contain.
func (r *Replica) heartbeatLoop(stop chan struct{}) {
	defer r.wg.Done()
	t := time.NewTicker(r.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// The tick is also the quorum waiters' clock: each re-checks
			// its AckTimeout, and a held reply is released. Unlocked, so a
			// wake-up can be missed — until the next tick.
			r.ticks.Add(1)
			r.ackCond.Broadcast()
			if r.faults.Should(fault.ReplPartitionPrimary) {
				continue
			}
			if b, ok := r.beat.Load().(beatFunc); ok && b.fn != nil {
				b.fn(r.shard, r.id)
			}
		}
	}
}

// wakeLocked signals quorum waiters that the replica's state advanced
// (the settled frontier, promotions, demotions, close).
func (r *Replica) wakeLocked() { r.ackCond.Broadcast() }

// --- the primary's data path (kvnet.Backend) ---

// ApplyBatch implements kvnet.Backend: the whole replication protocol
// interposed on the standard wire path. Mutations are sequenced and
// logged, then the batch applies as one run (a mutation that cannot be
// logged fails unapplied, splitting the run), shipped, and held until
// its last seq is at quorum — a wait that releases the lock, so batches
// overlap it. A batch that wrote nothing waits until what it read is
// settled. A non-nil span is charged for the store's access counts and
// staged for the quorum wait. The answers go in out[:0] (see
// kvnet.Backend).
func (r *Replica) ApplyBatch(reqs []wire.Request, out []wire.Response, span *telemetry.Span) []wire.Response {
	r.mu.Lock()
	defer r.mu.Unlock()
	out = wire.ResponsesFor(out, len(reqs))
	if r.role != RolePrimary || r.closed {
		r.rejectLocked(out)
		return out
	}
	epoch := r.epoch
	start := time.Now()
	seq, from := r.lastApplied, 0
	for i, req := range reqs {
		if !req.Code.Mutates() {
			continue
		}
		e, err := repllog.NewEntry(seq+1, epoch, req)
		if traceID, spanID := span.Trace(); err == nil && traceID != 0 {
			// Stamp the trace context onto the log entry's own packet so
			// it rides the replication stream (and any migration replay)
			// for free: each backup's apply and the primary's per-entry
			// ship hop stitch themselves to the originating write's trace.
			if pkt, merr := wire.MarkTraceContext(e.Packet, wire.TraceContext{
				TraceID: traceID, Parent: spanID, Sampled: true,
			}); merr == nil {
				e.Packet = pkt
			}
		}
		if err == nil {
			err = r.log.Append(e) // a gap (unreachable while mu serializes appends) fails the write
		}
		if err != nil {
			out[i] = wire.Response{Status: wire.StatusError, Value: []byte(err.Error())}
			r.apply.Panicked(r.store.ApplyRun(reqs[from:i], out[from:i], span))
			from = i + 1
			continue
		}
		seq++
	}
	r.apply.Panicked(r.store.ApplyRun(reqs[from:], out[from:], span))
	wrote := seq > r.lastApplied
	r.lastApplied = seq
	for i, req := range reqs {
		if req.Code == wire.OpStats && out[i].Status == wire.StatusOK {
			// The status registers grow a replication section.
			out[i].Value = []byte(string(out[i].Value) +
				fmt.Sprintf("repl_role=%s\nrepl_epoch=%d\nrepl_seq=%d\n",
					r.role, r.epoch, r.lastApplied) +
				r.counters.String() + r.gauges.String() + r.ints.String())
		}
	}
	// The run's service time stops at the local apply: the quorum wait is
	// repl.quorum_wait's, and starts at the same clock reading.
	waitStart := r.apply.Served(start, len(reqs), span)
	if !wrote { // a read must never return a write that is only on the primary
		if !r.waitSettledLocked(r.lastApplied, epoch) { //lint:allow lockorder -- it parks in sync.Cond.Wait, which releases mu while blocked and re-locks before returning
			r.rejectLocked(out)
		}
		return out
	}
	// Wake shipping loops outside their own locks; they pull the new tail
	// from the log.
	for _, p := range r.peers {
		p.notify()
	}
	r.waiting++
	r.inflight.Observe(uint64(r.waiting))
	st := span.StartStage("repl.quorum_wait")
	quorum := r.waitQuorumLocked(seq, epoch) //lint:allow lockorder -- it parks in sync.Cond.Wait, which releases mu while blocked and re-locks before returning
	st.End()
	r.waiting--
	r.quorumWait.Observe(uint64(time.Since(waitStart).Nanoseconds()))
	if !quorum {
		r.counters.Add("repl.quorum_failures", 1)
		r.abandoned = max(r.abandoned, seq)
		r.wakeLocked() // reads parked on this write may answer now
		msg := []byte("replication quorum not reached (write fate unknown)")
		for i, req := range reqs {
			if req.Code.Mutates() {
				out[i] = wire.Response{Status: wire.StatusError, Value: msg}
			}
		}
	}
	return out
}

// rejectLocked answers every op in out with a redirect to the current
// primary.
func (r *Replica) rejectLocked(out []wire.Response) {
	hint := []byte(r.primaryHint)
	for i := range out {
		out[i] = wire.Response{Status: wire.StatusNotPrimary, Value: hint}
	}
	r.counters.Add("repl.not_primary_rejects", uint64(len(out)))
	r.tel.Flight().Record(telemetry.EventNotPrimary, int64(r.shard), r.epoch, uint64(len(out)))
}

// PublishTelemetry implements kvnet.Backend: refreshes the store's
// derived gauges plus the replica's role frontier into the shared
// registry before a snapshot is taken.
func (r *Replica) PublishTelemetry() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.store.PublishTelemetry()
	r.ints.Set("repl.epoch", int64(r.epoch))
	r.ints.Set("repl.applied_seq", int64(r.lastApplied))
}

// peerAck is one backup's applied frontier as its acks report it.
type peerAck struct {
	id  int
	seq uint64
}

// replicasAtLocked counts the replicas, the primary included, that have
// applied seq.
func (r *Replica) replicasAtLocked(seq uint64) int {
	n := 0
	if r.lastApplied >= seq {
		n++
	}
	for _, a := range r.peerAcked {
		if a.seq >= seq {
			n++
		}
	}
	return n
}

// settledLocked returns the highest seq at quorum: the Quorum-th highest
// frontier among the primary's own and its backups' acks (0 if fewer),
// found without sorting — a group has a handful of members.
func (r *Replica) settledLocked() uint64 {
	var settled uint64
	if r.replicasAtLocked(r.lastApplied) >= r.opts.Quorum {
		settled = r.lastApplied
	}
	for _, a := range r.peerAcked {
		if a.seq > settled && r.replicasAtLocked(a.seq) >= r.opts.Quorum {
			settled = a.seq
		}
	}
	return settled
}

// waitQuorumLocked blocks (the condition variable releases the lock
// while parked) until seq reaches quorum in this epoch, the term
// changes, or AckTimeout — noticed on the primary's next lease tick, so
// honoured to within HeartbeatEvery, at no per-write timer. It reports
// whether seq reached quorum.
//
// A seq at quorum is committed and answers true, but not always at once:
// if other writers appended behind it while it was in flight, the reply
// is held until the log tail it sees then is at quorum too — unless an
// earlier held reply already waits for this seq, in which case the ack
// that settles it releases both. Writers one ack settles are released
// together, so their next requests reach the primary in the same
// scheduler round and share the next flush (DESIGN.md "Group commit").
// The hold ends at the ack that settles the tail, at the end of the term,
// at Close, or at the next lease tick.
func (r *Replica) waitQuorumLocked(seq, epoch uint64) bool {
	deadline := time.Now().Add(r.opts.AckTimeout)
	for {
		// The acks are the term's own until the replica leads again, so a
		// seq they put at quorum is committed even if the term ended, or
		// Close came, before this waiter woke.
		if r.led == epoch && r.replicasAtLocked(seq) >= r.opts.Quorum {
			break
		}
		if r.closed || r.epoch != epoch || r.role != RolePrimary || !time.Now().Before(deadline) {
			return false
		}
		r.ackCond.Wait()
	}
	tail, tick := r.lastApplied, r.ticks.Load()
	if seq <= r.heldTo || r.replicasAtLocked(tail) >= r.opts.Quorum {
		return true
	}
	r.heldTo = tail
	for r.replicasAtLocked(tail) < r.opts.Quorum && !r.closed &&
		r.epoch == epoch && r.role == RolePrimary && r.ticks.Load() == tick {
		r.ackCond.Wait()
	}
	return true
}

// awaitQuorum blocks, as a write's quorum wait does, until seq is at
// quorum in epoch; a migration's install waits here on the new primary.
func (r *Replica) awaitQuorum(seq, epoch uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.waitQuorumLocked(seq, epoch) //lint:allow lockorder -- it parks in sync.Cond.Wait, which releases mu while blocked and re-locks before returning
}

// waitSettledLocked blocks like waitQuorumLocked until seq is at quorum
// or at or below abandoned, and reports false if the term ends first. No
// deadline: a seq short of both has a writer in waitQuorumLocked that
// settles it within AckTimeout.
func (r *Replica) waitSettledLocked(seq, epoch uint64) bool {
	for {
		if r.closed || r.epoch != epoch || r.role != RolePrimary {
			return false
		}
		if seq <= r.abandoned || r.replicasAtLocked(seq) >= r.opts.Quorum {
			return true
		}
		r.ackCond.Wait()
	}
}

// recordAck folds a backup's applied frontier into the quorum state and
// refreshes the lag gauges. Stale-term acks are ignored.
func (r *Replica) recordAck(epoch uint64, peerID int, seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch != epoch || r.role != RolePrimary {
		return
	}
	i := 0
	for i < len(r.peerAcked) && r.peerAcked[i].id != peerID {
		i++
	}
	if i == len(r.peerAcked) && seq > 0 {
		r.peerAcked = append(r.peerAcked, peerAck{id: peerID})
	}
	if i < len(r.peerAcked) && seq > r.peerAcked[i].seq {
		settled := r.settledLocked()
		r.peerAcked[i].seq = seq
		r.acks.Add(1)
		// Every waiter waits on the settled frontier (or on a term change
		// or a lease tick, which wake it themselves): an ack that does not
		// move the frontier, like the slower backup's at quorum 2 of 3,
		// would wake them all for nothing.
		if r.settledLocked() > settled {
			r.wakeLocked()
		}
	}
	minAck := r.lastApplied
	for _, a := range r.peerAcked {
		if a.seq < minAck {
			minAck = a.seq
		}
	}
	// Signed gauge: here the delta cannot go negative (minAck never
	// exceeds lastApplied), but the backup-side writer in stream.go can
	// observe its own frontier past a stale heartbeat's, and both sites
	// must feed the same gauge without wrapping.
	lag := int64(r.lastApplied) - int64(minAck)
	r.lag.Store(lag)
	telemetry.StoreMax(r.lagMax, lag)
}
