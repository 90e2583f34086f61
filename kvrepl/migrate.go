package kvrepl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect/internal/fault"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
)

// Live shard migration is replication plus a cutover. The destination
// primary joins the source primary as a learner — a peerSync whose acks
// never count toward quorum — which the ordinary loop snapshots, ships
// the tail (pinned behind its acks), redials and resyncs. Caught up, the
// learner fences the source under a bumped epoch, swaps the membership,
// drains the frozen tail, and proves with a ReplInstall that the
// destination holds the shard's final sequence before it is promoted and
// the route republished. The destination serves no write before that, so
// a failure before the fence leaves the old group untouched, and one
// after it rolls the shard back onto the old group under a fresh epoch:
// no acked write is lost either way.

// migrateRetryBudget bounds consecutive learner rounds that did not
// move the destination's frontier before a migration gives up (and, if
// already fenced, rolls back).
const migrateRetryBudget = 20

var errMigrationStopped = errors.New("migration stopped")

// MigrationState is where a migration is in its lifecycle.
type MigrationState int32

// Migration states.
const (
	MigrateSnapshot MigrationState = iota // streaming the base snapshot to the destination
	MigrateTail                           // shipping the live log tail while the old group serves
	MigrateCutover                        // membership swapped, source fenced: draining the frozen tail, installing
	MigrateDone                           // the destination group owns the shard
	MigrateAborted                        // the migration failed; the old group owns the shard
)

var migrationStates = [...]string{"snapshot", "tail", "cutover", "done", "aborted"}

func (s MigrationState) String() string {
	if s >= 0 && int(s) < len(migrationStates) {
		return migrationStates[s]
	}
	return fmt.Sprintf("MigrationState(%d)", int32(s))
}

// MigrationTarget names the destination replica group for MigrateShard.
// The members must be freshly built replicas, disjoint from the shard's
// current group; after an aborted migration they must be closed, not
// reused (their epoch state has been polluted by the attempt).
type MigrationTarget struct {
	// Members is the destination group keyed by replica id.
	Members map[int]*Replica
	// Primary is the id promoted at cutover (the source's learner).
	Primary int
}

// MigrationStatus is a point-in-time view of one migration, also the
// JSON shape the admin endpoint and kvdcli serve.
type MigrationStatus struct {
	Shard         int    `json:"shard"`
	State         string `json:"state"`
	Epoch         uint64 `json:"epoch"` // shard epoch when the migration started
	CutoverEpoch  uint64 `json:"cutover_epoch,omitempty"`
	SourceSeq     uint64 `json:"source_seq"` // source applied frontier
	DestSeq       uint64 `json:"dest_seq"`   // destination acked frontier
	SnapshotBytes uint64 `json:"snapshot_bytes"`
	Entries       uint64 `json:"entries"` // tail entries shipped
	Resyncs       uint64 `json:"resyncs"` // stream teardowns survived
	DurationNs    int64  `json:"duration_ns"`
	Error         string `json:"error,omitempty"`
}

// Migration is one live shard migration started by
// Coordinator.MigrateShard. It runs in its own goroutine; Wait blocks
// until it finishes and Status is safe to poll from anywhere.
type Migration struct {
	c        *Coordinator
	shard    int
	target   MigrationTarget
	src      *Replica  // source primary at migration start
	dest     *Replica  // destination primary
	learner  *peerSync // src's non-voting stream to dest, run on the migration's goroutine
	srcEpoch uint64    // shard epoch at start; cutover bumps to srcEpoch+1
	entries0 uint64    // src's repl.migration_entries at start
	start    time.Time
	old      groupState // the shard's entry at the fence, for rollback

	state     atomic.Int32
	cutEpoch  atomic.Uint64
	destSeq   atomic.Uint64
	snapBytes atomic.Uint64
	resyncs   atomic.Uint64
	durNs     atomic.Int64
	done      chan struct{}

	mu  sync.Mutex
	err error // the verdict, set once as the learner stops: nil on success
}

// State returns the migration's current lifecycle state.
func (m *Migration) State() MigrationState { return MigrationState(m.state.Load()) }

// Err returns the migration's terminal error: nil while it runs
// unaborted and after success.
func (m *Migration) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Wait blocks until the migration finishes, returning its terminal
// error (nil on success).
func (m *Migration) Wait() error {
	<-m.done
	return m.Err()
}

// Done exposes the completion channel for select loops.
func (m *Migration) Done() <-chan struct{} { return m.done }

func (m *Migration) finished() bool { return m.State() >= MigrateDone }

// Status snapshots the migration's progress.
func (m *Migration) Status() MigrationStatus {
	st := MigrationStatus{
		Shard:         m.shard,
		State:         m.State().String(),
		Epoch:         m.srcEpoch,
		CutoverEpoch:  m.cutEpoch.Load(),
		SourceSeq:     m.src.LastApplied(),
		DestSeq:       m.destSeq.Load(),
		SnapshotBytes: m.snapBytes.Load(),
		Entries:       m.src.migrationEntries.Load() - m.entries0,
		Resyncs:       m.resyncs.Load(),
		DurationNs:    m.durNs.Load(),
	}
	if st.DurationNs == 0 { // stored before the state turns terminal
		st.DurationNs = time.Since(m.start).Nanoseconds()
	}
	if err := m.Err(); err != nil {
		st.Error = err.Error()
	}
	return st
}

// Abort asks a running migration to stop at the next safe point. The
// shard stays with (or rolls back to) the old group.
func (m *Migration) Abort() { m.end(errMigrationStopped) }

// end records the migration's verdict, if it has none, and stops the learner.
func (m *Migration) end(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.learner.stopped() {
		m.err = err
		m.learner.stopPeer()
	}
}

// run drives the learner to a verdict, then releases the log pin,
// records metrics and rolls back a fenced failure.
func (m *Migration) run() {
	defer m.c.wg.Done()
	defer close(m.done)
	m.learner.run()
	m.durNs.Store(time.Since(m.start).Nanoseconds())
	m.src.log.Unpin()
	m.src.ints.Set("repl.migration_lag", 0)
	if m.Err() == nil {
		m.state.Store(int32(MigrateDone))
		m.c.counters.Add("repl.migrations_completed", 1)
		m.c.migrationDur.Observe(uint64(m.durNs.Load()))
		return
	}
	if m.state.Swap(int32(MigrateAborted)) == int32(MigrateCutover) {
		// The membership swap already happened; put the shard back on
		// the old group under a fresh term.
		m.rollback()
	}
	m.c.counters.Add("repl.migrations_aborted", 1)
}

// live, checked by the learner before every round and batch, returns
// why the migration cannot go on. After the fence the frozen log is all
// the learner needs from the source; before it, the source must lead.
func (m *Migration) live() error {
	switch {
	case m.learner.stopped():
		return errMigrationStopped
	case !m.dest.Alive():
		return errors.New("destination primary died")
	case m.cutEpoch.Load() != 0:
		return nil
	case !m.src.Alive():
		return errors.New("source primary died before cutover")
	case m.src.Role() != RolePrimary || m.src.Epoch() != m.srcEpoch:
		return fmt.Errorf("shard changed hands during migration (source no longer primary at epoch %d)", m.srcEpoch)
	}
	return nil
}

// acked folds a learner ack into the migration's frontier and pins the
// source log behind it. It is all a learner's ack does: it never reaches
// recordAck, so never a write's quorum (TestLearnerAckNeverMakesWriteDurable).
func (m *Migration) acked(seq uint64) {
	m.destSeq.Store(seq)
	m.src.log.Pin(seq + 1)
	m.src.ints.Set("repl.migration_lag", int64(m.src.LastApplied())-int64(seq))
}

// snapshotted books a snapshot of n bytes installed on the destination.
func (m *Migration) snapshotted(n int) {
	m.snapBytes.Add(uint64(n))
	m.state.CompareAndSwap(int32(MigrateSnapshot), int32(MigrateTail))
}

// caughtUp is the learner's step once it has shipped everything: the
// first time, it fences the source and keeps draining under the cutover
// epoch (a write that raced in before the fence drains next); once the
// fenced log is drained, it installs and the migration ends.
func (m *Migration) caughtUp(p *peerSync, s *stream, sent uint64) error {
	if m.cutEpoch.Load() == 0 {
		return m.fence(p)
	}
	if m.src.faults.Should(fault.ReplCutoverPartition) {
		return errors.New("injected cutover partition")
	}
	if err := s.send(wire.ReplMessage{Kind: wire.ReplInstall, Epoch: p.epoch, Seq: sent}); err != nil {
		return err
	}
	ack, err := s.recv()
	if err != nil {
		return err
	}
	if ack.Kind != wire.ReplAck || ack.Seq != sent {
		return fmt.Errorf("install not acked (got %s seq %d, want ACK %d)", ack.Kind, ack.Seq, sent)
	}
	err = m.install(sent)
	m.mu.Lock()
	m.err = err // even over a racing Abort: a write the new group acked stays there
	m.mu.Unlock()
	m.learner.stopPeer()
	return nil
}

// fence swaps the shard's membership to the destination group under a
// bumped epoch, then demotes the old primary: it stops acking writes,
// its voting peers and its heartbeat, and redirects clients to the
// destination. The learner p is not its peer and drains on under the
// new epoch. Until install (or rollback) the lease monitor leaves the
// shard alone: the destination primary cannot heartbeat unpromoted.
func (m *Migration) fence(p *peerSync) error {
	c := m.c
	c.mu.Lock()
	g, ok := c.groups[m.shard]
	if !ok || c.closed || g.epoch != m.srcEpoch || g.members[g.primary] != m.src {
		c.mu.Unlock()
		err := fmt.Errorf("shard %d changed hands during migration (epoch %d)", m.shard, m.srcEpoch)
		m.end(err)
		return err
	}
	m.old = *g
	cut := g.epoch + 1
	m.cutEpoch.Store(cut)
	g.members = make(map[int]*Replica, len(m.target.Members))
	for id, r := range m.target.Members {
		g.members[id] = r
	}
	g.primary, g.epoch, g.cutover = m.target.Primary, cut, true
	c.watchLocked(g)
	c.mu.Unlock()

	m.src.maybeDemote(cut, m.dest.ClientAddr())
	m.state.Store(int32(MigrateCutover))
	c.tel.Flight().Record(telemetry.EventMigrationCutover, int64(m.shard), cut, 0)
	p.epoch = cut
	return nil
}

// install promotes the destination primary on its proven frontier,
// republishes the route, and keeps the cutover shield up until the new
// group holds the frontier at quorum: until the new primary's loops seed
// its backups the shard lives on one copy. If that quorum never comes
// the migration rolls back onto the (still complete) old group; no write
// can have been acked on the new one, since a backup ack at any seq
// implies, by dense prefixes, the whole migrated prefix.
func (m *Migration) install(frontier uint64) error {
	cut := m.cutEpoch.Load()
	m.dest.promote(cut, peerAddrsLocked(&groupState{members: m.target.Members}))
	m.c.publish(m.shard, cut)
	if !m.dest.awaitQuorum(frontier, cut) {
		return fmt.Errorf("install at seq %d never reached quorum on the destination", frontier)
	}
	m.c.mu.Lock()
	if g, ok := m.c.groups[m.shard]; ok && g.epoch == cut {
		g.cutover = false
		g.lastBeat = time.Now()
	}
	m.c.mu.Unlock()
	return nil
}

// rollback undoes a committed cutover after the destination failed:
// the old group takes the shard back under a fresh term, led by its
// most advanced live member (the fenced old primary, unless it died
// too). Nothing was ever acked by the destination — it never served a
// client write — so the old group still holds every acknowledged write.
func (m *Migration) rollback() {
	c := m.c
	cut := m.cutEpoch.Load()
	c.mu.Lock()
	g, ok := c.groups[m.shard]
	if !ok || !g.cutover || g.epoch != cut {
		// Someone else already moved the shard on; leave it be.
		c.mu.Unlock()
		return
	}
	*g = m.old
	g.epoch, g.lastBeat = cut+1, time.Now()
	c.watchLocked(g)
	candID, cand := mostAdvanced(g.members, -1)
	if cand == nil {
		// No old member survived either; the lease monitor keeps
		// watching for a revived replica.
		c.mu.Unlock()
		return
	}
	g.primary = candID
	peers := peerAddrsLocked(g)
	c.mu.Unlock()

	cand.promote(cut+1, peers)
	// If the install had already promoted the destination primary (the
	// rollback fired because its group never became quorum-durable),
	// fence it under the old group's new term so stragglers bounce back.
	m.dest.maybeDemote(cut+1, cand.ClientAddr())
	c.publish(m.shard, cut+1)
}
