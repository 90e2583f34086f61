package kvrepl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"kvdirect/internal/telemetry"
	"kvdirect/kvnet"
)

// CoordOptions tunes the lease-based failure detector.
type CoordOptions struct {
	// LeaseTimeout is how long a primary may go without a heartbeat
	// before the coordinator elects a replacement (default 150 ms; keep
	// it a small multiple of the replicas' HeartbeatEvery).
	LeaseTimeout time.Duration
	// CheckEvery is the lease-scan period (default LeaseTimeout/3).
	CheckEvery time.Duration
}

func (o CoordOptions) withDefaults() CoordOptions {
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 150 * time.Millisecond
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = o.LeaseTimeout / 3
	}
	return o
}

// Coordinator is the in-process membership and lease service for a set
// of replica groups — the control plane, deliberately off the data
// path (TurboKV's split): it sees heartbeats and elects primaries but
// never touches a key. When a primary's lease lapses it bumps the
// group's epoch, promotes the most-up-to-date live backup (which, with
// quorum acks and dense applied prefixes, is guaranteed to hold every
// acknowledged write), and republishes routing through OnRoute.
type Coordinator struct {
	opts         CoordOptions
	tel          *telemetry.Registry
	counters     *telemetry.Counters
	migrationDur *telemetry.Histogram

	mu      sync.Mutex
	groups  map[int]*groupState
	onRoute func(shard int, addrs kvnet.ShardAddrs)
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

type groupState struct {
	members   map[int]*Replica
	primary   int
	epoch     uint64
	lastBeat  time.Time
	cutover   bool       // mid-cutover: the lease monitor must not interfere
	migration *Migration // latest migration for this shard (running or terminal)
}

// NewCoordinator starts the lease monitor.
func NewCoordinator(opts CoordOptions) *Coordinator {
	tel := telemetry.NewRegistry()
	c := &Coordinator{
		opts:         opts.withDefaults(),
		tel:          tel,
		counters:     tel.Counters(),
		migrationDur: tel.Histogram("repl.migration_duration_ns"),
		groups:       map[int]*groupState{},
		stop:         make(chan struct{}),
	}
	c.wg.Add(1)
	go c.monitor()
	return c
}

// Counters exposes the control-plane counters: repl.failovers,
// repl.failovers_aborted, repl.migrations, repl.migrations_completed
// and repl.migrations_aborted.
func (c *Coordinator) Counters() *telemetry.Counters { return c.counters }

// Telemetry exposes the coordinator's registry (counters plus the
// repl.migration_duration_ns histogram) for /metrics export.
func (c *Coordinator) Telemetry() *telemetry.Registry { return c.tel }

// TelemetrySnapshot makes the Coordinator a kvnet.SnapshotSource, so
// control-plane metrics merge into the same /metrics scrape as the
// replicas it manages.
func (c *Coordinator) TelemetrySnapshot() telemetry.Snapshot { return c.tel.Snapshot() }

// OnRoute installs the routing-republish callback, invoked (without the
// coordinator's lock) at registration and after every failover —
// typically kvnet.Client.UpdateShard. Replaces any previous
// callback and immediately replays current routes so a late subscriber
// starts consistent.
func (c *Coordinator) OnRoute(fn func(shard int, addrs kvnet.ShardAddrs)) {
	c.mu.Lock()
	c.onRoute = fn
	epochs := make(map[int]uint64, len(c.groups))
	for shard, g := range c.groups {
		epochs[shard] = g.epoch
	}
	c.mu.Unlock()
	for shard, epoch := range epochs {
		c.publish(shard, epoch)
	}
}

// Register adds a replica group under shard, promotes members[primary]
// for epoch 1 and publishes the initial route. Every member must have
// been built with NewReplica.
func (c *Coordinator) Register(shard int, members map[int]*Replica, primary int) error {
	peers, err := c.addGroup(shard, members, primary, 1)
	if err != nil {
		return err
	}
	members[primary].promote(1, peers)
	c.publish(shard, 1)
	return nil
}

// addGroup enters members as shard's group at epoch, led by primary,
// and returns the primary's peer addresses.
func (c *Coordinator) addGroup(shard int, members map[int]*Replica, primary int, epoch uint64) (map[int]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, dup := c.groups[shard]
	switch {
	case c.closed:
		return nil, errors.New("kvrepl: coordinator closed")
	case dup:
		return nil, fmt.Errorf("kvrepl: shard %d already registered", shard)
	case members[primary] == nil:
		return nil, fmt.Errorf("kvrepl: shard %d: primary %d is not a member", shard, primary)
	}
	g := &groupState{members: members, primary: primary, epoch: epoch, lastBeat: time.Now()}
	c.groups[shard] = g
	c.watchLocked(g)
	return peerAddrsLocked(g), nil
}

// heartbeat renews the primary's lease; beats from deposed members are
// ignored, so a partitioned old primary cannot keep the lease alive.
func (c *Coordinator) heartbeat(shard, id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if g, ok := c.groups[shard]; ok && g.primary == id {
		g.lastBeat = time.Now()
	}
}

// monitor scans leases and fails over expired ones.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.CheckEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.checkLeases()
		}
	}
}

func (c *Coordinator) checkLeases() {
	type promotion struct {
		shard int
		cand  *Replica
		epoch uint64
		peers map[int]string
	}
	var promos []promotion
	c.mu.Lock()
	now := time.Now()
	for shard, g := range c.groups {
		if g.cutover {
			// Mid-cutover the destination primary cannot heartbeat yet (it
			// is promoted only after the install proof); electing over the
			// swapped-in membership would crown an empty backup and lose
			// acked writes. The window is bounded: the migration either
			// finishes the cutover or rolls the group back.
			continue
		}
		if now.Sub(g.lastBeat) <= c.opts.LeaseTimeout {
			continue
		}
		// Lease expired: elect the live backup with the highest applied
		// frontier (ties to the lowest id, for determinism).
		candID, cand := mostAdvanced(g.members, g.primary)
		if cand == nil {
			// Nothing to promote; re-arm the lease and keep watching (the
			// old primary may come back, or a replica may be revived).
			c.counters.Add("repl.failovers_aborted", 1)
			g.lastBeat = now
			continue
		}
		g.epoch++
		g.primary = candID
		g.lastBeat = now // fresh lease for the new primary
		c.counters.Add("repl.failovers", 1)
		c.tel.Flight().Record(telemetry.EventFailover, int64(shard), g.epoch, uint64(candID))
		promos = append(promos, promotion{
			shard: shard,
			cand:  cand,
			epoch: g.epoch,
			peers: peerAddrsLocked(g),
		})
	}
	c.mu.Unlock()

	// Promote outside the lock: promotion takes the replica's lock and
	// spins up shipping loops.
	for _, p := range promos {
		p.cand.promote(p.epoch, p.peers)
		c.publish(p.shard, p.epoch)
	}
	if len(promos) > 0 {
		// A lease failover is exactly the anomaly the flight recorder
		// exists for: freeze the event ring into a black box the moment
		// the new primary is installed, so the scene is captured before
		// later traffic scrolls it away.
		c.tel.Flight().Dump("lease_failover")
	}
}

// MigrateShard starts a live migration of shard onto the target group.
// The returned Migration runs concurrently: the old group keeps serving
// until the epoch-fenced cutover, and Wait returns nil once the
// destination owns the shard. On failure the shard stays with (or rolls
// back to) the old group and the target members must be closed by the
// caller.
func (c *Coordinator) MigrateShard(shard int, target MigrationTarget) (*Migration, error) {
	dest := target.Members[target.Primary]
	if dest == nil {
		return nil, fmt.Errorf("kvrepl: migrate shard %d: target primary %d is not a member", shard, target.Primary)
	}
	for id, r := range target.Members {
		if r == nil || !r.Alive() {
			return nil, fmt.Errorf("kvrepl: migrate shard %d: target member %d is not alive", shard, id)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.groups[shard]
	switch {
	case c.closed:
		return nil, errors.New("kvrepl: coordinator closed")
	case !ok:
		return nil, fmt.Errorf("kvrepl: shard %d not registered", shard)
	case g.migration != nil && !g.migration.finished():
		return nil, fmt.Errorf("kvrepl: shard %d has a migration in flight", shard)
	}
	for _, cur := range g.members {
		for id, r := range target.Members {
			if cur == r {
				return nil, fmt.Errorf("kvrepl: migrate shard %d: target member %d already serves the shard", shard, id)
			}
		}
	}
	src := g.members[g.primary]
	if !src.Alive() {
		return nil, fmt.Errorf("kvrepl: shard %d has no live primary to migrate from", shard)
	}
	m := &Migration{
		c:        c,
		shard:    shard,
		target:   target,
		src:      src,
		dest:     dest,
		learner:  newPeerSync(src, target.Primary, dest.ReplAddr(), g.epoch),
		srcEpoch: g.epoch,
		entries0: src.migrationEntries.Load(),
		start:    time.Now(),
		done:     make(chan struct{}),
	}
	m.learner.mig = m
	g.migration = m
	c.counters.Add("repl.migrations", 1)
	c.wg.Add(1)
	go m.run()
	return m, nil
}

// Migrations returns the latest migration status per shard (running or
// terminal), sorted by shard.
func (c *Coordinator) Migrations() []MigrationStatus {
	c.mu.Lock()
	migs := make([]*Migration, 0, len(c.groups))
	for _, g := range c.groups {
		if g.migration != nil {
			migs = append(migs, g.migration)
		}
	}
	c.mu.Unlock()
	out := make([]MigrationStatus, 0, len(migs))
	for _, m := range migs {
		out = append(out, m.Status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// Adopt registers a shard whose group is already live — the successor
// path after a coordinator crash. Unlike Register it does not reset the
// epoch or promote anyone: it takes the current primary's epoch as the
// shard's (so fencing keeps working across the control-plane restart)
// and just resumes lease-watching and routing.
func (c *Coordinator) Adopt(shard int, members map[int]*Replica, primary int) error {
	lead := members[primary]
	if lead == nil || lead.Role() != RolePrimary {
		return fmt.Errorf("kvrepl: shard %d: member %d is not the live primary", shard, primary)
	}
	epoch := lead.Epoch()
	if _, err := c.addGroup(shard, members, primary, epoch); err != nil {
		return err
	}
	c.publish(shard, epoch)
	return nil
}

// Close stops the monitor and aborts in-flight migrations. Replicas
// are not closed — they belong to their groups.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, g := range c.groups {
		if g.migration != nil {
			g.migration.Abort()
		}
	}
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}

// watchLocked points every member's lease heartbeat at the group's
// entry; only the current primary's beats renew the lease.
func (c *Coordinator) watchLocked(g *groupState) {
	for id, m := range g.members {
		m.setBeat(func(shard, _ int) { c.heartbeat(shard, id) })
	}
}

// publish republishes shard's route through OnRoute, unless the shard
// has moved past epoch since the caller changed it.
func (c *Coordinator) publish(shard int, epoch uint64) {
	c.mu.Lock()
	fn, g := c.onRoute, c.groups[shard]
	if fn == nil || g == nil || g.epoch != epoch {
		c.mu.Unlock()
		return
	}
	addrs := routeLocked(g)
	c.mu.Unlock()
	fn(shard, addrs)
}

// mostAdvanced picks the live member other than skip with the highest
// applied frontier, ties to the lowest id (for determinism): the one
// that, with quorum acks and dense prefixes, holds every acked write.
func mostAdvanced(members map[int]*Replica, skip int) (int, *Replica) {
	candID, cand := -1, (*Replica)(nil)
	var candSeq uint64
	for id, m := range members {
		if id == skip || !m.Alive() {
			continue
		}
		seq := m.LastApplied()
		if cand == nil || seq > candSeq || (seq == candSeq && id < candID) {
			candID, cand, candSeq = id, m, seq
		}
	}
	return candID, cand
}

// peerAddrsLocked maps every member id to its replication address (the
// promoted replica skips itself).
func peerAddrsLocked(g *groupState) map[int]string {
	out := make(map[int]string, len(g.members))
	for id, m := range g.members {
		out[id] = m.ReplAddr()
	}
	return out
}

// routeLocked builds the client routing entry: primary first, then the
// other live members as fallbacks.
func routeLocked(g *groupState) kvnet.ShardAddrs {
	addrs := kvnet.ShardAddrs{Primary: g.members[g.primary].ClientAddr()}
	for id, m := range g.members {
		if id != g.primary && m.Alive() {
			addrs.Backups = append(addrs.Backups, m.ClientAddr())
		}
	}
	return addrs
}
