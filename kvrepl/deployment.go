package kvrepl

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// Deployment is a serving topology as one value: shards × replicas, one
// Group per shard under one Coordinator. How many copies there are is
// membership, not a second code path: a "single store" is Deploy(1, 1),
// a group of one whose quorum is itself, and the paper's ten-NIC server
// (§5.2) is Deploy(10, 1). Network clients dial Routes; in-process
// front-ends (the memcache gateway) call DoTrace.
type Deployment struct {
	coord    *Coordinator
	cfg      kvdirect.Config
	opts     Options
	host     string
	replicas int
	sample   uint64

	mu        sync.Mutex
	groups    []*Group       // the serving group per shard; a finished migration swaps its shard's
	migrating []bool         // per shard: a Migrate has not yet retired its loser
	wg        sync.WaitGroup // migration finishers
}

// Deploy serves shards × replicas stores of cfg on addr's host: replica
// r of shard s on port + s*replicas + r (all ephemeral when the port is
// 0), replica 0 of each shard its first primary, every replica's server
// sampling one batch in traceSampleEvery for its trace ring (0 = off).
func Deploy(addr string, shards, replicas int, traceSampleEvery uint64, cfg kvdirect.Config, opts Options) (*Deployment, error) {
	host, portStr, err := net.SplitHostPort(addr)
	port, perr := strconv.Atoi(portStr)
	if err != nil || perr != nil || shards < 1 {
		return nil, fmt.Errorf("kvrepl: deploy %d shards on %q: want host:port and at least one shard", shards, addr)
	}
	d := &Deployment{
		coord: NewCoordinator(CoordOptions{}), cfg: cfg, opts: opts,
		host: host, replicas: replicas, sample: traceSampleEvery,
		migrating: make([]bool, shards),
	}
	for s := 0; s < shards; s++ {
		g, err := d.build(s, opts, port, s*replicas)
		if err == nil {
			d.groups = append(d.groups, g)
			err = d.coord.Register(s, g.Members(), 0)
		}
		if err != nil {
			_ = d.Close() // already failing; the construction error wins
			return nil, err
		}
	}
	return d, nil
}

// build makes one group the deployment's way: its store config, its
// host, its trace sampling period.
func (d *Deployment) build(shard int, opts Options, port, first int) (*Group, error) {
	g, err := newGroup(shard, d.replicas, d.cfg, opts, d.host, port, first)
	if err != nil {
		return nil, err
	}
	for _, r := range g.Replicas {
		r.Telemetry().Tracer().SetSampleEvery(d.sample)
	}
	return g, nil
}

// Coordinator returns the control plane (counters, Migrations, OnRoute).
func (d *Deployment) Coordinator() *Coordinator { return d.coord }

// group returns shard's current serving group.
func (d *Deployment) group(shard int) *Group {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.groups[shard]
}

// Routes returns the route table kvnet.DialReplicaShards takes.
func (d *Deployment) Routes() []kvnet.ShardAddrs {
	routes := make([]kvnet.ShardAddrs, len(d.groups))
	for s := range routes {
		routes[s] = d.group(s).ShardAddrs()
	}
	return routes
}

// DoTrace runs a batch in-process: split by kvdirect.ShardOf, each
// shard's sub-batch through its current primary's server, satisfying
// kvgw.Backend for every topology. Under a sampled tc (TraceID 0 starts
// a fresh trace) each shard's server span hangs directly under tc.Parent
// (in-process there is no client hop) in its replica's trace ring, and
// the span returned is the last shard's; the zero TraceContext is an
// untraced batch and returns a nil span.
//
// A NotPrimary answer (a replica rejects a batch whole, so nothing was
// applied) or an election gap re-resolves the shard's primary and
// retries under backoff until AckTimeout — what a kvnet.Client does
// with redirects, minus the sockets.
func (d *Deployment) DoTrace(ops []kvdirect.Op, tc wire.TraceContext) (out []kvdirect.Result, last *telemetry.Span, err error) {
	if tc.Sampled && tc.TraceID == 0 {
		tc.TraceID = telemetry.NewTraceID()
	}
	out, err = kvdirect.DoSharded(ops, len(d.groups), func(s int, sub []kvdirect.Op) ([]kvdirect.Result, error) {
		var backoff *kvnet.Backoff
		var deadline time.Time
		for attempt := 1; ; attempt++ {
			if r := d.group(s).Primary(); r != nil {
				res, span, err := r.clientSrv.DoTrace(sub, tc)
				last = span
				if err != nil || len(res) == 0 || !res[0].NotPrimary() {
					return res, err
				}
			}
			switch {
			case backoff == nil:
				backoff = kvnet.NewBackoff(time.Millisecond, 50*time.Millisecond, d.opts.Seed^int64(s))
				deadline = time.Now().Add(d.opts.withDefaults(d.replicas).AckTimeout)
			case time.Now().After(deadline):
				return nil, fmt.Errorf("kvrepl: shard %d has had no primary for its AckTimeout", s)
			}
			backoff.Sleep(attempt)
		}
	})
	return out, last, err
}

// TelemetrySnapshot merges every live replica's registry with the
// coordinator's: the deployment is one kvnet.SnapshotSource.
func (d *Deployment) TelemetrySnapshot() telemetry.Snapshot {
	merged := d.coord.TelemetrySnapshot()
	for s := range d.groups {
		for _, r := range d.group(s).Replicas {
			if r.Alive() {
				merged.Merge(r.TelemetrySnapshot())
			}
		}
	}
	return merged
}

// Migrate starts a live migration of shard onto a fresh group of the
// same size. The old group serves until the cutover; whichever group
// ends up without the shard — the fenced old one, or the destination of
// an aborted migration — is torn down.
func (d *Deployment) Migrate(shard int) (*Migration, error) {
	d.mu.Lock()
	if shard < 0 || shard >= len(d.groups) || d.migrating[shard] {
		d.mu.Unlock()
		return nil, fmt.Errorf("kvrepl: shard %d is not served here, or already has a migration in flight", shard)
	}
	d.migrating[shard] = true
	old := d.groups[shard]
	d.mu.Unlock()

	opts := d.opts
	opts.Seed = int64(shard)*1000 + 7
	var mig *Migration
	dest, err := d.build(shard, opts, 0, 0)
	if err == nil {
		mig, err = d.coord.MigrateShard(shard, dest.Target())
	}
	if err != nil {
		d.retire(shard, dest) // nil when it could not even be built
		return nil, err
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		if mig.Wait() != nil {
			d.retire(shard, dest)
			return
		}
		d.mu.Lock()
		d.groups[shard] = dest
		d.mu.Unlock()
		d.retire(shard, old)
	}()
	return mig, nil
}

// retire ends shard's Migrate by closing the group that lost it.
func (d *Deployment) retire(shard int, loser *Group) {
	if loser != nil {
		_ = loser.Close() // nothing serves from it; its ports are simply freed
	}
	d.mu.Lock()
	d.migrating[shard] = false
	d.mu.Unlock()
}

// Close stops the coordinator (aborting migrations in flight), waits for
// their destinations to be torn down and closes every serving group.
func (d *Deployment) Close() error {
	d.coord.Close()
	d.wg.Wait()
	var first error
	for s := range d.groups {
		if err := d.group(s).Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
