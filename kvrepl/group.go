package kvrepl

import (
	"fmt"
	"net"
	"strconv"

	"kvdirect"
	"kvdirect/kvnet"
)

// Group is one shard's replica set, built by StartGroup.
type Group struct {
	Shard    int
	Replicas []*Replica
}

// newGroup is the one group constructor: n replicas for shard on host.
// first is the group's offset among its deployment's replicas: replica i
// is the deployment's replica first+i, which sets its store seed and —
// unless port is 0, which makes every listener ephemeral — its client
// port, port+first+i. Replication listeners are always ephemeral.
func newGroup(shard, n int, cfg kvdirect.Config, opts Options, host string, port, first int) (*Group, error) {
	if n < 1 {
		return nil, fmt.Errorf("kvrepl: group needs at least one replica, got %d", n)
	}
	g := &Group{Shard: shard, Replicas: make([]*Replica, 0, n)}
	replAddr := net.JoinHostPort(host, "0")
	for i := 0; i < n; i++ {
		rcfg := cfg
		rcfg.Seed = cfg.Seed + uint64(first+i)*0x9E3779B97F4A7C15
		clientAddr := replAddr
		if port != 0 {
			clientAddr = net.JoinHostPort(host, strconv.Itoa(port+first+i))
		}
		r, err := NewReplica(shard, i, n, rcfg, clientAddr, replAddr, opts)
		if err != nil {
			_ = g.Close() // already failing; the construction error wins
			return nil, fmt.Errorf("kvrepl: shard %d replica %d: %w", shard, i, err)
		}
		g.Replicas = append(g.Replicas, r)
	}
	return g, nil
}

// Members returns the group keyed by replica id, the shape Register,
// Adopt and MigrationTarget want.
func (g *Group) Members() map[int]*Replica {
	members := make(map[int]*Replica, len(g.Replicas))
	for _, r := range g.Replicas {
		members[r.ID()] = r
	}
	return members
}

// Target wraps the group as a migration destination led by its first
// replica.
func (g *Group) Target() MigrationTarget {
	return MigrationTarget{Members: g.Members(), Primary: g.Replicas[0].ID()}
}

// StartGroup builds n replicas for shard on loopback, registers them
// with coord (replica 0 is the first primary) and returns the group.
func StartGroup(coord *Coordinator, shard, n int, cfg kvdirect.Config, opts Options) (*Group, error) {
	g, err := newGroup(shard, n, cfg, opts, "127.0.0.1", 0, 0)
	if err != nil {
		return nil, err
	}
	if err := coord.Register(shard, g.Members(), 0); err != nil {
		_ = g.Close() // already failing; the registration error wins
		return nil, err
	}
	return g, nil
}

// Primary returns the current primary, or nil during an election gap.
func (g *Group) Primary() *Replica {
	for _, r := range g.Replicas {
		if r.Alive() && r.Role() == RolePrimary {
			return r
		}
	}
	return nil
}

// ShardAddrs returns the routing entry for a kvnet.Client:
// believed primary first, live backups after.
func (g *Group) ShardAddrs() kvnet.ShardAddrs {
	var out kvnet.ShardAddrs
	for _, r := range g.Replicas {
		if !r.Alive() {
			continue
		}
		if r.Role() == RolePrimary && out.Primary == "" {
			out.Primary = r.ClientAddr()
		} else {
			out.Backups = append(out.Backups, r.ClientAddr())
		}
	}
	if out.Primary == "" && len(out.Backups) > 0 {
		out.Primary, out.Backups = out.Backups[0], out.Backups[1:]
	}
	return out
}

// Close shuts every replica down (idempotent; dead replicas are fine).
func (g *Group) Close() error {
	var first error
	for _, r := range g.Replicas {
		if r == nil {
			continue
		}
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
