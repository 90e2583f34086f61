package kvgw

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kvdirect/internal/telemetry"
)

// Quota bounds one tenant's footprint and rate. Zero fields are
// unlimited.
type Quota struct {
	// MaxKeys caps the tenant's live key count. The cap is enforced
	// pessimistically on operations that always create (ADD, counter
	// vivify) and post-hoc on overwriting stores — a SET at the limit
	// that turns out to create pushes usage over by one and every
	// subsequent create is refused.
	MaxKeys int64 `json:"max_keys,omitempty"`
	// MaxBytes caps the tenant's stored payload bytes, enforced
	// pessimistically at admission (as if every store were pure growth)
	// and trued up from the server's authoritative old-length reply.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// OpsPerSec refills the tenant's token bucket; each admitted
	// operation spends one token.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// Burst is the bucket depth (defaults to OpsPerSec when zero).
	Burst float64 `json:"burst,omitempty"`
}

// TenantConfig is one tenant's declaration in a tenants.json file.
type TenantConfig struct {
	Name string `json:"name"`
	// Secret is the SASL PLAIN password; empty accepts any password
	// (the tenant name alone selects the namespace).
	Secret string `json:"secret,omitempty"`
	Quota  Quota  `json:"quota"`
}

// RegistryConfig is the tenants.json schema.
type RegistryConfig struct {
	Tenants []TenantConfig `json:"tenants"`
	// AutoCreate admits unknown tenant names at auth time, creating them
	// with DefaultQuota — the fleet mode, where thousands of tenants
	// exist only as prefixes and quota rows.
	AutoCreate bool `json:"auto_create,omitempty"`
	// DefaultQuota applies to auto-created tenants.
	DefaultQuota Quota `json:"default_quota"`
}

// Tenant is one live tenant: its namespace prefix, quota state, usage
// accounting, and telemetry registry.
type Tenant struct {
	name   string
	prefix []byte
	secret string
	quota  Quota

	keys  atomic.Int64 // live keys (authoritative deltas from PutVer replies)
	bytes atomic.Int64 // stored payload bytes

	mu     sync.Mutex // guards the token bucket
	tokens float64
	last   time.Time

	tel *telemetry.Registry

	// Stable metric handles (see telemetry.Registry.Histogram and
	// telemetry.Counters.Handle): resolved once, bumped per op.
	readLat    *telemetry.Histogram
	writeLat   *telemetry.Histogram
	counterLat *telemetry.Histogram

	ops, hits, misses, rejections *atomic.Uint64
}

// newTenant builds a tenant with a full token bucket.
func newTenant(cfg TenantConfig, now time.Time) *Tenant {
	t := &Tenant{
		name: cfg.Name,
		// The separator cannot appear in tenant names (ValidName), so no
		// tenant's prefix is a prefix of another's.
		prefix: []byte(cfg.Name + "/"),
		secret: cfg.Secret,
		quota:  cfg.Quota,
		last:   now,
		tel:    telemetry.NewRegistry(),
	}
	if t.quota.Burst == 0 {
		t.quota.Burst = t.quota.OpsPerSec
	}
	t.tokens = t.quota.Burst
	t.readLat = t.tel.Histogram("gw.read_latency_ns")
	t.writeLat = t.tel.Histogram("gw.write_latency_ns")
	t.counterLat = t.tel.Histogram("gw.counter_latency_ns")
	t.ops = t.tel.Counters().Handle("gw.ops")
	t.hits = t.tel.Counters().Handle("gw.hits")
	t.misses = t.tel.Counters().Handle("gw.misses")
	t.rejections = t.tel.Counters().Handle("gw.quota_rejections")
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Prefix returns the key-namespace prefix prepended to every key the
// tenant stores.
func (t *Tenant) Prefix() []byte { return t.prefix }

// Telemetry returns the tenant's private metric registry.
func (t *Tenant) Telemetry() *telemetry.Registry { return t.tel }

// Keys returns the tenant's live key count.
func (t *Tenant) Keys() int64 { return t.keys.Load() }

// Bytes returns the tenant's stored payload bytes.
func (t *Tenant) Bytes() int64 { return t.bytes.Load() }

// Namespace prepends the tenant prefix to a client key.
func (t *Tenant) Namespace(key []byte) []byte {
	out := make([]byte, 0, len(t.prefix)+len(key))
	out = append(out, t.prefix...)
	return append(out, key...)
}

// admitOps spends n tokens from the rate bucket, reporting false (and
// counting the rejection) when the tenant is over its ops/s quota.
func (t *Tenant) admitOps(n int, now time.Time) bool {
	if t.quota.OpsPerSec <= 0 {
		return true
	}
	t.mu.Lock()
	elapsed := now.Sub(t.last).Seconds()
	if elapsed > 0 {
		t.tokens += elapsed * t.quota.OpsPerSec
		if t.tokens > t.quota.Burst {
			t.tokens = t.quota.Burst
		}
		t.last = now
	}
	ok := t.tokens >= float64(n)
	if ok {
		t.tokens -= float64(n)
	}
	t.mu.Unlock()
	return ok
}

// admitCreate reports whether an operation guaranteed to create a key
// fits the key quota.
func (t *Tenant) admitCreate() bool {
	return t.quota.MaxKeys <= 0 || t.keys.Load() < t.quota.MaxKeys
}

// admitBytes reports whether storing n more payload bytes fits the byte
// quota, assuming pure growth (the overwrite credit lands post-hoc).
func (t *Tenant) admitBytes(n int) bool {
	return t.quota.MaxBytes <= 0 || t.bytes.Load()+int64(n) <= t.quota.MaxBytes
}

// account applies the authoritative usage delta from a completed store:
// keyDelta is +1/0/-1, byteDelta the change in stored payload bytes.
func (t *Tenant) account(keyDelta, byteDelta int64) {
	if keyDelta != 0 {
		t.keys.Add(keyDelta)
	}
	if byteDelta != 0 {
		t.bytes.Add(byteDelta)
	}
}

// ValidName reports whether name can be a tenant name: non-empty, at
// most 64 bytes, lowercase alphanumerics plus '_' and '-'. The
// namespace separator '/' is excluded by construction, which is what
// keeps prefixes non-overlapping.
func ValidName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			continue
		}
		return false
	}
	return true
}

// Registry holds the tenant set and answers auth.
type Registry struct {
	mu         sync.RWMutex
	tenants    map[string]*Tenant
	autoCreate bool
	defQuota   Quota
	now        func() time.Time
}

// NewRegistry builds a registry from config. A nil now uses wall-clock
// time; tests inject a fake clock to step token buckets
// deterministically.
func NewRegistry(cfg RegistryConfig, now func() time.Time) (*Registry, error) {
	if now == nil {
		now = time.Now
	}
	r := &Registry{
		tenants:    map[string]*Tenant{},
		autoCreate: cfg.AutoCreate,
		defQuota:   cfg.DefaultQuota,
		now:        now,
	}
	for _, tc := range cfg.Tenants {
		if !ValidName(tc.Name) {
			return nil, fmt.Errorf("kvgw: invalid tenant name %q", tc.Name)
		}
		if _, dup := r.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("kvgw: duplicate tenant %q", tc.Name)
		}
		r.tenants[tc.Name] = newTenant(tc, now())
	}
	return r, nil
}

// LoadRegistry reads a tenants.json file.
func LoadRegistry(path string, now func() time.Time) (*Registry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg RegistryConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("kvgw: parse %s: %w", path, err)
	}
	return NewRegistry(cfg, now)
}

// Authenticate resolves a SASL PLAIN identity to a tenant: the name
// must exist (or auto-create must be on) and the secret must match when
// the tenant has one.
func (r *Registry) Authenticate(name, secret string) (*Tenant, bool) {
	r.mu.RLock()
	t := r.tenants[name]
	r.mu.RUnlock()
	if t != nil {
		if t.secret != "" && t.secret != secret {
			return nil, false
		}
		return t, true
	}
	if !r.autoCreate || !ValidName(name) {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.tenants[name]; t == nil {
		t = newTenant(TenantConfig{Name: name, Quota: r.defQuota}, r.now())
		r.tenants[name] = t
	} else if t.secret != "" && t.secret != secret {
		return nil, false
	}
	return t, true
}

// Lookup returns the named tenant without authenticating.
func (r *Registry) Lookup(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Len returns the number of live tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// Names returns the live tenant names (unordered).
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		out = append(out, name)
	}
	return out
}

// TelemetrySnapshot merges every tenant's registry into one snapshot,
// rewriting each metric's "gw." prefix to "gw.tenant_<name>_" so a
// thousand tenants share the exporter's flat namespace without
// colliding ('-' in tenant names becomes '_' for the metric grammar).
// The per-tenant key/byte usage rides along as gauges.
func (r *Registry) TelemetrySnapshot() telemetry.Snapshot {
	r.mu.RLock()
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.RUnlock()
	var out telemetry.Snapshot
	for _, t := range tenants {
		snap := t.tel.Snapshot()
		prefix := "gw.tenant_" + strings.ReplaceAll(t.name, "-", "_") + "_"
		snap.Gauges["gw.keys"] = uint64(t.Keys())
		snap.Gauges["gw.payload_bytes"] = uint64(t.Bytes())
		out.Merge(prefixSnapshot(snap, prefix))
	}
	return out
}

// prefixSnapshot rewrites every "gw."-prefixed metric name in s with
// the given replacement prefix. Names are runtime-built here by design;
// the literal-name convention is enforced where the metrics are
// declared.
func prefixSnapshot(s telemetry.Snapshot, prefix string) telemetry.Snapshot {
	out := telemetry.Snapshot{
		Counters:  map[string]uint64{},
		Gauges:    map[string]uint64{},
		IntGauges: map[string]int64{},
	}
	rename := func(name string) string {
		if rest, ok := strings.CutPrefix(name, "gw."); ok {
			return prefix + rest
		}
		return name
	}
	for k, v := range s.Counters {
		out.Counters[rename(k)] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[rename(k)] = v
	}
	for k, v := range s.IntGauges {
		out.IntGauges[rename(k)] = v
	}
	for _, h := range s.Histograms {
		h.Name = rename(h.Name)
		out.Histograms = append(out.Histograms, h)
	}
	return out
}
