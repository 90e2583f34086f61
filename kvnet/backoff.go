package kvnet

import (
	"math/rand"
	"time"
)

// Backoff computes full-jitter exponential retry delays: attempt n
// (1-based) waits a uniform random duration in [0, Base<<(n-1)], capped
// at Max. Full jitter (rather than a fixed step ± a margin) is what
// decorrelates a fleet: after a failover every client re-probes on the
// same attempt number, and any deterministic component of the delay
// synchronizes them into retry storms that arrive as one wave. It is
// the one retry-pacing policy in the system — the client's transport
// retries, kvrepl's log-stream redials (a migration's learner stream
// included) and kvrepl.Deployment.DoTrace's wait for a shard to have a
// primary again all draw from it.
//
// A Backoff is not safe for concurrent use; give each retry loop its own.
type Backoff struct {
	Base time.Duration
	Max  time.Duration
	seed int64
	rng  *rand.Rand // built by the first Delay: seeding costs microseconds, and most loops never retry
}

// NewBackoff returns a Backoff seeded for deterministic jitter.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	return &Backoff{Base: base, Max: max, seed: seed}
}

// Delay returns the wait before retry n (1-based): uniform in [0, cap]
// where cap doubles per attempt from Base up to Max.
func (b *Backoff) Delay(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := b.Base << uint(n-1)
	if d > b.Max || d <= 0 {
		d = b.Max
	}
	if d <= 0 {
		return 0
	}
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(b.seed))
	}
	return time.Duration(b.rng.Int63n(int64(d) + 1))
}

// Sleep blocks for Delay(n).
func (b *Backoff) Sleep(n int) {
	if d := b.Delay(n); d > 0 {
		time.Sleep(d)
	}
}
