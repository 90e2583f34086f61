package kvnet

import (
	"kvdirect"
)

// Batcher implements the paper's client-side batching (§4, Figure 15):
// operations accumulate locally and ship as one packet when the batch
// fills or Flush is called, amortizing the per-packet framing overhead.
// Completion callbacks fire in submission order once the batch's
// responses arrive.
//
// A Batcher is not safe for concurrent use; create one per producing
// goroutine (each holds its own pending batch, like a per-core send
// queue).
type Batcher struct {
	c       *Client
	maxOps  int
	pending []kvdirect.Op
	dones   []func(kvdirect.Result)
}

// NewBatcher wraps the client with a batch of up to maxOps operations
// per packet (the paper batches to the MTU; ~40-80 small ops). A shipped
// batch splits by owning shard like any other Do.
func (c *Client) NewBatcher(maxOps int) *Batcher {
	if maxOps < 1 {
		maxOps = 1
	}
	return &Batcher{c: c, maxOps: maxOps}
}

// Pending returns the number of buffered operations.
func (b *Batcher) Pending() int { return len(b.pending) }

// Submit buffers one operation; done (optional) receives its result
// after the batch ships. Submit itself only returns transport errors
// from an automatic flush when the batch fills.
func (b *Batcher) Submit(op kvdirect.Op, done func(kvdirect.Result)) error {
	b.pending = append(b.pending, op)
	b.dones = append(b.dones, done)
	if len(b.pending) >= b.maxOps {
		return b.Flush()
	}
	return nil
}

// Flush ships the pending batch (if any) and dispatches callbacks.
func (b *Batcher) Flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	ops := b.pending
	dones := b.dones
	b.pending = nil
	b.dones = nil
	results, err := b.c.Do(ops)
	if err != nil {
		return err
	}
	for i, r := range results {
		if dones[i] != nil {
			dones[i](r)
		}
	}
	return nil
}
