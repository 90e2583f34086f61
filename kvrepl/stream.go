package kvrepl

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"kvdirect"
	"kvdirect/internal/fault"
	"kvdirect/internal/repllog"
	"kvdirect/internal/telemetry"
	"kvdirect/internal/wire"
	"kvdirect/kvnet"
)

// stallBackup is how long a ReplStallBackup fault delays one apply —
// long enough to open replication lag, short enough for chaos runs.
const stallBackup = 2 * time.Millisecond

// migrateStall is how long a ReplMigrateStall fault delays one message
// on a learner stream — long enough that chaos tests can reliably kill a
// node mid-migration.
const migrateStall = 2 * time.Millisecond

// --- primary side: one shipping loop per peer ---

// peerSync is the primary's replication stream to one peer: dial,
// handshake, then batches of Appends answered by cumulative Acks, with
// snapshot catch-up whenever the peer has fallen out of the log window.
// A voting peer is a backup: its acks count toward write quorum, and its
// loop belongs to one epoch. A learner (mig set) is a migration's
// destination: its acks only move the migration's frontier and the log
// pin, and once caught up it drives the cutover instead of idling.
type peerSync struct {
	r      *Replica
	peerID int
	addr   string
	epoch  uint64
	mig    *Migration // non-nil: a non-voting learner

	stop chan struct{}
	wake chan struct{} // buffered 1: "the log grew"

	mu   sync.Mutex
	conn net.Conn
	done bool
}

func newPeerSync(r *Replica, peerID int, addr string, epoch uint64) *peerSync {
	return &peerSync{
		r:      r,
		peerID: peerID,
		addr:   addr,
		epoch:  epoch,
		stop:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
}

// notify nudges an idle loop that new log entries are ready.
func (p *peerSync) notify() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// stopPeer ends the loop and unblocks any in-flight network call.
func (p *peerSync) stopPeer() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return
	}
	p.done = true
	close(p.stop)
	if p.conn != nil {
		_ = p.conn.Close() // unblocks reads; the loop is exiting anyway
	}
}

func (p *peerSync) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

// halted is stopped, and for a learner also ends the loop — with its
// migration — once the migration cannot go on.
func (p *peerSync) halted() bool {
	if p.mig != nil {
		if err := p.mig.live(); err != nil {
			p.mig.end(err)
		}
	}
	return p.stopped()
}

func (p *peerSync) setConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return false
	}
	p.conn = c
	return true
}

// run redials the peer with jittered backoff until stopped. A learner's
// migration gives up after migrateRetryBudget rounds in a row that did
// not move the destination's frontier.
func (p *peerSync) run() {
	bo := kvnet.NewBackoff(2*time.Millisecond, 250*time.Millisecond,
		p.r.opts.Seed^int64(p.peerID+1))
	attempt := 0
	for !p.halted() {
		var from uint64
		if p.mig != nil {
			from = p.mig.destSeq.Load()
		}
		progressed, err := p.syncOnce()
		if p.stopped() {
			return
		}
		if p.mig != nil {
			p.mig.resyncs.Add(1)
			progressed = p.mig.destSeq.Load() > from
		}
		if progressed {
			attempt = 0
		}
		attempt++
		if p.mig != nil && attempt > migrateRetryBudget {
			p.mig.end(fmt.Errorf("giving up after %d learner rounds: %w", attempt, err))
			return
		}
		bo.Sleep(attempt)
	}
}

// syncOnce runs one connection's lifetime; it reports whether any
// message round-tripped (to reset a voting peer's redial backoff) and
// why the connection ended.
func (p *peerSync) syncOnce() (progressed bool, err error) {
	conn, err := net.DialTimeout("tcp", p.addr, p.r.opts.StreamTimeout)
	if err != nil {
		return false, err
	}
	defer func() { _ = conn.Close() }()
	if !p.setConn(conn) {
		return false, errors.New("kvrepl: peer stopped")
	}
	s := newStream(p.r, conn, p.handleAck, p.mig == nil)

	// Handshake: announce our epoch and client address (a learner's
	// redirect hint while the old group still owns the shard); learn the
	// peer's applied frontier.
	err = s.send(wire.ReplMessage{
		Kind:    wire.ReplHello,
		Epoch:   p.epoch,
		Seq:     p.r.LastApplied(),
		Payload: []byte(p.r.clientAddr),
	})
	if err != nil {
		return false, err
	}
	m, err := s.recv()
	if err == nil && m.Kind != wire.ReplHello {
		if err = p.checkReply(m); err == nil {
			err = fmt.Errorf("kvrepl: unexpected %s in peer %d handshake", m.Kind, p.peerID)
		}
	}
	if err != nil {
		return false, err
	}
	sent := m.Seq
	if p.mig != nil {
		p.mig.acked(sent)
	}
	if sent > p.r.LastApplied() {
		// A peer ahead of its primary means fencing failed upstream;
		// do not ship over it.
		return true, fmt.Errorf("kvrepl: peer %d at seq %d is ahead of us", p.peerID, sent)
	}

	heartbeat := time.NewTimer(p.r.opts.HeartbeatEvery)
	defer heartbeat.Stop()
	for !p.halted() {
		// Group commit: the write that woke us put this loop in runnext,
		// ahead of writers already queued on the P. Yield once, holding
		// no lock, so they append first and their entries share this
		// read of the tail — one flush, one cumulative ack.
		runtime.Gosched()
		next, err := s.shipTail(p.epoch, sent)
		switch {
		case errors.Is(err, repllog.ErrTruncated):
			// The peer's frontier is below the log window: fall back to a
			// snapshot install instead of stalling on the missing tail (a
			// learner's first snapshot is its base copy, not a fallback).
			if p.mig == nil || p.mig.State() != MigrateSnapshot {
				p.r.counters.Add("repl.snapshot_fallbacks", 1)
			}
			var n int
			if next, n, err = s.sendSnapshot(p.epoch); err != nil {
				return true, err
			}
			if p.mig != nil {
				p.mig.snapshotted(n)
			}
		case err != nil:
			return true, err
		case next == sent && p.mig != nil:
			if err := p.mig.caughtUp(p, s, sent); err != nil {
				return true, err
			}
		case next == sent:
			if !p.idle(s, heartbeat, sent) {
				return true, nil
			}
		}
		sent = next
	}
	return true, nil
}

// idle keeps a quiet stream warm: wait for new entries, a stop, or a
// heartbeat tick (which doubles as the gap detector when the last
// entries before the pause were fault-dropped). Returns false to tear
// the connection down.
func (p *peerSync) idle(s *stream, t *time.Timer, sent uint64) bool {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(p.r.opts.HeartbeatEvery)
	select {
	case <-p.stop:
		return false
	case <-p.wake:
		return true
	case <-t.C:
	}
	// Heartbeat carries the stream cursor, not the primary's frontier:
	// entries appended after the log read came back empty will be shipped
	// next iteration and must not read as a gap.
	err := s.send(wire.ReplMessage{
		Kind: wire.ReplHeartbeat, Epoch: p.epoch, Seq: sent,
	})
	if err != nil {
		return false
	}
	ack, err := s.recv()
	return err == nil && p.handleAck(ack) == nil
}

// handleAck folds the peer's reply into quorum state — or, for a
// learner, into the migration's frontier only; a rejection with a
// higher epoch means we have been deposed.
func (p *peerSync) handleAck(m wire.ReplMessage) error {
	if err := p.checkReply(m); err != nil {
		return err
	}
	if m.Kind != wire.ReplAck {
		return fmt.Errorf("kvrepl: unexpected %s from peer %d", m.Kind, p.peerID)
	}
	if p.mig != nil {
		p.mig.acked(m.Seq)
		return nil
	}
	p.r.recordAck(p.epoch, p.peerID, m.Seq)
	return nil
}

// checkReply handles fencing rejections common to every reply. A
// learner's peer is not in our group, so its epoch says nothing about
// our term.
func (p *peerSync) checkReply(m wire.ReplMessage) error {
	if m.Kind != wire.ReplReject {
		return nil
	}
	if p.mig == nil && m.Epoch > p.epoch {
		p.r.maybeDemote(m.Epoch, "")
	}
	return fmt.Errorf("kvrepl: peer %d rejected stream: %s", p.peerID, m.Payload)
}

// --- framing and bulk transfer, shared by every stream ---

// shipBatchBytes bounds the entry payload shipped under one flush. The
// receiver acks at most once per frame, so the bound also keeps a
// batch's acks (32 B each) far below a socket buffer: neither side can
// block on a write the other is not reading.
const shipBatchBytes = 64 << 10

// stream is one end of a replication connection: framing and deadlines
// for both ends, and for the sending end — a primary's to a voting peer
// or to a learner — the two bulk transfers, batched log shipping and the
// snapshot. It is used by one goroutine.
type stream struct {
	r      *Replica // the local replica: its log, store, options, faults, counters, tracer
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	dl     kvnet.Deadlines              // StreamTimeout, re-armed at half life
	voting bool                         // to a backup; else to a learner: ReplMigrateStall applies, ReplDropEntry and REPL_SHIP spans do not
	onAck  func(wire.ReplMessage) error // folds a reply into the owner's state; an error tears the stream down

	buf   []byte            // message encoding scratch
	rbuf  []byte            // frame read scratch, reused by every recv; only an APPEND's payload is copied out
	tail  []repllog.Entry   // log read scratch
	spans []*telemetry.Span // sampled entries of the batch in flight
}

func newStream(r *Replica, conn net.Conn, onAck func(wire.ReplMessage) error, voting bool) *stream {
	return &stream{r: r, conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn), onAck: onAck, voting: voting}
}

// write frames m into the write buffer without flushing it.
func (s *stream) write(m wire.ReplMessage) (err error) {
	if !s.voting && s.r.faults.Should(fault.ReplMigrateStall) {
		time.Sleep(migrateStall)
	}
	if s.buf, err = wire.AppendReplMessage(s.buf[:0], m); err != nil {
		return err
	}
	return kvnet.WriteFrame(s.bw, s.buf)
}

// send writes one message under the write deadline and flushes it.
func (s *stream) send(m wire.ReplMessage) error {
	if err := s.dl.Write(s.conn, time.Now(), s.r.opts.StreamTimeout); err != nil {
		return err
	}
	if err := s.write(m); err != nil {
		return err
	}
	return s.bw.Flush()
}

// poisonPattern is what race builds write over a recycled buffer (see
// raceEnabled), the byte kvnet's serve loop uses.
const poisonPattern = 0xDB

func (s *stream) recv() (wire.ReplMessage, error) {
	if err := s.dl.Read(s.conn, time.Now(), s.r.opts.StreamTimeout); err != nil {
		return wire.ReplMessage{}, err
	}
	if raceEnabled {
		// The last frame's bytes: those past it were poisoned before
		// the frame that last held them was read over. (The whole
		// capacity would cost a snapshot's size per entry after one.)
		for i := range s.rbuf {
			s.rbuf[i] = poisonPattern
		}
	}
	pkt, err := wire.ReadFrame(s.br, s.rbuf)
	if err != nil {
		return wire.ReplMessage{}, err
	}
	s.rbuf = pkt
	m, err := wire.DecodeReplMessage(pkt)
	if err == nil && m.Kind == wire.ReplAppend {
		// The log retains an entry's packet; every other payload is read
		// (or copied) before the next recv reuses the frame.
		m.Payload = bytes.Clone(m.Payload)
	}
	return m, err
}

// reject tells the sender why this end is closing the stream.
func (s *stream) reject(epoch uint64, reason string) {
	_ = s.send(wire.ReplMessage{Kind: wire.ReplReject, Epoch: epoch, Payload: []byte(reason)}) //lint:allow statuserr -- best-effort reject; the stream is closing and the peer re-syncs
}

// shipTail ships every log entry after sent and returns the new cursor:
// sent itself when the peer is caught up, repllog.ErrTruncated when the
// entries after sent have left the window and the peer needs a snapshot.
func (s *stream) shipTail(epoch, sent uint64) (uint64, error) {
	var err error
	if s.tail, err = s.r.log.Since(sent, s.tail); err != nil {
		return sent, err
	}
	for rest := s.tail; len(rest) > 0 && err == nil; {
		var n int
		if n, err = s.shipBatch(epoch, rest); err == nil {
			sent = rest[n-1].Seq
			rest = rest[n:]
		}
	}
	clear(s.tail) // the scratch must not keep evicted packets reachable
	return sent, err
}

// shipBatch writes a prefix of entries as back-to-back ReplAppend
// frames, up to shipBatchBytes under one deadline and one flush, then
// reads acks until the peer's cumulative frontier covers the last frame
// written — one round trip, however many entries a burst or a catch-up
// put in the batch. It returns how many entries it consumed.
//
//kvd:hotpath
func (s *stream) shipBatch(epoch uint64, entries []repllog.Entry) (n int, err error) {
	r := s.r
	if err := s.dl.Write(s.conn, time.Now(), r.opts.StreamTimeout); err != nil {
		return 0, err
	}
	var last uint64 // highest seq written
	written := 0
	for size := 0; n < len(entries) && size < shipBatchBytes && err == nil; n++ {
		e := &entries[n]
		if s.voting && r.faults.Should(fault.ReplDropEntry) {
			// Skip the entry but advance the cursor: the next Append (or
			// idle heartbeat) presents a gap, the backup closes the
			// stream, and the redial resyncs from its true frontier —
			// transient loss, recovered, never acked over.
			r.entriesDropped.Add(1)
			continue
		}
		// A sampled trace context stamped onto the entry's packet by the
		// primary's write path turns this ship+ack round-trip into a span
		// of the originating write's trace — one per backup, so an
		// assembled tree shows the quorum ack fan-out.
		if tc, ok := wire.PacketTraceContext(e.Packet); ok && tc.Sampled && s.voting {
			span := r.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
			span.SetOp("REPL_SHIP", 1)
			s.spans = append(s.spans, span) //lint:allow hotalloc -- sampled writes only, and the slice is reused
		}
		err = s.write(wire.ReplMessage{Kind: wire.ReplAppend, Epoch: epoch, Seq: e.Seq, Payload: e.Packet})
		size += len(e.Packet)
		last = e.Seq
		written++
	}
	if err == nil {
		err = s.bw.Flush()
	}
	for acked := uint64(0); err == nil && acked < last; {
		var m wire.ReplMessage
		if m, err = s.recv(); err == nil {
			err = s.onAck(m)
		}
		acked = m.Seq
	}
	for i, span := range s.spans {
		span.SetErr(err)
		r.tel.Tracer().Publish(span)
		s.spans[i] = nil
	}
	s.spans = s.spans[:0]
	if err != nil {
		return n, err
	}
	if s.voting {
		r.entriesShipped.Add(uint64(written))
	} else {
		r.migrationEntries.Add(uint64(written))
	}
	if written > 0 { // a batch the drop fault emptied flushed nothing
		r.shipFlushes.Add(1)
	}
	return n, nil
}

// sendSnapshot transfers a consistent Dump so a peer beyond the log
// window can join; replay resumes from the returned sequence. To a
// learner the log is pinned just past the dump's frontier under the
// same lock that freezes it, so the tail the learner still needs cannot
// be evicted while it installs. It also returns the dump's size.
func (s *stream) sendSnapshot(epoch uint64) (uint64, int, error) {
	r := s.r
	r.mu.Lock()
	var buf bytes.Buffer
	_, err := r.store.Dump(&buf) //lint:allow lockorder -- consistent snapshot requires freezing the store; the lease heartbeat rides an atomic, not mu (PR 6)
	snapSeq := r.lastApplied
	if err == nil && !s.voting {
		r.log.Pin(snapSeq + 1)
	}
	r.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	if err := s.send(wire.ReplMessage{Kind: wire.ReplSnapshotBegin, Epoch: epoch, Seq: snapSeq}); err != nil {
		return 0, 0, err
	}
	data := buf.Bytes()
	for off := 0; off < len(data); off += r.opts.SnapshotChunk {
		chunk := data[off:min(off+r.opts.SnapshotChunk, len(data))]
		if err := s.send(wire.ReplMessage{Kind: wire.ReplSnapshotChunk, Epoch: epoch, Seq: snapSeq, Payload: chunk}); err != nil {
			return 0, 0, err
		}
	}
	if err := s.send(wire.ReplMessage{Kind: wire.ReplSnapshotEnd, Epoch: epoch, Seq: snapSeq}); err != nil {
		return 0, 0, err
	}
	ack, err := s.recv()
	if err == nil {
		err = s.onAck(ack)
	}
	if err == nil && ack.Seq != snapSeq {
		err = fmt.Errorf("kvrepl: snapshot acked at seq %d, want %d", ack.Seq, snapSeq)
	}
	if err != nil {
		return 0, 0, err
	}
	r.counters.Add("repl.snapshots_sent", 1)
	r.counters.Add("repl.catchup_bytes", uint64(len(data)))
	return snapSeq, len(data), nil
}

// --- backup side: accept the primary's stream and apply it ---

// handleReplConn serves one inbound replication stream. The handshake
// enforces epoch fencing (this is also how a deposed primary learns of
// its demotion: the new primary's higher-epoch Hello arrives here); the
// message loop applies entries in strict sequence as they arrive, acks
// the applied frontier whenever it has read everything the sender has
// sent so far, and closes the stream on any gap so the primary resyncs.
// The replica's edge closes conn when it returns.
func (r *Replica) handleReplConn(conn net.Conn) {
	s := newStream(r, conn, nil, true)

	// The sender is our own group's primary, or — if we are a migration
	// destination — the source group's primary, whose learner stream ends
	// with a ReplInstall committing the shard to us. Both say Hello.
	hello, err := s.recv()
	if err != nil || hello.Kind != wire.ReplHello {
		return
	}
	last, herr := r.admitStream(hello)
	if herr != nil {
		r.counters.Add("repl.epoch_rejects", 1)
		s.reject(r.Epoch(), herr.Error())
		return
	}
	if err := s.send(wire.ReplMessage{Kind: wire.ReplHello, Epoch: hello.Epoch, Seq: last}); err != nil {
		return
	}

	var snapBuf *bytes.Buffer
	var snapSeq uint64
	for {
		m, err := s.recv()
		// ReplDestCrash simulates a crash-restart of this replica: the
		// stream dies cold mid-apply and the sender must resume from
		// whatever frontier survived.
		if err != nil || r.faults.Should(fault.ReplDestCrash) {
			return
		}
		if cur := r.Epoch(); m.Epoch < cur {
			// A newer primary contacted us mid-stream; fence the old one.
			r.counters.Add("repl.epoch_rejects", 1)
			s.reject(cur, "stale epoch")
			return
		}
		ackSeq := m.Seq
		switch m.Kind {
		case wire.ReplAppend:
			if r.faults.Should(fault.ReplStallBackup) {
				time.Sleep(stallBackup)
			}
			var gap bool
			if ackSeq, gap = r.applyEntry(m); gap {
				r.counters.Add("repl.gap_resyncs", 1)
				return
			}
			if s.br.Buffered() > 0 {
				// More of the sender's batch is already here. An ack's Seq
				// is the applied frontier, so the one sent when the reader
				// runs dry covers this entry too; a sender that ships one
				// entry at a time still gets an ack for each.
				continue
			}
		case wire.ReplHeartbeat:
			r.mu.Lock()
			ackSeq = r.lastApplied
			// Signed: our frontier can be past a stale heartbeat's Seq
			// (entries applied while the heartbeat was in flight), which
			// the old unsigned gauge had to clamp away.
			r.lag.Store(int64(m.Seq) - int64(ackSeq))
			r.mu.Unlock()
			if m.Seq > ackSeq {
				// The cursor passed entries we never saw (drop fault at
				// the stream tail); force a resync.
				r.counters.Add("repl.gap_resyncs", 1)
				return
			}
		case wire.ReplSnapshotBegin:
			snapBuf, snapSeq = &bytes.Buffer{}, m.Seq
			continue
		case wire.ReplSnapshotChunk:
			if snapBuf == nil {
				return
			}
			_, _ = snapBuf.Write(m.Payload) // bytes.Buffer.Write cannot fail
			continue
		case wire.ReplSnapshotEnd:
			if snapBuf == nil || m.Seq != snapSeq {
				return
			}
			if err := r.installSnapshot(snapBuf, snapSeq); err != nil {
				s.reject(m.Epoch, err.Error())
				return
			}
			snapBuf = nil
		case wire.ReplInstall:
			// Cutover commit: ack only if our applied frontier matches the
			// shard's fenced final frontier exactly — otherwise the
			// learner must keep draining the tail.
			if !r.adoptInstall(m.Epoch, m.Seq) {
				s.reject(r.Epoch(), "install refused: frontier mismatch")
				return
			}
		default:
			return
		}
		if err := s.send(wire.ReplMessage{Kind: wire.ReplAck, Epoch: m.Epoch, Seq: ackSeq}); err != nil {
			return
		}
	}
}

// admitStream vets a Hello against the fencing rules and adopts the
// sender as primary, demoting ourselves if we currently lead. Returns
// our applied frontier for the handshake reply.
func (r *Replica) admitStream(hello wire.ReplMessage) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed:
		return 0, errors.New("replica closed")
	case hello.Epoch < r.epoch:
		return 0, fmt.Errorf("stale epoch %d < %d", hello.Epoch, r.epoch)
	case hello.Epoch == r.epoch && r.role == RolePrimary:
		return 0, fmt.Errorf("split brain: two primaries at epoch %d", r.epoch)
	}
	if hello.Epoch > r.epoch {
		r.demoteLocked(hello.Epoch, string(hello.Payload))
	} else if len(hello.Payload) > 0 {
		r.primaryHint = string(hello.Payload)
	}
	return r.lastApplied, nil
}

// applyEntry applies one shipped entry under the dense-prefix rule:
// duplicates re-ack, the next sequence applies, anything else is a gap
// that tears the stream down for a resync (never skip — density is what
// makes "most advanced backup" equal "has every acked write").
//
//kvd:hotpath
func (r *Replica) applyEntry(m wire.ReplMessage) (ack uint64, gap bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.lastApplied, true
	}
	if m.Seq <= r.lastApplied {
		return r.lastApplied, false
	}
	if m.Seq != r.lastApplied+1 {
		return r.lastApplied, true
	}
	// The payload is recv's copy out of the stream's reused frame buffer,
	// made for an APPEND alone, so the log keeps it as it is.
	e := repllog.Entry{Seq: m.Seq, Epoch: m.Epoch, Packet: m.Payload}
	reqs, err := wire.DecodeRequestsTo(r.decoded[:0], e.Packet)
	if err != nil || len(reqs) != 1 {
		return r.lastApplied, true
	}
	if err := r.log.Append(e); err != nil {
		return r.lastApplied, true
	}
	// A sampled trace context on the shipped packet makes this backup's
	// apply a span of the originating write's trace, charged with the
	// store's model access counts just like the primary's apply.
	var span *telemetry.Span
	if tc, ok := wire.PacketTraceContext(e.Packet); ok && tc.Sampled {
		span = r.tel.Tracer().StartTrace(tc.TraceID, tc.Parent)
		span.SetOp("REPL_APPLY", 1)
	}
	// Apply after logging; a panic still advances the frontier (the
	// primary assigned the sequence and got the same panic response).
	var out [1]wire.Response
	r.apply.Panicked(r.store.ApplyRun(reqs, out[:], span))
	if raceEnabled {
		r.decoded[0] = wire.Request{Code: poisonPattern}
	}
	r.tel.Tracer().Publish(span)
	r.lastApplied = m.Seq
	r.entriesApplied.Add(1)
	return m.Seq, false
}

// installSnapshot replaces the replica's store with the primary's dump
// and rebases the log so replay resumes from snapSeq+1.
func (r *Replica) installSnapshot(buf *bytes.Buffer, snapSeq uint64) error {
	fresh, err := kvdirect.New(r.cfg)
	if err != nil {
		return err
	}
	if _, err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		fresh.Close()
		return err
	}
	// The swapped-in store keeps reporting into the replica's registry.
	fresh.SetTelemetry(r.tel)
	r.mu.Lock()
	// Counted before the frontier moves, so whoever sees the new frontier
	// sees the install counted.
	r.counters.Add("repl.snapshots_installed", 1)
	r.counters.Add("repl.catchup_bytes", uint64(buf.Len()))
	old := r.store
	r.store = fresh
	r.lastApplied = snapSeq
	r.log.Reset(snapSeq)
	r.mu.Unlock()
	old.Close()
	return nil
}
