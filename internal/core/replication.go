package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/ctlplane"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Primary→backup replication. The mechanism composes what the codebase
// already has rather than inventing a new log format:
//
//   - Base state ships exactly like a checkpoint image is cut: the primary
//     seals a CPR version (an asynchronous global cut, §3.2 machinery) and a
//     version-filtered scan of the hash table streams every pre-cut record to
//     the backup in migration-record frames, installed with
//     ConditionalInsert — the same first-writer-wins primitive migration
//     targets use.
//   - The live stream reuses the client wire format verbatim: every accepted
//     write batch is forwarded as a MsgReplBatch embedding the original
//     MsgRequestBatch frame, and the backup re-executes it through the
//     ordinary batch-apply path. There is no bespoke replication log.
//   - Failover is one metadata linearization point (PromoteReplica): the
//     backup takes over the primary's identity, its view number bumps, and
//     clients replay their sessions through the §3.3.1 recovery path against
//     the promoted server — the path crash recovery already exercises.
//
// Consistency: with a backup attached, no response (write acks *and* read
// results, which may observe locally applied writes) is revealed to a client
// before the backup's cumulative acknowledgement covers every write batch
// forwarded up to that point. A promoted backup therefore holds every write
// any client ever saw acknowledged or reflected in a read. The backup may
// hold *more* than was acknowledged (batches forwarded moments before the
// primary died); with the soak workload's commutative RMWs this only ever
// advances state, never loses it.
//
// Known limitation (documented in README): batches forwarded by different
// dispatcher threads are serialized by the replication stream's send mutex,
// which may order two racing same-key writes differently than the primary's
// store did. The acked-write guarantee above is unaffected; byte-exact
// convergence is only guaranteed for commutative or single-writer-per-key
// workloads. Shared-tier indirection records are not replicated (the base
// scan counts and skips them).

// replState is the primary-side state of one attached backup.
type replState struct {
	s          *Server
	conn       transport.Conn
	backupAddr string
	// baseVer is the CPR version sealed by the replication cut. Dispatchers
	// whose session version is still <= baseVer write pre-cut records that
	// the base scan will ship; once a dispatcher refreshes past the cut its
	// accepted write batches are forwarded on the live stream instead.
	// Atomic: the seal callback confirms it after rs is published to the
	// dispatchers.
	baseVer atomic.Uint32

	// mu serializes frame sends and sequence assignment: every frame to the
	// backup carries a strictly increasing seq, acknowledged cumulatively.
	mu  sync.Mutex
	seq uint64

	acked   atomic.Uint64 // backup's cumulative ack watermark
	lastAck atomic.Int64  // unix nanos of the last ack received

	synced   atomic.Bool // base sync acknowledged; backup may promote
	detached atomic.Bool // stream torn down

	// release decides what happens to responses held against this stream
	// once it is detached. Until the detach-confirmation protocol
	// (confirmDetach) proves the backup can no longer promote, they stay
	// parked (relHold): releasing an unacknowledged write's response while
	// the backup might still take over would lose an acked write. relDrop
	// means the backup DID promote — this incarnation is deposed and the
	// held frames must never reach a client.
	release atomic.Int32

	hbEvery    time.Duration
	ackTimeout time.Duration
}

// release states (replState.release).
const (
	relHold    int32 = iota // detach not confirmed; keep holding
	relRelease              // backup provably cannot promote; reveal responses
	relDrop                 // backup promoted; this primary is deposed — discard
)

// heldResp is a serialized response frame parked until the backup's ack
// watermark reaches gate (or the backup detaches).
type heldResp struct {
	rs    *replState // stream epoch the hold belongs to
	c     transport.Conn
	frame []byte
	gate  uint64
}

// currentSeq returns the live send watermark.
func (rs *replState) currentSeq() uint64 {
	rs.mu.Lock() //shadowfax:ignore epochblock mu is held across conn.Send by a concurrent forwarder, so this read may wait behind an in-flight frame; that backpressure is the replication flow control, and a wedged backup is detached on ack timeout
	defer rs.mu.Unlock()
	return rs.seq
}

// sendNumbered assigns the next stream sequence, stamps it into frame (an
// encoded numbered frame, see wire.StampSeq) and ships it. Returns the
// assigned seq; ok is false (and the backup is detached) on a send failure.
func (rs *replState) sendNumbered(frame []byte) (uint64, bool) {
	if rs.detached.Load() {
		return 0, false
	}
	rs.mu.Lock() //shadowfax:ignore epochblock deliberately held across conn.Send so frames hit the wire in seq order; a full stream backpressures the dispatcher by design, and the ack-timeout monitor detaches a wedged backup to bound the stall
	rs.seq++
	seq := rs.seq
	err := rs.conn.Send(wire.StampSeq(frame, seq))
	rs.mu.Unlock()
	if err != nil {
		rs.s.detachReplica(rs, "send: "+err.Error()) //shadowfax:ignore hotpathalloc send-failure path only; the stream is already being torn down
		return 0, false
	}
	return seq, true
}

// forward ships one accepted client write batch on the live stream. Returns
// the assigned seq, or 0 when the stream is down.
func (rs *replState) forward(batchFrame []byte) uint64 {
	rb := wire.ReplBatch{Batch: batchFrame}
	seq, _ := rs.sendNumbered(wire.EncodeReplBatch(&rb))
	return seq
}

// noteAck folds a cumulative acknowledgement into the watermark.
func (rs *replState) noteAck(seq uint64) {
	for {
		cur := rs.acked.Load()
		if seq <= cur || rs.acked.CompareAndSwap(cur, seq) {
			break
		}
	}
	rs.lastAck.Store(time.Now().UnixNano())
}

// batchHasWrites reports whether any op in the batch mutates state.
func batchHasWrites(b *wire.RequestBatch) bool {
	for i := range b.Ops {
		if b.Ops[i].Kind != wire.OpRead {
			return true
		}
	}
	return false
}

// gateResponse decides whether the response just serialized for this batch
// may be revealed now. fseq is the live-stream seq the batch was forwarded
// under (0 when it was not forwarded). With a live backup attached, a
// forwarded batch waits for its own seq and a read-only batch waits for the
// current send watermark — a read may have observed a write another batch
// applied locally that the backup has not acknowledged yet.
func (d *dispatcher) gateResponse(fseq uint64) (uint64, bool) {
	rs := d.rs
	if rs == nil {
		return 0, false
	}
	if rs.detached.Load() {
		// Stream down but the detach is not confirmed yet: the backup may
		// still hold a promotable registration, so nothing can be revealed
		// until confirmDetach resolves. relRelease means it provably cannot
		// promote (send directly); anything else parks the response.
		return ^uint64(0), rs.release.Load() != relRelease
	}
	gate := fseq
	if gate == 0 {
		if !d.fwd {
			// Pre-cut window: this dispatcher's writes are stamped below the
			// replication cut and travel with the base scan; the backup
			// cannot promote before that scan is acknowledged in full.
			return 0, false
		}
		gate = rs.currentSeq()
	}
	return gate, gate > rs.acked.Load()
}

// holdResponse parks a copy of the serialized response until gate is acked on
// the current stream. The count of holds per conn feeds admission control.
func (d *dispatcher) holdResponse(c transport.Conn, frame []byte, gate uint64) {
	d.held = append(d.held, heldResp{rs: d.rs, c: c, frame: append([]byte(nil), frame...), gate: gate})
	if d.heldPerConn == nil {
		d.heldPerConn = make(map[transport.Conn]int) //shadowfax:ignore hotpathalloc lazily built once per dispatcher on the first hold, then reused
	}
	d.heldPerConn[c]++
}

// noteHeldDone unwinds the per-conn admission count for one resolved hold.
func (d *dispatcher) noteHeldDone(c transport.Conn) {
	if n := d.heldPerConn[c]; n > 1 {
		d.heldPerConn[c] = n - 1
	} else {
		delete(d.heldPerConn, c)
	}
}

// flushHeld moves parked responses covered by the backup's ack watermark.
// Once the stream is detached the release state decides: hold until the
// detach-confirmation protocol resolves, then either release everything
// (the backup provably cannot promote) or discard everything (it did — this
// incarnation is deposed and must not reveal unreplicated acks). Reports
// whether anything moved.
func (d *dispatcher) flushHeld() bool {
	if len(d.held) == 0 {
		return false
	}
	progress := false
	n := 0
	for i := range d.held {
		h := d.held[i]
		release, drop := h.rs == nil, false
		if h.rs != nil {
			if h.rs.detached.Load() {
				switch h.rs.release.Load() {
				case relRelease:
					release = true
				case relDrop:
					drop = true
				}
				// relHold: detach not confirmed yet; keep parked.
			} else {
				release = h.gate <= h.rs.acked.Load()
			}
		}
		switch {
		case drop:
			d.noteHeldDone(h.c)
			progress = true
		case release:
			d.send(h.c, h.frame)
			d.noteHeldDone(h.c)
			progress = true
		default:
			d.held[n] = h
			n++
		}
	}
	for i := n; i < len(d.held); i++ {
		d.held[i] = heldResp{}
	}
	d.held = d.held[:n]
	return progress
}

// handleReplAttach accepts (or refuses) a backup's attach request; the
// protocol runs on its own goroutine, like admin checkpoints.
func (s *Server) handleReplAttach(c transport.Conn, frame []byte) {
	req, err := wire.DecodeReplAttach(frame)
	if err != nil {
		s.stats.DecodeErrors.Add(1)
		return
	}
	go s.startReplication(c, req)
}

func (s *Server) startReplication(c transport.Conn, req wire.ReplAttach) {
	refuse := func(msg string) {
		c.Send(wire.EncodeReplAttachResp(wire.ReplAttachResp{Err: msg})) //nolint:errcheck // conn errors surface on the next poll
	}
	if s.stopping.Load() {
		refuse("server shutting down")
		return
	}
	if s.standby.Load() {
		refuse("server is itself a standby")
		return
	}
	if req.PrimaryID != s.cfg.ID {
		refuse(fmt.Sprintf("wrong primary: this is %q, not %q", s.cfg.ID, req.PrimaryID))
		return
	}
	if rs := s.repl.Load(); rs != nil && !rs.detached.Load() {
		refuse("a replica is already attached")
		return
	}
	s.migMu.Lock()
	migBusy := s.source != nil || len(s.targets) > 0
	s.migMu.Unlock()
	if migBusy {
		refuse("migration in flight; retry")
		return
	}
	if err := s.meta.SetReplica(s.cfg.ID, req.ReplicaAddr); err != nil {
		refuse(err.Error())
		return
	}

	// Freeze checkpoints and compaction for the whole base sync: a checkpoint
	// would seal further versions (confusing the masked pre/post-cut test the
	// scan relies on) and compaction would truncate log the scan still reads.
	s.ckptMu.Lock()
	s.compactMu.Lock()

	rs := &replState{
		s: s, conn: c, backupAddr: req.ReplicaAddr,
		hbEvery:    time.Duration(req.HeartbeatMs) * time.Millisecond,
		ackTimeout: time.Duration(req.AckTimeoutMs) * time.Millisecond,
	}
	if rs.hbEvery <= 0 {
		rs.hbEvery = s.cfg.ReplicaHeartbeatEvery
	}
	if rs.ackTimeout <= 0 {
		rs.ackTimeout = s.cfg.ReplicaAckTimeout
	}
	rs.lastAck.Store(time.Now().UnixNano())
	rs.baseVer.Store(s.store.CurrentVersion())
	// Publish before sealing: dispatchers must observe rs (and start
	// forwarding) no later than they cross the cut.
	s.repl.Store(rs)
	// First replica ever: start renewing the liveness lease that fences
	// promotion while this primary can still reach metadata.
	s.leaseOnce.Do(func() {
		s.wg.Add(1)
		go s.leaseLoop()
	})
	c.Send(wire.EncodeReplAttachResp(wire.ReplAttachResp{OK: true})) //nolint:errcheck // conn errors surface on the next poll

	s.store.SealVersion(func(sealed uint32, cutTail hlog.Address) {
		rs.baseVer.Store(sealed) // == the CurrentVersion read above; no other sealer can run under ckptMu
		s.baseSync(rs, sealed, cutTail)
	})
}

// baseSync streams the sealed pre-cut state to the backup, then hands the
// stream over to the heartbeat loop. Runs once every dispatcher has crossed
// the replication cut; holds ckptMu/compactMu (taken in startReplication)
// until the scan is finished.
func (s *Server) baseSync(rs *replState, sealed uint32, cutTail hlog.Address) {
	scanned := func() bool {
		defer s.compactMu.Unlock()
		defer s.ckptMu.Unlock()

		begin := wire.ReplBaseBegin{Sealed: sealed, CutTail: uint64(cutTail)}
		if _, ok := rs.sendNumbered(wire.EncodeReplBaseBegin(begin)); !ok {
			return false
		}

		sess := s.store.NewSession()
		defer sess.Close()
		out := recordBatch{max: frameRecords, send: func(recs []wire.MigrationRecord, _ bool) bool {
			_, ok := rs.sendNumbered(wire.EncodeReplRecords(&wire.ReplRecords{Records: recs}))
			return ok
		}}
		skipped, err := sess.ReplScan(sealed, cutTail, out.add)
		if err != nil {
			s.detachReplica(rs, "base scan: "+err.Error())
			return false
		}
		if !out.flush(false) {
			return false
		}

		st := wire.ReplSessTab{Sealed: sealed}
		for id, lastSeq := range s.sessTab.snapshotUpTo(sealed) {
			st.Sessions = append(st.Sessions, wire.ReplSession{ID: id, LastSeq: lastSeq})
		}
		if _, ok := rs.sendNumbered(wire.EncodeReplSessTab(&st)); !ok {
			return false
		}
		done := wire.ReplBaseDone{SkippedIndirections: uint32(skipped)}
		doneSeq, ok := rs.sendNumbered(wire.EncodeReplBaseDone(done))
		if !ok {
			return false
		}

		// Wait for the backup to acknowledge the whole base stream before
		// marking it promotable.
		for rs.acked.Load() < doneSeq {
			if rs.detached.Load() || s.stopping.Load() {
				return false
			}
			if time.Duration(time.Now().UnixNano()-rs.lastAck.Load()) > rs.ackTimeout {
				s.detachReplica(rs, "base sync not acknowledged")
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}()
	if !scanned {
		return
	}
	if err := s.meta.MarkReplicaSynced(s.cfg.ID, rs.backupAddr); err != nil {
		s.detachReplica(rs, "mark synced: "+err.Error())
		return
	}
	rs.synced.Store(true)
	s.heartbeatLoop(rs)
}

// heartbeatLoop keeps the stream's liveness observable while the primary is
// idle and detaches the backup after prolonged ack silence (primary-side
// failure detection — the backup runs the mirror image and promotes).
func (s *Server) heartbeatLoop(rs *replState) {
	t := time.NewTicker(rs.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-s.bgQuit:
			return
		case <-t.C:
		}
		if rs.detached.Load() {
			return
		}
		if time.Duration(time.Now().UnixNano()-rs.lastAck.Load()) > rs.ackTimeout {
			s.detachReplica(rs, "ack timeout")
			return
		}
		if _, ok := rs.sendNumbered(wire.EncodeReplHeartbeat(wire.ReplHeartbeat{})); !ok {
			return
		}
	}
}

// detachReplica tears the stream down. Held responses do NOT release here:
// a detached backup may still hold a synced, promotable registration (e.g.
// the stream broke on a network partition while both sides can reach
// metadata), and revealing unreplicated acks while it can promote would lose
// acknowledged writes. confirmDetach resolves their fate asynchronously.
func (s *Server) detachReplica(rs *replState, why string) {
	if rs.detached.Swap(true) {
		return
	}
	_ = why // kept for debuggability; detachment reasons surface via metadata state
	if s.stopping.Load() {
		// The stream broke because this server is going down, not because
		// the backup lagged. Leave the metadata registration intact: a
		// synced standby must keep its promotion eligibility across its
		// primary's death (clearing it here would wedge failover — nobody
		// could ever promote). No solo acks can follow a teardown detach,
		// so promotion remains safe.
		rs.release.Store(relRelease)
		return
	}
	s.wg.Add(1)
	go s.confirmDetach(rs) //shadowfax:ignore hotpathalloc detach path: the stream is already broken, throughput no longer matters
}

// confirmDetach decides whether responses held against a broken stream may be
// revealed. Two metadata calls, in order:
//
//  1. ClearReplica(backupAddr) — afterwards the detached backup's
//     registration is gone (or was already replaced by a newer attach), so it
//     can never BECOME promotable again. Idempotent; only transport-level
//     failures retry.
//  2. KeepAlive(self) — success linearizes "this server is still the
//     addressed primary" AFTER step 1: no promotion happened before the
//     registration vanished and none can happen after, so the held acks are
//     safe to release. ErrDeposed means the backup won the race and promoted:
//     this incarnation must discard the held frames (their writes exist only
//     here) and stop serving.
//
// Note ClearReplica success alone proves nothing — it is an idempotent no-op
// when PromoteReplica already consumed the registration.
func (s *Server) confirmDetach(rs *replState) {
	defer s.wg.Done()
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 200 * time.Millisecond}
	cleared := false
	for attempt := 0; !s.stopping.Load(); attempt++ {
		if !cleared {
			if err := s.meta.ClearReplica(s.cfg.ID, rs.backupAddr); err != nil {
				time.Sleep(pol.Delay(attempt))
				continue
			}
			cleared = true
		}
		err := s.meta.KeepAlive(s.cfg.ID, s.listener.Addr(), s.cfg.LeaseTTL)
		switch {
		case err == nil:
			rs.release.Store(relRelease)
			return
		case errors.Is(err, metadata.ErrDeposed):
			s.deposed.Store(true)
			rs.release.Store(relDrop)
			return
		case !errors.Is(err, ctlplane.ErrMetaUnavailable):
			// Semantic refusal that is not a deposition (shouldn't happen for
			// KeepAlive on our own id/addr); treat conservatively as deposed
			// rather than risk releasing an unsafe ack.
			s.deposed.Store(true)
			rs.release.Store(relDrop)
			return
		}
		time.Sleep(pol.Delay(attempt))
	}
	// Shutting down mid-protocol: dispatchers are quiescing and the held
	// frames die with the process either way; release so a drain cannot wedge.
	rs.release.Store(relRelease)
}

// leaseLoop renews the primary liveness lease (metadata lease fence) for a
// server that has accepted at least one replica attach. While the lease is
// live PromoteReplica refuses with ErrPrimaryAlive, so a standby that merely
// lost its stream — a partition between primary and standby, not a primary
// death — cannot seize ownership as long as the primary can reach metadata.
// A clean Close releases the lease so ordinary failover pays no TTL latency.
func (s *Server) leaseLoop() {
	defer s.wg.Done()
	ttl := s.cfg.LeaseTTL
	addr := s.listener.Addr()
	for {
		if err := s.meta.KeepAlive(s.cfg.ID, addr, ttl); errors.Is(err, metadata.ErrDeposed) {
			s.deposed.Store(true)
			return
		}
		select {
		case <-s.bgQuit:
			s.meta.KeepAlive(s.cfg.ID, addr, 0) //nolint:errcheck // best-effort release on shutdown
			return
		case <-time.After(backoff.Jittered(ttl/3, 0.2)):
		}
	}
}

// Replicating reports whether a backup is currently attached (tests/ops).
func (s *Server) Replicating() bool {
	rs := s.repl.Load()
	return rs != nil && !rs.detached.Load()
}

// IsStandby reports whether the server is an unpromoted backup.
func (s *Server) IsStandby() bool { return s.standby.Load() }

// ---------------------------------------------------------------------------
// Backup side.

// replicaLoop is the standby's main loop: (re-)attach to the primary, mirror
// its state, and promote when it dies. Exits once promoted or on shutdown.
func (s *Server) replicaLoop() {
	defer s.wg.Done()
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 250 * time.Millisecond, Jitter: 0.5}
	attempts := 0
	for !s.stopping.Load() {
		promoted, attached := s.runReplicaSession()
		if promoted {
			s.startBackground()
			return
		}
		if attached {
			attempts = 0 // the primary accepted us; a fresh break retries fast
		} else {
			attempts++
		}
		// Jittered exponential backoff before re-attaching: keeps a dead or
		// refusing primary from being hammered, and staggers competing
		// standbys so they don't probe in lockstep.
		deadline := time.Now().Add(pol.Delay(attempts))
		for time.Now().Before(deadline) && !s.stopping.Load() {
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// runReplicaSession runs one attach→mirror→(promote|teardown) cycle.
// promoted reports that this server took over as primary; attached reports
// that the primary accepted the attach (used to reset the retry backoff).
func (s *Server) runReplicaSession() (promoted, attached bool) {
	primaryID := s.cfg.ID // a standby adopts the primary's identity at boot
	myAddr := s.listener.Addr()

	// NOTE: no state is discarded here. The local store is only fenced out
	// when a fresh base sync actually begins (MsgReplBaseBegin below) — by
	// then the primary's SetReplica has already reset the registration to
	// unsynced, so a partial local store always coincides with an unsynced
	// registration and can never be promoted. Wiping at the top of the cycle
	// instead would let a transient stream hiccup (re-attach refused while
	// the primary's ack timeout hasn't fired) destroy the very state a
	// still-synced registration vouches for.

	// Registration is the PRIMARY's job (its attach handler calls SetReplica
	// when it accepts the stream): registering from here before the dial
	// would replace this standby's own previous — possibly synced —
	// registration with an unsynced one. With the primary already dead that
	// reset is irreversible (no primary means no fresh base sync), and it
	// would permanently destroy the standby's promotion eligibility.
	snap, err := s.meta.Snapshot()
	if err != nil {
		return false, false
	}
	paddr, err := snap.ServerAddr(primaryID)
	if err != nil {
		return false, false
	}
	conn, err := s.cfg.Transport.Dial(paddr)
	if err != nil {
		return s.considerPromotion(primaryID, myAddr, paddr), false
	}
	defer conn.Close()

	attach := wire.ReplAttach{
		PrimaryID: primaryID, ReplicaAddr: myAddr,
		HeartbeatMs:  uint32(s.cfg.ReplicaHeartbeatEvery / time.Millisecond),
		AckTimeoutMs: uint32(s.cfg.ReplicaAckTimeout / time.Millisecond),
	}
	if err := conn.Send(wire.EncodeReplAttach(attach)); err != nil {
		return s.considerPromotion(primaryID, myAddr, paddr), false
	}

	sess := s.store.NewSession()
	defer sess.Close()
	// Same discipline as a dispatcher: the apply session refreshes at frame
	// boundaries only, so a local cut can never drain while a half-applied
	// batch still stamps the pre-cut version.
	sess.SetManualRefresh(true)

	var (
		baseDone  bool
		buffered  [][]byte // live batches copied aside until the base sync lands
		lastFrame = time.Now()
		idle      = 0
	)
	// Jitter the silence threshold per session so competing standbys (and a
	// fleet of pairs sharing one config) don't declare the primary dead — and
	// storm metadata with promotion attempts — in lockstep.
	failAfter := backoff.Jittered(s.cfg.ReplicaFailoverAfter, 0.2)
	ack := func(seq uint64) bool {
		return conn.Send(wire.EncodeReplAck(wire.ReplAck{Seq: seq})) == nil
	}
	for !s.stopping.Load() {
		frame, ok, err := conn.TryRecv()
		if err != nil {
			return s.considerPromotion(primaryID, myAddr, paddr), attached
		}
		if !ok {
			if time.Since(lastFrame) > failAfter {
				return s.considerPromotion(primaryID, myAddr, paddr), attached
			}
			idle++
			if idle > 64 {
				sess.Guard().Suspend()
				time.Sleep(100 * time.Microsecond)
				sess.Refresh()
			}
			continue
		}
		idle = 0
		lastFrame = time.Now()
		// Frame boundary: the previous frame is fully applied, so crossing
		// the epoch (and adopting any advanced version) is safe here — and
		// keeps local cuts live through sustained streaming.
		sess.Refresh()
		t, perr := wire.PeekType(frame)
		if perr != nil {
			s.stats.DecodeErrors.Add(1)
			continue
		}
		switch t {
		case wire.MsgReplAttachResp:
			r, err := wire.DecodeReplAttachResp(frame)
			if err != nil || !r.OK {
				return false, attached
			}
			attached = true
		case wire.MsgReplBaseBegin:
			b, err := wire.DecodeReplBaseBegin(frame)
			if err != nil {
				s.stats.DecodeErrors.Add(1)
				return false, attached
			}
			// A full base image is coming: fence out everything a previous
			// attach left behind so ConditionalInsert cannot lose to a stale
			// earlier copy. Safe to discard here — and only here — because
			// the primary reset this registration to unsynced when it
			// accepted the attach, so nothing can promote this store until
			// the new base lands in full.
			s.store.AddFence(0, ^uint64(0), s.store.Log().TailAddress())
			// Mirror the primary's post-cut version so records applied here
			// carry comparable stamps (and a later checkpoint of the promoted
			// server seals above everything replicated).
			s.store.AdvanceVersionTo(b.Sealed + 1)
			sess.Refresh()
			if !ack(b.Seq) {
				return false, attached
			}
		case wire.MsgReplRecords:
			m, err := wire.DecodeReplRecords(frame)
			if err != nil {
				s.stats.DecodeErrors.Add(1)
				return false, attached
			}
			installRecords(sess, nil, m.Records)
			// The records alias the frame: drain any pending installs before
			// the next TryRecv invalidates it.
			for sess.Pending() > 0 {
				sess.CompletePending(true)
			}
			if !ack(m.Seq) {
				return false, attached
			}
		case wire.MsgReplSessTab:
			m, err := wire.DecodeReplSessTab(frame)
			if err != nil {
				s.stats.DecodeErrors.Add(1)
				return false, attached
			}
			sessions := make(map[uint64]uint32, len(m.Sessions))
			for _, e := range m.Sessions {
				sessions[e.ID] = e.LastSeq
			}
			s.sessTab.restore(sessions, m.Sealed)
			if !ack(m.Seq) {
				return false, attached
			}
		case wire.MsgReplBaseDone:
			m, err := wire.DecodeReplBaseDone(frame)
			if err != nil {
				s.stats.DecodeErrors.Add(1)
				return false, attached
			}
			baseDone = true
			for _, bf := range buffered {
				s.applyReplBatch(sess, bf)
			}
			buffered = nil
			if !ack(m.Seq) {
				return false, attached
			}
		case wire.MsgReplBatch:
			rb, err := wire.DecodeReplBatch(frame)
			if err != nil {
				s.stats.DecodeErrors.Add(1)
				return false, attached
			}
			if !baseDone {
				buffered = append(buffered, append([]byte(nil), rb.Batch...))
			} else {
				s.applyReplBatch(sess, rb.Batch)
			}
			if !ack(rb.Seq) {
				return false, attached
			}
		case wire.MsgReplHeartbeat:
			hb, err := wire.DecodeReplHeartbeat(frame)
			if err != nil {
				s.stats.DecodeErrors.Add(1)
				continue
			}
			if !ack(hb.Seq) {
				return false, attached
			}
		default:
			// Unknown frame on the replication conn; ignore.
		}
	}
	return false, attached
}

// applyReplBatch re-executes one forwarded client batch against the local
// store — the primary's input stream replayed through the ordinary write
// path. Reads are skipped (they mutate nothing); the session table advances
// exactly like the primary's did so post-failover session recovery reports
// the same durable prefix.
func (s *Server) applyReplBatch(sess *faster.Session, batchFrame []byte) {
	var b wire.RequestBatch
	if err := wire.DecodeRequestBatch(batchFrame, &b); err != nil {
		s.stats.DecodeErrors.Add(1)
		return
	}
	var maxSeq uint32
	seen := false
	for i := range b.Ops {
		op := &b.Ops[i]
		if op.Seq > maxSeq || !seen {
			maxSeq, seen = op.Seq, true
		}
		switch op.Kind {
		case wire.OpUpsert:
			sess.Upsert(op.Key, op.Value, nil)
		case wire.OpDelete:
			sess.Delete(op.Key, nil)
		case wire.OpRMW:
			sess.RMW(op.Key, op.Value, nil)
		}
	}
	// Ops alias the frame: drain before the caller recycles it.
	for sess.Pending() > 0 {
		sess.CompletePending(true)
	}
	if seen {
		s.sessTab.advance(0, b.SessionID, maxSeq, sess.Version())
	}
	sess.Refresh()
}

// considerPromotion is the backup's failure detector verdict: the stream went
// silent (or the dial failed). Probe the primary directly; if it still
// answers, this was a hiccup — tear down and re-attach. If it is dead,
// promote: one metadata linearization point repoints ownership and address,
// and this server starts serving as the primary.
func (s *Server) considerPromotion(primaryID, myAddr, primaryAddr string) bool {
	if s.stopping.Load() {
		return false
	}
	if s.probeAlive(primaryAddr, s.cfg.ReplicaHeartbeatEvery*4) {
		return false
	}
	v, err := s.meta.PromoteReplica(primaryID, myAddr)
	if err != nil {
		// Not synced yet, or a racing incarnation took over; re-attach.
		return false
	}
	s.view.Store(&v)
	s.standby.Store(false)
	return true
}

// probeAlive dials addr and asks for stats; any well-formed answer within the
// timeout means the primary is alive.
func (s *Server) probeAlive(addr string, timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = 100 * time.Millisecond
	}
	c, err := s.cfg.Transport.Dial(addr)
	if err != nil {
		return false
	}
	defer c.Close()
	if err := c.Send(wire.EncodeStatsReq()); err != nil {
		return false
	}
	_, err = transport.AwaitFrame(c, byte(wire.MsgStatsResp), time.Now().Add(timeout), nil)
	return err == nil
}

var errStandby = errors.New("core: server is a standby replica")
