package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the server's space-management subsystem (§3.3.3): lazy log
// compaction over the HybridLog's stable prefix, scheduled by a watermark
// policy, with the Shadowfax twist that records in hash ranges this server no
// longer owns are relocated over the wire to their current owner (which is
// how indirection records between logs get cleaned up lazily after
// scale-out). After each pass the log's begin address has advanced and the
// subsystem reclaims the device (and shared-tier) space below it — clamped so
// recovery always keeps every byte the latest committed checkpoint image
// still references.

// CompactStats reports what one server-level compaction pass did.
type CompactStats struct {
	faster.CompactStats

	// Begin is the log's begin address after the pass.
	Begin hlog.Address
	// ReclaimedBytes / TierReclaimed are the storage actually freed.
	ReclaimedBytes uint64
	TierReclaimed  uint64
	// Owners is how many distinct current owners received relocated records.
	Owners int
	// Took is the pass's wall-clock duration.
	Took time.Duration
}

// ErrCompactionBusy is returned when a migration is in flight: compaction
// and migration both rewrite chain heads and ownership is in motion, so
// passes wait for the protocol to finish (the paper runs compaction lazily
// in the background for exactly this reason).
var ErrCompactionBusy = errors.New("core: migration in flight; compaction deferred")

// relocAckTimeout bounds how long a pass waits for relocation targets to
// acknowledge MsgCompacted frames before storage below the compacted prefix
// is reclaimed. Without the wait, a target could still be chasing an
// indirection record into the about-to-be-truncated shared-tier prefix.
const relocAckTimeout = 5 * time.Second

// Compact runs one compaction pass over the stable prefix: live owned
// records are copied forward to the tail, dead records dropped, disowned
// records shipped to their current owners (MsgCompacted), the begin address
// advanced, and device/shared-tier space reclaimed up to the checkpoint
// clamp. It blocks until the pass completes and must not be called from a
// dispatcher goroutine (record copy-forward participates in epoch cuts).
// Concurrent calls serialize; a pass during an active migration returns
// ErrCompactionBusy.
func (s *Server) Compact() (CompactStats, error) {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	// Checked under compactMu: Close's teardown handshake also takes it, so a
	// pass that sees stopping==false finishes before the store closes.
	if s.stopping.Load() {
		return CompactStats{}, errors.New("core: server closing")
	}
	// Mutual exclusion with outbound migration, both directions: a pass must
	// not start while this server is migrating, and StartMigration must not
	// begin mid-pass (it would ship records the pass is concurrently
	// relocating and read device pages the pass is about to reclaim). Both
	// sides coordinate under migMu, so the check-and-set is atomic.
	s.migMu.Lock()
	if s.source != nil || len(s.targets) != 0 {
		s.migMu.Unlock()
		return CompactStats{}, ErrCompactionBusy
	}
	s.compactPass = true
	s.migMu.Unlock()
	defer func() {
		s.migMu.Lock()
		s.compactPass = false
		s.migMu.Unlock()
	}()

	start := time.Now()
	view := s.view.Load()
	// The one metadata read of the pass, taken before the scan: the scan
	// runs under the compaction session's epoch guard, where a provider call
	// (a network RPC on a remote provider) could stall every global cut.
	// Without a usable snapshot the relocator resolves no owner, which fails
	// the pass only if it finds a record to relocate.
	cluster, err := s.meta.Snapshot()
	if err != nil {
		cluster = &metadata.Snapshot{}
	}
	rel := newRelocator(s, cluster)

	lg := s.store.Log()
	st, end, cerr := s.compactAux.acquire(s.store).CompactScan(lg.SafeHeadAddress(),
		func(hash uint64) bool { return view.Owns(hash) }, rel.add)
	s.compactAux.release()

	out := CompactStats{CompactStats: st, Begin: lg.BeginAddress()}
	if cerr != nil {
		// The pass is already doomed: don't ship (or ack-wait on) the
		// buffered relocation set — nothing has been dialed yet (sends only
		// happen in finish) and the rescan re-collects it.
		s.stats.CompactionFailures.Add(1)
		return out, cerr
	}

	// Ship the buffered relocations and wait for the owners' acks.
	// Truncation waits for the confirmation: an unconfirmed relocation must
	// leave the prefix in place — the next pass rescans it and re-sends
	// (idempotent at the receiver), whereas truncating now would strand the
	// disowned keys' newest versions behind a reclaimed shared-tier prefix.
	relocOK := rel.finish(relocAckTimeout)
	out.Owners = len(rel.conns)
	if !relocOK {
		s.stats.CompactionFailures.Add(1)
		return out, fmt.Errorf("core: %d relocated records unconfirmed; prefix kept for retry",
			st.Relocated)
	}
	lg.TruncateUntil(end)
	out.Begin = lg.BeginAddress()

	// Reclaim storage with a one-pass grace: only below the PREVIOUS pass's
	// begin address, so a read that pended against the old prefix before
	// this pass's truncation has a full inter-pass interval to drain its
	// device I/O before the bytes vanish. And never below what the latest
	// committed checkpoint image still needs for recovery — without a
	// committed image (but with a checkpoint device configured) nothing is
	// reclaimed: a crash right now must still recover.
	limit := hlog.Address(s.prevPassBegin.Swap(uint64(out.Begin)))
	if s.images != nil {
		if c := hlog.Address(s.committedBegin.Load()); c < limit {
			limit = c
		}
	}
	devFreed, tierFreed, rerr := lg.ReclaimUntil(limit)
	out.ReclaimedBytes, out.TierReclaimed = devFreed, tierFreed
	out.Took = time.Since(start)
	if rerr != nil {
		s.stats.CompactionFailures.Add(1)
		return out, fmt.Errorf("core: reclaiming device space: %w", rerr)
	}

	s.stats.Compactions.Add(1)
	s.stats.CompactRelocated.Add(uint64(st.Relocated))
	s.stats.CompactReclaimedBytes.Add(devFreed + tierFreed)
	s.lastCompactMu.Lock()
	s.lastCompact = out
	s.lastCompactMu.Unlock()
	// A pass that scanned nothing learned nothing: leave the live-fraction
	// estimate (and the span it covers) from the last real pass in place.
	if st.Scanned > 0 {
		s.liveFrac.Store(liveFracBits(st))
		s.lastPassDisk.Store(scannableBytes(lg))
	}
	return out, nil
}

// scannableBytes is the stable-prefix span a pass can actually cover:
// [BeginAddress, SafeHeadAddress). FlushedUntil can run ahead of SafeHead
// (checkpoints flush without evicting), so gating on flushed bytes would
// trigger passes that scan nothing.
func scannableBytes(lg *hlog.Log) uint64 {
	sh, b := uint64(lg.SafeHeadAddress()), uint64(lg.BeginAddress())
	if sh <= b {
		return 0
	}
	return sh - b
}

// LastCompaction returns the most recent pass's statistics.
func (s *Server) LastCompaction() CompactStats {
	s.lastCompactMu.Lock()
	defer s.lastCompactMu.Unlock()
	return s.lastCompact
}

// liveFracBits packs a pass's live fraction (Kept/Scanned) into per-mille
// for the atomic the watermark policy reads.
func liveFracBits(st faster.CompactStats) uint64 {
	if st.Scanned == 0 {
		return 0
	}
	return uint64(st.Kept) * 1000 / uint64(st.Scanned)
}

// compactLoop is the background compaction service: every period it applies
// the watermark policy and runs a pass when the stable prefix has grown past
// the watermark AND the dead-byte estimate says the pass will reclaim a
// useful amount (approximating §3.3.3's "lazily compacted": an almost-fully-
// live log is left alone until overwrites accumulate more garbage).
//
// The estimate applies the previous pass's live fraction only to the bytes
// that pass covered; everything appended since counts as potentially dead.
// Without the split, one fully-live pass would freeze the estimate at zero
// dead bytes and the service could never observe the garbage accumulating
// after it.
func (s *Server) compactLoop(every time.Duration, watermark uint64) {
	defer s.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.bgQuit:
			return
		case <-tick.C:
		}
		scannable := scannableBytes(s.store.Log())
		if scannable < watermark {
			continue
		}
		liveFrac := s.liveFrac.Load()    // per-mille; 0 until a pass has run
		covered := s.lastPassDisk.Load() // scannable bytes after that pass
		if covered > scannable {
			covered = scannable
		}
		dead := covered*(1000-liveFrac)/1000 + (scannable - covered)
		if dead < watermark/4 {
			continue
		}
		// Best-effort: failures are counted inside Compact; ErrCompactionBusy
		// just means a migration is running and the next tick retries.
		s.Compact() //nolint:errcheck
	}
}

// handleCompactReq serves the MsgCompact admin message; the pass runs on its
// own goroutine so the dispatcher keeps polling (and crossing epoch cuts).
func (s *Server) handleCompactReq(c transport.Conn) {
	go func() {
		st, err := s.Compact()
		resp := wire.CompactResp{
			OK:        err == nil,
			Scanned:   uint64(st.Scanned),
			Kept:      uint64(st.Kept),
			Dropped:   uint64(st.Dropped),
			Relocated: uint64(st.Relocated),
			Begin:     uint64(st.Begin),

			ReclaimedBytes: st.ReclaimedBytes,
			TierReclaimed:  st.TierReclaimed,
		}
		if err != nil {
			resp.Err = err.Error()
		}
		c.Send(wire.EncodeCompactResp(resp))
	}()
}

// relocator buffers disowned records per current owner and ships them as
// MsgCompacted frames — the send side of §3.3.3's record relocation. Owners
// and their addresses come from the cluster snapshot the pass took before
// its scan (the server's own view no longer covers these hashes, by
// definition).
type relocator struct {
	s       *Server
	cluster *metadata.Snapshot
	pending map[string][]faster.CollectedRecord
	conns   map[string]transport.Conn
	sent    map[string]int // MsgCompacted frames awaiting MsgAck, per owner
	// failed is set on any undeliverable record or frame (owner unresolved,
	// dial/send failure). The pass then keeps its prefix and retries later.
	failed bool
}

func newRelocator(s *Server, cluster *metadata.Snapshot) *relocator {
	return &relocator{
		s:       s,
		cluster: cluster,
		pending: make(map[string][]faster.CollectedRecord),
		conns:   make(map[string]transport.Conn),
		sent:    make(map[string]int),
	}
}

// add buffers one disowned record for its current owner; nothing is sent
// until finish, which runs after the compaction session's epoch guard is
// released — a network send under the guard could stall every global cut
// (checkpoints, migration phases) behind a backpressured peer. The buffer
// grows with the pass's relocated set (the disowned live records of the
// scanned prefix); passes over a very large freshly-disowned prefix pay for
// that in memory — chunking the scan (scan, release guard, flush, resume)
// would bound it and is the natural next step if it bites. A record whose
// owner cannot be resolved right now
// (metadata churn, the ownership moved back mid-refresh) fails the pass: the
// record's only durable copy may be the prefix this pass wants to retire, so
// the retirement waits.
func (r *relocator) add(rec faster.CollectedRecord) bool {
	if r.failed {
		return false // pass already doomed: abort the scan
	}
	owner, ok := r.cluster.Owner(rec.Hash)
	if !ok || owner == r.s.cfg.ID {
		r.failed = true
		return false
	}
	r.pending[owner] = append(r.pending[owner], rec)
	return true
}

// ship sends owner's buffered records as MsgCompacted frames; the first
// undeliverable frame fails the pass and stops the rest.
func (r *relocator) ship(owner string, recs []faster.CollectedRecord) {
	out := recordBatch{max: frameRecords, send: func(frame []wire.MigrationRecord, _ bool) bool {
		r.failed = r.failed || !r.sendCompacted(owner, frame)
		return !r.failed
	}}
	for _, rec := range recs {
		out.add(rec)
	}
	out.flush(false)
	r.sent[owner] = out.frames
}

// sendCompacted ships one MsgCompacted frame on owner's (cached) connection.
func (r *relocator) sendCompacted(owner string, recs []wire.MigrationRecord) bool {
	c, ok := r.conns[owner]
	if !ok {
		addr, err := r.cluster.ServerAddr(owner)
		if err != nil {
			return false
		}
		if c, err = r.s.cfg.Transport.Dial(addr); err != nil {
			return false
		}
		r.conns[owner] = c
	}
	msg := wire.MigrationMsg{Type: wire.MsgCompacted, SourceID: r.s.cfg.ID, Records: recs}
	return c.Send(wire.EncodeMigrationMsg(&msg)) == nil
}

// finish ships every buffered batch and waits for the owners to acknowledge
// their frames, then closes the connections. All owners are polled
// round-robin under ONE shared progress deadline — each received ack (from
// any owner) extends it — so a large relocation set that owners are steadily
// working through completes, while wedged owners bound the whole pass at
// roughly one timeout rather than one per owner (the pass blocks migrations
// and Close for its duration). It reports whether every relocated record was
// confirmed delivered — the caller only retires (and later reclaims) the
// compacted prefix on true. Must run with the compaction session's guard
// suspended.
func (r *relocator) finish(timeout time.Duration) bool {
	for owner, recs := range r.pending {
		r.ship(owner, recs)
	}
	pending := make(map[string]transport.Conn)
	for owner, c := range r.conns {
		if r.sent[owner] > 0 {
			pending[owner] = c
		}
	}
	deadline := time.Now().Add(timeout)
	for len(pending) > 0 && time.Now().Before(deadline) {
		progress := false
		for owner, c := range pending {
			frame, ok, err := c.TryRecv()
			if err != nil {
				r.failed = true
				delete(pending, owner)
				continue
			}
			if !ok {
				continue
			}
			if t, err := wire.PeekType(frame); err == nil && t == wire.MsgAck {
				r.sent[owner]--
				progress = true
				if r.sent[owner] == 0 {
					delete(pending, owner)
				}
			}
		}
		if progress {
			deadline = time.Now().Add(timeout) // ack = progress
		} else {
			time.Sleep(200 * time.Microsecond)
		}
	}
	if len(pending) > 0 {
		r.failed = true
	}
	for _, c := range r.conns {
		c.Close()
	}
	return !r.failed
}
