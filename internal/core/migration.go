package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Migration phases on the source (§3.3). Transitions happen on asynchronous
// global cuts: every dispatcher enters a phase at a point of its own
// choosing between request batches, and the transition trigger fires once
// all have.
type migPhase int32

const (
	phaseIdle migPhase = iota
	phaseSampling
	phasePrepare
	phaseTransfer
	phaseMigrate
	phaseDiskScan // only on a source with no shared tier (afterCollection)
	phaseComplete
)

func (p migPhase) String() string {
	switch p {
	case phaseIdle:
		return "Idle"
	case phaseSampling:
		return "Sampling"
	case phasePrepare:
		return "Prepare"
	case phaseTransfer:
		return "Transfer"
	case phaseMigrate:
		return "Migrate"
	case phaseDiskScan:
		return "DiskScan"
	case phaseComplete:
		return "Complete"
	default:
		return "?"
	}
}

// MigrationReport summarizes a finished outbound migration (the quantities
// of the paper's Figures 13 and 14).
type MigrationReport struct {
	ID               uint64
	Range            metadata.HashRange
	Started          time.Time
	OwnershipAt      time.Time
	RecordsDone      time.Time
	Finished         time.Time
	SampledRecords   int
	RecordsSent      uint64
	IndirectionsSent uint64
	BytesFromMemory  uint64
	DiskScanRecords  uint64 // > 0: the source had no shared tier and scanned its device
}

// sourceMigration is the source-side state machine.
type sourceMigration struct {
	s       *Server
	mig     metadata.MigrationState
	rng     metadata.HashRange
	newView metadata.View
	target  string
	tgtAddr string

	phase atomic.Int32

	sampleCut hlog.Address // tail at Sampling start

	transferAcks atomic.Int64 // dispatchers past the Transfer boundary (ackTransfer)

	cursor      atomic.Uint64 // bucket work-stealing cursor (Migrate phase)
	threadsDone atomic.Int64
	finishOnce  sync.Once

	report   MigrationReport
	reportMu sync.Mutex

	recordsSent     atomic.Uint64
	indirections    atomic.Uint64
	bytesFromMemory atomic.Uint64
	diskScanRecords atomic.Uint64
}

// targetMigration is the target-side state machine.
type targetMigration struct {
	s        *Server
	migID    uint64
	rng      metadata.HashRange
	sourceID string

	serving    atomic.Bool // true after TransferOwnership (sampled records in)
	completed  atomic.Bool // true once every shipped record is installed (finish)
	finishOnce sync.Once
	// fetches counts eager shared-tier chain fetches still installing
	// records for this migration (fetchRangeFromSharedTier).
	fetches atomic.Int64
}

// sourceState returns the active outbound migration, if any.
func (s *Server) sourceState() *sourceMigration {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.source
}

// targetSnapshot fills buf with the current inbound migrations and returns
// it. Callers hold the snapshot for at most one batch; the common
// no-migration case returns buf[:0] without allocating.
func (s *Server) targetSnapshot(buf []*targetMigration) []*targetMigration {
	buf = buf[:0]
	s.migMu.Lock()
	for _, tm := range s.targets {
		buf = append(buf, tm)
	}
	s.migMu.Unlock()
	return buf
}

// coveringTarget scans a snapshot for the not-yet-completed inbound
// migration whose range contains h. Disjoint in-flight ranges mean at most
// one can match.
func coveringTarget(tms []*targetMigration, h uint64) *targetMigration {
	for _, tm := range tms {
		if !tm.completed.Load() && tm.rng.Contains(h) {
			return tm
		}
	}
	return nil
}

// StartMigration initiates scale-out of rng from this server to target
// (§3.3 "Migrate() RPC"). It returns once the migration is registered; the
// protocol itself runs asynchronously across the dispatcher threads.
func (s *Server) StartMigration(target string, rng metadata.HashRange) (uint64, error) {
	s.migMu.Lock()
	if s.source != nil {
		s.migMu.Unlock()
		return 0, fmt.Errorf("core: migration already in progress")
	}
	if s.compactPass {
		// A compaction pass is scanning (and will truncate) the stable
		// prefix this migration would also read; let it finish and retry.
		s.migMu.Unlock()
		return 0, fmt.Errorf("core: compaction pass in flight; retry migration shortly")
	}
	var tgtAddr string
	snap, err := s.meta.Snapshot()
	if err == nil {
		tgtAddr, err = snap.ServerAddr(target)
	}
	if err != nil {
		s.migMu.Unlock()
		return 0, err
	}
	// One atomic metadata transition: remap ownership, bump both views,
	// register the dependency (§3.3 Sampling step 1).
	mig, newSrc, _, err := s.meta.StartMigration(s.cfg.ID, target, rng)
	if err != nil {
		s.migMu.Unlock()
		return 0, err
	}
	sm := &sourceMigration{
		s: s, mig: mig, rng: rng, newView: newSrc,
		target: target, tgtAddr: tgtAddr,
	}
	sm.report = MigrationReport{ID: mig.ID, Range: rng, Started: time.Now()}
	sm.phase.Store(int32(phaseSampling))
	sm.sampleCut = s.store.Log().TailAddress()
	s.source = sm
	s.migMu.Unlock()

	// Sampling step 2: force accessed records in the migrating range below
	// the cut to be copied to the tail.
	cut := sm.sampleCut
	s.store.SetSampleFilter(func(hash uint64, addr hlog.Address) bool {
		return addr < cut && rng.Contains(hash)
	})

	// The phase sequence advances on global cuts; the sampling window gets
	// a wall-clock floor so accesses can accumulate hot records.
	s.store.Epoch().BumpWithAction(func() {
		go sm.afterSamplingCut()
	})
	return mig.ID, nil
}

// afterSamplingCut runs once every thread has entered the Sampling phase.
func (sm *sourceMigration) afterSamplingCut() {
	time.Sleep(sm.s.cfg.SampleDuration)
	sm.phase.Store(int32(phasePrepare))
	// Prepare: tell the target that ownership transfer is imminent; the
	// RPC is asynchronous (the target also discovers the migration through
	// the metadata store if this frame races behind client traffic).
	sm.s.sendMigrationMsg(sm.tgtAddr, &wire.MigrationMsg{
		Type: wire.MsgPrepForTransfer, MigrationID: sm.mig.ID,
		SourceID: sm.s.cfg.ID, RangeStart: sm.rng.Start, RangeEnd: sm.rng.End,
	})
	sm.s.store.Epoch().BumpWithAction(func() {
		go sm.transfer()
	})
}

// transfer moves the source into the new view (it stops serving the
// migrating ranges); once every dispatcher is past that boundary
// (ackTransfer) afterViewCut ships sampled hot records with the
// TransferedOwnership RPC. The view is stored before the phase, so a
// dispatcher that sees Transfer validates its next batch against the new
// view.
func (sm *sourceMigration) transfer() {
	// Only move the view forward: a concurrent inbound migration may have
	// already advanced this server past the view StartMigration returned.
	if cur := sm.s.view.Load(); sm.newView.Number > cur.Number {
		nv := sm.newView.Clone()
		sm.s.view.Store(&nv)
	} else {
		sm.s.refreshView()
	}
	sm.phase.Store(int32(phaseTransfer))
}

// ackTransfer takes dispatcher d across the ownership-transfer boundary, once
// per migration: between batches, with the new view in force, it finishes
// every write it accepted under the old view that is still parked on storage
// I/O, then counts itself in; the last dispatcher starts afterViewCut. The
// sampled-record scan and the Migrate-phase collection run behind that
// count, so they see all of those writes — one landing later would never be
// shipped, or be shipped behind an older sampled version that the target
// keeps (ConditionalInsert is first-writer-wins). An epoch cut cannot stand
// in for the count: hlog.Allocate refreshes the guard while it waits for a
// frame, so under memory pressure a dispatcher crosses cuts mid-batch.
func (d *dispatcher) ackTransfer(sm *sourceMigration) bool {
	if d.migAckID == sm.mig.ID {
		return false
	}
	d.sess.CompletePending(true)
	d.migAckID = sm.mig.ID
	if sm.transferAcks.Add(1) == int64(d.s.cfg.Threads) {
		go sm.afterViewCut()
	}
	return true
}

// sampleLimit caps the sampled hot records shipped at ownership transfer.
const sampleLimit = 4096

func (sm *sourceMigration) afterViewCut() {
	s := sm.s
	// The TransferedOwnership RPC is one frame (the target starts serving the
	// range on it), so its batch is sized to the whole sample.
	out := recordBatch{max: sampleLimit, send: func(recs []wire.MigrationRecord, _ bool) bool {
		sm.reportMu.Lock()
		sm.report.OwnershipAt = time.Now()
		sm.report.SampledRecords = len(recs)
		sm.reportMu.Unlock()
		s.sendMigrationMsg(sm.tgtAddr, &wire.MigrationMsg{
			Type: wire.MsgTransferOwnership, MigrationID: sm.mig.ID,
			SourceID: s.cfg.ID, RangeStart: sm.rng.Start, RangeEnd: sm.rng.End,
			ViewNumber: sm.newView.Number, Records: recs,
		})
		return true
	}}
	// The hot records accumulated above the sampling cut.
	sess := s.fetchAux.acquire(s.store)
	sess.CollectSampled(sm.sampleCut, sm.rng.Start, sm.rng.End, sampleLimit,
		func(rec faster.CollectedRecord) { out.add(rec) })
	s.fetchAux.release()
	s.store.SetSampleFilter(nil)
	out.flush(true)
	// Migrate phase: dispatchers pick up collection work from the cursor.
	sm.phase.Store(int32(phaseMigrate))
}

// migrationChunkBuckets is the unit of work a thread claims from the hash
// table while collecting records (interleaved with request processing).
const migrationChunkBuckets = 256

// sourceMigrationStep performs one unit of Migrate-phase work on dispatcher
// d: claim a chunk of hash-table buckets, collect chains, ship a batch.
// Returns whether work was done (§3.3: threads interleave this with request
// processing; each thread works on independent hash table regions).
func (s *Server) sourceMigrationStep(d *dispatcher) bool {
	sm := s.sourceState()
	if sm == nil {
		return false
	}
	if phase := migPhase(sm.phase.Load()); phase == phaseTransfer {
		return d.ackTransfer(sm)
	} else if phase != phaseMigrate {
		return false
	}
	ix := s.store.Index()
	n := ix.NumBuckets()
	out := d.migrationBatch(sm)
	b0 := sm.cursor.Add(migrationChunkBuckets) - migrationChunkBuckets
	if b0 >= n {
		// Collection finished; flush this thread's remainder and count it
		// done exactly once per thread.
		if d.migDoneID != sm.mig.ID {
			out.flush(true)
			d.migDoneID = sm.mig.ID
			if sm.threadsDone.Add(1) == int64(s.cfg.Threads) {
				sm.finishOnce.Do(func() { go sm.afterCollection() }) //shadowfax:ignore epochblock the once body only spawns a goroutine; the last dispatcher to arrive runs it inline and returns immediately
			}
			return true
		}
		return false
	}
	end := b0 + migrationChunkBuckets
	if end > n {
		end = n
	}
	seen := make(map[string]struct{})
	// Indirection records are only useful when the target can resolve them —
	// they name a (LogID, address) suffix in the shared tier. Without a tier
	// the target's fetch would come back empty and materialize a tombstone,
	// silently deleting every key whose chain lives below this server's head
	// (after a crash-recovery that is the entire recovered range). Fall back
	// to the Rocksteady-style on-device scan instead (afterCollection).
	useIndirections := s.store.Log().Tier() != nil
	ix.ForEachEntryInBuckets(b0, end, func(bucket uint64, slot faster.IndexSlot) bool {
		d.sess.CollectChain(bucket, slot, sm.rng.Start, sm.rng.End,
			useIndirections, seen, func(rec faster.CollectedRecord) {
				sm.recordsSent.Add(1)
				sm.bytesFromMemory.Add(uint64(16 + len(rec.Key) + len(rec.Value)))
				if rec.Indirection {
					sm.indirections.Add(1)
				}
				out.add(rec)
			})
		return true
	})
	return true
}

// migrationBatch returns this dispatcher's outbound record batch for sm, set
// up on the dispatcher's first use in each migration: its frames travel the
// thread's private connection to the target (parallel migration, §3.3),
// dialed per migration — records sent on a connection left over from an
// earlier migration, possibly to a different target, would install on the
// wrong server and silently vanish from this one.
func (d *dispatcher) migrationBatch(sm *sourceMigration) *recordBatch {
	if d.migConnID != sm.mig.ID {
		if d.migConn != nil {
			d.migConn.Close()
			d.migConn = nil
		}
		d.migConnID = sm.mig.ID
		d.migOut = recordBatch{max: frameRecords, send: func(recs []wire.MigrationRecord, final bool) bool {
			if d.migConn == nil {
				c, err := d.s.cfg.Transport.Dial(sm.tgtAddr)
				if err != nil {
					return false // the next frame dials again
				}
				d.migConn = c
			}
			return sm.sendRecords(d.migConn, recs, final)
		}}
	}
	return &d.migOut
}

// sendRecords ships one MsgMigrationRecords frame of this migration on c.
func (sm *sourceMigration) sendRecords(c transport.Conn, recs []wire.MigrationRecord, final bool) bool {
	msg := wire.MigrationMsg{
		Type: wire.MsgMigrationRecords, MigrationID: sm.mig.ID,
		SourceID: sm.s.cfg.ID, RangeStart: sm.rng.Start, RangeEnd: sm.rng.End,
		Final: final, Records: recs,
	}
	return c.Send(wire.EncodeMigrationMsg(&msg)) == nil
}

// afterCollection runs once every thread finished the Migrate phase. With a
// shared tier the indirection records already cover everything below head;
// without one the stable region is still to ship (diskScan).
func (sm *sourceMigration) afterCollection() {
	sm.awaitFinalAcks()
	sm.reportMu.Lock()
	sm.report.RecordsDone = time.Now()
	sm.reportMu.Unlock()
	if sm.s.store.Log().Tier() == nil {
		// No shared tier means the memory pass shipped no indirection
		// records for the chains below head; ship the on-device suffix
		// directly, as Rocksteady does (§4.1).
		sm.phase.Store(int32(phaseDiskScan))
		sm.diskScan()
	}
	sm.complete()
}

// awaitFinalAcks blocks until the target has acknowledged every dispatcher's
// final record frame for this migration. CompleteMigration travels on its
// own connection and would otherwise overtake the record streams; the acks
// order it strictly after every record is installed (or decided) at the
// target. Safe to touch the dispatchers' migration connections here: every
// dispatcher finished its final flush before threadsDone reached the thread
// count (which is what scheduled this goroutine), and no new outbound
// migration can claim the connections until complete() clears s.source. A
// dispatcher whose dial failed has no connection (and its records were
// already lost on the send path); the deadline keeps a dead target from
// wedging the source forever.
func (sm *sourceMigration) awaitFinalAcks() {
	deadline := time.Now().Add(migrationAckTimeout)
	for _, d := range sm.s.threads {
		if d.migConnID != sm.mig.ID || d.migConn == nil {
			continue
		}
		awaitAck(d.migConn, deadline)
	}
}

// migrationAckTimeout bounds how long the source waits for the target to
// acknowledge a final record frame before giving up on the ordering
// guarantee (the target is presumed dead; completion proceeds so the
// metadata dependency can still be collected).
const migrationAckTimeout = 30 * time.Second

// awaitAck waits on conn for the target's MsgAck until deadline; a dead
// connection ends the wait as the deadline does (see migrationAckTimeout).
func awaitAck(conn transport.Conn, deadline time.Time) {
	_, _ = transport.AwaitFrame(conn, byte(wire.MsgAck), deadline, nil)
}

// diskScan is the second phase for a source that cannot leave indirection
// records behind because it has no shared tier (Rocksteady's scan-the-log
// migration): a single thread ships the live records of the migrating range
// from the stable region on the local SSD, newest first (Store.CollectStable).
func (sm *sourceMigration) diskScan() {
	conn, err := sm.s.cfg.Transport.Dial(sm.tgtAddr)
	if err != nil {
		return
	}
	defer conn.Close()
	out := recordBatch{max: frameRecords, send: func(recs []wire.MigrationRecord, final bool) bool {
		return sm.sendRecords(conn, recs, final)
	}}
	sm.s.store.CollectStable(sm.rng.Start, sm.rng.End, func(rec faster.CollectedRecord) {
		sm.diskScanRecords.Add(1)
		out.add(rec)
	})
	out.flush(true)
	// Same ordering requirement as the dispatchers' record streams: the
	// final frame must be acked before complete() may run.
	awaitAck(conn, time.Now().Add(migrationAckTimeout))
}

// complete sends CompleteMigration, takes the source's checkpoint — the
// ordinary durable one, when a checkpoint device is configured; a memory-only
// server has nothing to make durable and takes none — marks the source side
// done in the metadata store, and returns the server to normal operation
// (§3.3 Complete).
func (sm *sourceMigration) complete() {
	s := sm.s
	sm.phase.Store(int32(phaseComplete))
	s.sendMigrationMsg(sm.tgtAddr, &wire.MigrationMsg{
		Type: wire.MsgCompleteMigration, MigrationID: sm.mig.ID,
		SourceID: s.cfg.ID, RangeStart: sm.rng.Start, RangeEnd: sm.rng.End,
	})
	if s.images != nil {
		s.Checkpoint() //nolint:errcheck // failures are counted inside; the side is marked done regardless
	}
	s.meta.MarkMigrationDone(sm.mig.ID, s.cfg.ID)

	sm.reportMu.Lock()
	sm.report.Finished = time.Now()
	sm.report.RecordsSent = sm.recordsSent.Load()
	sm.report.IndirectionsSent = sm.indirections.Load()
	sm.report.BytesFromMemory = sm.bytesFromMemory.Load()
	sm.report.DiskScanRecords = sm.diskScanRecords.Load()
	sm.reportMu.Unlock()

	s.migMu.Lock()
	s.lastReport = sm.report
	s.source = nil
	s.migMu.Unlock()
	sm.phase.Store(int32(phaseIdle))
}

// sendMigrationMsg dials a fresh connection for a control RPC; control
// traffic is rare and stays off the data sessions.
func (s *Server) sendMigrationMsg(addr string, m *wire.MigrationMsg) {
	c, err := s.cfg.Transport.Dial(addr)
	if err != nil {
		return
	}
	defer c.Close()
	c.Send(wire.EncodeMigrationMsg(m))
}

// LastMigrationReport returns the most recent outbound migration summary.
func (s *Server) LastMigrationReport() MigrationReport {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.lastReport
}

// ---------------------------------------------------------------------------
// Target side

// discoverTargetMigration checks snap — the snapshot refreshView just took —
// for inbound migrations; the target may learn about them from client
// traffic (view mismatch → refresh) before the sources' PrepForTransfer
// frames arrive. It also retires inbound migrations that were cancelled, so
// operations pended on their ranges become decidable again.
func (s *Server) discoverTargetMigration(snap *metadata.Snapshot) {
	live := make(map[uint64]bool) //shadowfax:ignore hotpathalloc runs only on a view-number mismatch (migration discovery), not on steady-state batches
	for _, m := range snap.PendingMigrationsFor(s.cfg.ID) {
		if m.Target != s.cfg.ID || m.TargetDone || m.Cancelled {
			continue
		}
		live[m.ID] = true
		s.ensureTargetMigration(snap, m.ID, m.Source, m.Range)
	}
	s.migMu.Lock()
	var stale []*targetMigration
	for id, tm := range s.targets {
		if !live[id] {
			stale = append(stale, tm)
		}
	}
	s.migMu.Unlock()
	for _, tm := range stale {
		m, err := snap.GetMigration(tm.migID)
		if err != nil || !m.Cancelled {
			continue
		}
		tm.completed.Store(true)
		s.retireTarget(tm.migID)
	}
}

// ensureTargetMigration returns the inbound-migration state for id,
// creating it (and laying its ownership fence) on first sight. It returns
// nil when the migration is already retired on this server — finished,
// cancelled, or collected — because re-creating it would lay a fence at the
// current tail over the live records the migration delivered (see
// targetsRetired). Callers must treat nil as "this migration is over". snap
// is the cluster state the caller already holds, or nil to have a first
// sight take its own.
func (s *Server) ensureTargetMigration(snap *metadata.Snapshot, id uint64, source string, rng metadata.HashRange) *targetMigration {
	s.migMu.Lock()
	if _, done := s.targetsRetired[id]; done {
		s.migMu.Unlock()
		return nil
	}
	if tm, ok := s.targets[id]; ok {
		s.migMu.Unlock()
		return tm
	}
	s.migMu.Unlock()

	// First sight of this id. Confirm against the metadata store (outside
	// migMu — dispatchers must never wait on a provider call under it) that
	// the migration is genuinely live: a recovering source's duplicate
	// control frame can name a migration this server already finished. An
	// unknown id means the dependency was collected — equally over.
	var err error
	if snap == nil {
		snap, err = s.meta.Snapshot()
	}
	if m, gerr := snap.GetMigration(id); err != nil || gerr != nil || m.TargetDone || m.Cancelled {
		s.retireTarget(id)
		return nil
	}

	s.migMu.Lock()
	defer s.migMu.Unlock()
	if _, done := s.targetsRetired[id]; done {
		return nil
	}
	if tm, ok := s.targets[id]; ok {
		return tm
	}
	if s.targets == nil {
		s.targets = make(map[uint64]*targetMigration) //shadowfax:ignore hotpathalloc once per server lifetime, on the first inbound migration
	}
	// Ownership fence (see faster/fence.go): everything already in the log
	// for this range predates the migration — leftovers from an earlier
	// tenancy that would otherwise shadow the authoritative records the
	// source is about to ship (ConditionalInsert keeps the first version it
	// finds). Laid before any shipped record or client write can land, so
	// the live data appends strictly above it.
	s.store.AddFence(rng.Start, rng.End, s.store.Log().TailAddress())
	tm := &targetMigration{s: s, migID: id, rng: rng, sourceID: source} //shadowfax:ignore hotpathalloc one allocation per inbound migration, not per batch
	s.targets[id] = tm
	return tm
}

// retireTarget marks an inbound migration as permanently over on this
// server and drops its live state, in one critical section.
func (s *Server) retireTarget(id uint64) {
	s.migMu.Lock()
	if s.targetsRetired == nil {
		s.targetsRetired = make(map[uint64]struct{}) //shadowfax:ignore hotpathalloc once per server lifetime, on the first retired migration
	}
	s.targetsRetired[id] = struct{}{}
	delete(s.targets, id)
	s.migMu.Unlock()
}

// handleMigrationMsg processes source→target protocol frames on the
// receiving dispatcher (§3.3: the target is mostly passive; its phase
// changes are triggered by source RPCs).
func (d *dispatcher) handleMigrationMsg(c transport.Conn, m *wire.MigrationMsg) {
	s := d.s
	switch m.Type {
	case wire.MsgPrepForTransfer:
		s.refreshView()
		s.ensureTargetMigration(nil, m.MigrationID, m.SourceID,
			metadata.HashRange{Start: m.RangeStart, End: m.RangeEnd})
		ack := wire.MigrationMsg{Type: wire.MsgAck, MigrationID: m.MigrationID}
		c.Send(wire.EncodeMigrationMsg(&ack))

	case wire.MsgTransferOwnership:
		s.refreshView()
		tm := s.ensureTargetMigration(nil, m.MigrationID, m.SourceID,
			metadata.HashRange{Start: m.RangeStart, End: m.RangeEnd})
		if tm != nil {
			// Install the sampled hot records, then begin serving the range
			// (Figure 14's head start). A nil tm means the migration already
			// finished here (duplicate frame): installing would resurrect
			// stale versions above the range's fence.
			installRecords(d.sess, tm, m.Records)
			d.sess.CompletePending(true)
			tm.serving.Store(true)
		}
		ack := wire.MigrationMsg{Type: wire.MsgAck, MigrationID: m.MigrationID}
		c.Send(wire.EncodeMigrationMsg(&ack))

	case wire.MsgMigrationRecords:
		tm := s.ensureTargetMigration(nil, m.MigrationID, m.SourceID,
			metadata.HashRange{Start: m.RangeStart, End: m.RangeEnd})
		if tm != nil {
			installRecords(d.sess, tm, m.Records)
		}
		if m.Final {
			// The source holds CompleteMigration until every record stream's
			// final frame is acked: record frames travel per-dispatcher
			// connections and would otherwise race the completion (the target
			// would retire the migration state while records are still in
			// flight, and a miss in that window reads as NotFound). Drain
			// pending installs first so the ack means "every record on this
			// stream is decided".
			for d.sess.Pending() > 0 {
				d.sess.CompletePending(true)
			}
			ack := wire.MigrationMsg{Type: wire.MsgAck, MigrationID: m.MigrationID}
			c.Send(wire.EncodeMigrationMsg(&ack))
		}

	case wire.MsgCompleteMigration:
		tm := s.ensureTargetMigration(nil, m.MigrationID, m.SourceID,
			metadata.HashRange{Start: m.RangeStart, End: m.RangeEnd})
		if tm != nil {
			tm.finishOnce.Do(func() { go tm.finish() }) //shadowfax:ignore epochblock the once body only spawns a goroutine; whichever dispatcher wins runs it inline and returns immediately
		}

	case wire.MsgCompacted:
		// §3.3.3: a record relocated by another server's compaction. If a
		// lookup runs into a covering indirection record, the key was never
		// fetched from the shared tier: install it. Otherwise discard. The
		// ack tells the compacting server this frame's records are decided,
		// so it may reclaim the storage their indirection chains point into —
		// which is why every record must be fully decided (pending I/O
		// drained, installs applied) before the ack leaves: a probe that
		// pends on a disk-resident indirection record and is acked
		// undecided would let the source truncate the very suffix the
		// install still needs.
		undecided := false
		for i := range m.Records {
			r := &m.Records[i]
			key, val := r.Key, r.Value
			tomb := r.Flags&wire.RecFlagTombstone != 0
			d.sess.Read(key, func(st faster.Status, _ []byte) {
				switch st {
				case faster.StatusIndirection:
					d.sess.ConditionalInsert(key, val, tomb, func(st2 faster.Status, _ []byte) {
						if st2 == faster.StatusError {
							undecided = true
						}
					})
				case faster.StatusError:
					undecided = true
				}
			})
		}
		// Drain until quiescent: probes may pend on storage, and their
		// installs may pend again. The frame buffer stays valid throughout
		// (next TryRecv happens after this handler returns).
		for d.sess.Pending() > 0 {
			d.sess.CompletePending(true)
		}
		if undecided {
			// A probe or install errored: withholding the ack makes the
			// source's pass fail, keep its prefix, and re-send later.
			return
		}
		ack := wire.MigrationMsg{Type: wire.MsgAck}
		c.Send(wire.EncodeMigrationMsg(&ack))
	}
}

// finish runs the target's completion. CompleteMigration follows the acks
// of every record stream, so all that can still be installing records are
// the eager chain fetches those streams started; only when they are done is
// a miss in the range authoritative (completed). Then it waits for the
// pending set to drain (every pended op is now decidable), takes the same
// checkpoint the source's complete does, and marks the target side done.
func (tm *targetMigration) finish() {
	s := tm.s
	for tm.fetches.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	tm.completed.Store(true)
	for s.stats.PendingOps.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	if s.images != nil {
		s.Checkpoint() //nolint:errcheck // failures are counted inside; the side is marked done regardless
	}
	// Retire locally before marking done in the metadata store: once the id
	// is in targetsRetired no stale snapshot can resurrect the migration, so
	// the mark's visibility order stops mattering.
	s.retireTarget(tm.migID)
	s.meta.MarkMigrationDone(tm.migID, s.cfg.ID)
}

// targetMigrationStep retries this dispatcher's waiting operations (see
// srvOp); it also runs after migrations, for operations waiting on
// shared-tier fetches. A retried slot that must keep waiting re-appends its
// token behind the n being walked.
func (s *Server) targetMigrationStep(d *dispatcher) bool {
	n := len(d.waiting)
	if n == 0 {
		return false
	}
	d.tmSnap = s.targetSnapshot(d.tmSnap)
	for i := 0; i < n; i++ {
		d.startOp(uint64(d.waiting[i]))
		s.stats.PendingOps.Add(-1)
	}
	d.waiting = d.waiting[:copy(d.waiting, d.waiting[n:])]
	return len(d.waiting) < n
}

// ---------------------------------------------------------------------------
// Shared-tier fetches (§3.3.2)

// fetchFromSharedTier asynchronously retrieves key's record from the remote
// suffix described by an encoded IndirectionPayload, inserts it locally, and
// thereby unblocks pended operations.
func (s *Server) fetchFromSharedTier(key []byte, payload []byte) {
	p, ok := hlog.DecodeIndirection(payload)
	if !ok {
		return
	}
	k := string(key) //shadowfax:ignore hotpathalloc shared-tier fetch is the slow path (record lives on the remote suffix); the map key copy is noise next to the RPC
	s.fetchMu.Lock()
	if _, inFlight := s.fetching[k]; inFlight {
		s.fetchMu.Unlock()
		return
	}
	s.fetching[k] = struct{}{}
	s.fetchMu.Unlock()

	go func() { //shadowfax:ignore hotpathalloc the fetch goroutine is the point: the dispatcher must not wait on the shared tier
		s.installFromTier(p, []byte(k)) // never nil, even for "": a nil key asks for the whole suffix
		s.fetchMu.Lock()
		delete(s.fetching, k)
		s.fetchMu.Unlock()
	}()
}

// fetchRangeFromSharedTier eagerly pulls an entire remote chain suffix in;
// the fallback when an indirection record cannot be spliced locally. The
// migration does not complete until the suffix is installed (finish).
func (tm *targetMigration) fetchRangeFromSharedTier(payload []byte) {
	p, ok := hlog.DecodeIndirection(payload)
	if !ok {
		return
	}
	tm.fetches.Add(1)
	go func() {
		defer tm.fetches.Add(-1)
		tm.s.installFromTier(p, nil)
	}()
}

// installFromTier installs what the shared-tier chain suffix p names holds:
// key's newest version, or with a nil key every record of p's range. A key
// the suffix does not hold is installed as a tombstone in front of the
// indirection record, so its absence becomes locally decidable too. The
// auxiliary session is held per installed frame, never across a tier read.
func (s *Server) installFromTier(p hlog.IndirectionPayload, key []byte) {
	s.stats.RemoteFetches.Add(1)
	in := recordBatch{max: frameRecords, send: func(recs []wire.MigrationRecord, _ bool) bool {
		installRecords(s.fetchAux.acquire(s.store), nil, recs)
		s.fetchAux.release()
		return true
	}}
	found := false
	s.store.WalkTierChain(p, key, func(rec faster.CollectedRecord) bool {
		found = true
		in.add(rec)
		return key == nil // a key's first match is its newest version
	})
	if key != nil && !found {
		in.add(faster.CollectedRecord{Key: key, Tombstone: true})
	}
	in.flush(false)
}
