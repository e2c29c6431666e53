package faster

import (
	"errors"

	"repro/internal/hashidx"
	"repro/internal/hlog"
)

// ErrScanAborted is returned by ReplScan when the emit callback stopped the
// scan (the replica detached mid-sync).
var ErrScanAborted = errors.New("faster: replication scan aborted")

// This file implements the store-level half of primary→backup replication:
// sealing a version over the CPR cut without writing a checkpoint image, and
// scanning the sealed prefix so it can be shipped to a backup as ordinary
// records (installed there via ConditionalInsert, exactly like migration).

// SealVersion advances the CPR version over an asynchronous global cut.
// onCut runs on a background goroutine after every thread has crossed the
// cut, receiving the sealed version and the tail captured before the bump:
// every record stamped sealed+1 is allocated after the bump, hence lives at
// or above cutTail, so a scan below it (ReplScan) or a recovery that filters
// only above it (CheckpointCut's image) covers exactly the operations
// acknowledged before the cut — and the 11-bit masked version comparison
// stays unambiguous, because within one cut's window only sealed and
// sealed+1 coexist.
//
// Sealers are serialized by the caller (the server's checkpoint mutex). An
// overlapping seal — a second SealVersion before the first cut's image or
// scan has finished — stamps records sealed+2 above the first cut's cutTail,
// which recovery's filter keeps (it drops only sealed+1): post-cut operations
// leak into the recovered state and are then replayed a second time.
//
// The cut's correctness requires that a guard crossing implies version
// adoption for every session that stamps records: server sessions run in
// manual-refresh mode (Session.SetManualRefresh) so they cross only at
// batch boundaries. One narrow residual window remains — hlog.Allocate
// refreshes the caller's guard while spinning on a page roll, which can
// complete the bump mid-batch; it is only reachable under allocator
// contention or memory pressure in the same instant a seal drains.
//
// Sessions that cross the cut early must additionally stall their write
// intake until CutPending clears: a sealed+1 record appended while another
// session still executes under the sealed version can be folded into that
// session's copy-on-write and re-stamped below the cut, poisoning the
// sealed prefix (see Store.CutPending).
func (s *Store) SealVersion(onCut func(sealed uint32, cutTail hlog.Address)) {
	s.cutsPending.Add(1)
	cutTail := s.log.TailAddress()
	sealed := s.version.Add(1) - 1
	s.epoch.BumpWithAction(func() {
		s.cutsPending.Add(-1)
		go onCut(sealed, cutTail)
	})
}

// AdvanceVersionTo raises the store's CPR version to at least v (no-op when
// already there). A backup applying a primary's replication stream adopts the
// primary's post-cut version so the records it appends carry stamps
// consistent with the stream's cut.
func (s *Store) AdvanceVersionTo(v uint32) {
	for {
		cur := s.version.Load()
		if cur >= v || s.version.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ReplScan walks every hash chain and emits the newest pre-cut version of
// every key — the base state a freshly attached backup needs. A record is
// pre-cut when it was allocated below cutTail or carries a version stamp
// other than sealed+1 (the masked comparison is unambiguous because the
// caller prevents further version bumps while the scan runs, so only sealed
// and sealed+1 coexist). Records below a hash's ownership fence are retired
// leftovers and are never shipped; tombstones are shipped as deletions so
// the backup's ConditionalInsert preserves them. Indirection records (shared
// tier, §3.3.2) are not replicated: their count is returned so the caller
// can surface the limitation.
//
// emit returns false to abort the scan (replica detached mid-sync). The
// session's epoch guard is held across each chain and refreshed between
// chains, so in-memory frames cannot recycle mid-walk.
func (sess *Session) ReplScan(sealed uint32, cutTail hlog.Address,
	emit func(CollectedRecord) bool) (skippedIndirections int, err error) {
	lg := sess.s.log
	seen := make(map[string]struct{}, 256)
	abort := false
	sess.s.index.ForEachEntryInBuckets(0, sess.s.index.NumBuckets(),
		func(_ uint64, slot hashidx.Slot) bool {
			sess.Refresh()
			e := slot.Load()
			if e.Free() {
				return true
			}
			clear(seen)
			begin := lg.BeginAddress()
			addr := e.Address()
			for addr != hlog.InvalidAddress && addr >= begin {
				live := lg.InMemory(addr)
				var rec hlog.Record
				if live {
					rec = lg.RecordAt(addr)
				} else if rec, err = lg.ReadRecordFromDevice(addr, sess.s.cfg.ReadHintBytes); err != nil {
					return false
				}
				m := rec.Meta()
				switch {
				case m.Indirection() && !m.Invalid():
					skippedIndirections++
				case addr >= cutTail && hlog.SameVersion(m.Version(), sealed+1):
					// Post-cut records only exist at or above cutTail; skip them
					// without consuming the key's "seen" slot — its newest pre-cut
					// version sits further down the chain.
				default:
					if h, ok := sess.s.shippable(addr, rec, 0, ^uint64(0)); ok {
						k := string(rec.Key())
						if _, dup := seen[k]; !dup {
							seen[k] = struct{}{}
							if !emit(collect(h, rec, live)) {
								abort = true
								return false
							}
						}
					}
				}
				addr = m.Previous()
			}
			return true
		})
	if abort {
		return skippedIndirections, ErrScanAborted
	}
	return skippedIndirections, err
}
