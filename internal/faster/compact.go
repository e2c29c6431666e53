package faster

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/hlog"
)

// Log compaction (§3.3.3): the stable prefix is scanned sequentially; live
// records are copied forward to the tail, stale versions are dropped, and —
// the Shadowfax twist — records whose hash range this server no longer owns
// are handed to relocate() for transmission to the current owner, which is
// also how indirection records between logs get cleaned up lazily.

// CompactStats reports what a compaction pass did.
type CompactStats struct {
	Scanned   int
	Kept      int // live records copied forward
	Dropped   int // superseded versions, tombstones, invalid, indirection
	Relocated int // records in hash ranges this server no longer owns
}

// ErrRelocateAborted is returned by Compact/CompactScan when the relocate
// callback reports it can no longer deliver records (e.g. the owner is
// unreachable): scanning further would only collect records into the same
// doomed batch, so the pass stops early. The prefix is left untouched for a
// later pass to rescan.
var ErrRelocateAborted = errors.New("faster: relocation aborted; compaction pass stopped")

// Compact scans [BeginAddress, upTo) from the device, copying live owned
// records to the tail and handing the newest version of each disowned key to
// relocate (may be nil to drop them; stale disowned versions always die
// here). relocate returns whether it accepted the record; false aborts the
// pass with ErrRelocateAborted. upTo is clamped to the safe head (only
// device-resident pages are scanned). owned may be nil, meaning "owns
// everything". The session must be exclusive to this call for its duration.
func (sess *Session) Compact(upTo hlog.Address, owned func(hash uint64) bool,
	relocate func(rec CollectedRecord) bool) (CompactStats, error) {
	st, end, err := sess.CompactScan(upTo, owned, relocate)
	if err != nil {
		return st, err
	}
	sess.s.log.TruncateUntil(end)
	return st, nil
}

// CompactScan is Compact without the final TruncateUntil: it returns the
// address the scan covered so the caller can advance the begin address only
// after any relocated records are confirmed delivered (a failed delivery
// must leave the prefix in place for the next pass to rescan — relocation
// re-sends are idempotent at the receiver, truncation is not).
func (sess *Session) CompactScan(upTo hlog.Address, owned func(hash uint64) bool,
	relocate func(rec CollectedRecord) bool) (CompactStats, hlog.Address, error) {
	var st CompactStats
	lg := sess.s.log
	if upTo > lg.SafeHeadAddress() {
		upTo = lg.SafeHeadAddress()
	}
	begin := lg.BeginAddress()
	if upTo <= begin {
		return st, begin, nil
	}
	pageBits := lg.PageBits()
	buf := lg.NewPageBuffer()
	endPage := upTo.Page(pageBits) // scan whole pages strictly below upTo's page
	for p := begin.Page(pageBits); p < endPage; p++ {
		if err := lg.ReadPageFromDevice(p, buf); err != nil {
			return st, begin, fmt.Errorf("faster: compaction read of page %d: %w", p, err)
		}
		base := hlog.Address(p << pageBits)
		var cerr error
		hlog.ScanPageBuffer(base, buf, func(addr hlog.Address, r hlog.Record) bool {
			st.Scanned++
			m := r.Meta()
			if m.Invalid() || m.Indirection() {
				// Indirection records in the stable prefix are dead: any
				// lookup that needed them resolved or will resolve through
				// the in-memory splice; the cross-log dependency is being
				// compacted away right now.
				st.Dropped++
				return true
			}
			key := r.Key()
			hash := HashOf(key)
			if owned != nil && !owned(hash) {
				// Relocate only the key's newest version: the receiver
				// installs records conditionally (first-in wins against the
				// indirection suffix), so shipping stale versions in scan
				// order could shadow the newest. Anything newer that lives
				// in memory was already shipped by the migration itself.
				live, err := sess.isNewestVersion(key, hash, addr)
				if err != nil {
					cerr = err
					return false
				}
				if live && relocate != nil {
					if !relocate(collect(hash, r, false)) {
						cerr = ErrRelocateAborted
						return false
					}
					st.Relocated++
				} else {
					st.Dropped++
				}
				return true
			}
			if m.Tombstone() {
				// Tombstones always die here, newest or not: everything
				// older is inside the compacted prefix, so dropping the
				// tombstone together with the versions it shadows erases
				// the key completely.
				st.Dropped++
				return true
			}
			copied, err := sess.compactCopyForward(key, hash, addr, r.Value())
			if err != nil {
				cerr = err
				return false
			}
			if copied {
				st.Kept++
			} else {
				// Superseded (a newer version exists in memory or on
				// storage) or lost the race to a concurrent writer whose
				// version is newer either way.
				st.Dropped++
			}
			sess.g.Refresh()
			return true
		})
		if cerr != nil {
			return st, begin, cerr
		}
		sess.g.Refresh()
	}
	return st, hlog.Address(endPage << pageBits), nil
}

// isNewestVersion reports whether addr holds key's newest version, following
// the chain through storage synchronously if needed (compaction is a
// background task; blocking reads are fine).
func (sess *Session) isNewestVersion(key []byte, hash uint64, addr hlog.Address) (bool, error) {
	slot := sess.s.index.FindEntry(hash)
	res := sess.walkMemory(slot, key, hash)
	switch res.status {
	case walkFound, walkTombstone:
		return res.addr == addr, nil
	case walkNotFound, walkIndirection:
		return false, nil
	}
	// Chain continues on storage: the first storage match decides.
	return sess.storageNewest(key, hash, res.addr, addr)
}

// compactCopyForward re-appends the record at addr to the tail iff it is
// still key's newest version, verifying and appending against ONE chain-head
// snapshot: the newest-version walk (memory, then storage) starts from the
// same entry the final CAS compares against, so a foreground write landing
// between verification and append changes the entry and forces a retry —
// without the shared snapshot, a concurrent upsert could slip in between and
// the stale compacted copy would be CASed in front of it, losing an
// acknowledged write. Reports whether the copy was installed (false: addr is
// superseded, unreachable, or behind an indirection).
func (sess *Session) compactCopyForward(key []byte, hash uint64, addr hlog.Address,
	value []byte) (bool, error) {
	for {
		slot := sess.s.index.FindOrCreateEntry(hash)
		res := sess.walkMemory(slot, key, hash)
		switch res.status {
		case walkFound, walkTombstone:
			// An in-memory version exists; addr (device-resident, below the
			// safe head) is necessarily older.
			return false, nil
		case walkNotFound, walkIndirection:
			// The chain never reaches addr (terminated in memory, or defers
			// to a remote suffix): the record is dead weight.
			return false, nil
		}
		// Chain continues on storage at res.addr: the first storage match
		// decides newest-ness (compaction is a background task; blocking
		// reads are fine).
		newest, err := sess.storageNewest(key, hash, res.addr, addr)
		if err != nil {
			return false, err
		}
		if !newest {
			return false, nil
		}
		if sess.condAppend(res, key, value, false) {
			return true, nil
		}
		// The chain head moved between the snapshot and the CAS: re-verify
		// against the new head before trying again.
	}
}

// storageNewest walks the on-device chain from start and reports whether
// addr holds key's first (hence newest) storage match. The walk stops at the
// key's ownership fence: records below it are retired, so a fenced addr is
// never newest (it is dead and must not be copied forward).
func (sess *Session) storageNewest(key []byte, hash uint64, start, addr hlog.Address) (bool, error) {
	lg := sess.s.log
	fence := sess.s.fenceBelow(hash)
	cur := start
	for cur != hlog.InvalidAddress && cur >= lg.BeginAddress() && cur >= fence {
		rec, err := lg.ReadRecordFromDevice(cur, sess.s.cfg.ReadHintBytes+len(key))
		if err != nil {
			return false, err
		}
		m := rec.Meta()
		if !m.Invalid() && !m.Indirection() && bytes.Equal(rec.Key(), key) {
			return cur == addr, nil
		}
		cur = m.Previous()
	}
	return false, nil
}
