package faster

import (
	"repro/internal/hashidx"
	"repro/internal/hlog"
)

// This file implements the store-level primitives Shadowfax's migration
// protocol (§3.3) builds on: conditional inserts of migrated records,
// indirection-record splicing, and chain collection.

// ConditionalInsert installs a migrated record only if the key has no
// version in this store (a present version — even a tombstone — is newer
// than anything arriving via migration). tombstone preserves a migrated
// deletion. Returns StatusOK if installed, StatusNotFound if dropped, or
// StatusPending if the decision needs a storage read of the chain.
func (sess *Session) ConditionalInsert(key, value []byte, tombstone bool, cb Callback) Status {
	sess.maybeRefresh()
	if sess.s.tooBig(key, value) {
		invoke(cb, StatusError, nil)
		return StatusError
	}
	hash := HashOf(key)
	slot := sess.s.index.FindOrCreateEntry(hash)
	for {
		res := sess.walkMemory(slot, key, hash)
		switch res.status {
		case walkFound, walkTombstone:
			invoke(cb, StatusNotFound, nil)
			return StatusNotFound
		case walkIndirection:
			// The local chain defers to a remote suffix for this hash
			// range. The migrated record is at least as new as anything in
			// that suffix, so install it locally in front.
			if sess.condAppend(res, key, value, tombstone) {
				invoke(cb, StatusOK, nil)
				return StatusOK
			}
		case walkBelowHead:
			p := sess.newPendingOp(opCondInsert, key, value, hash, res.addr,
				completion{cb: cb})
			p.meta = boolMeta(tombstone)
			sess.enqueueRead(p)
			return StatusPending
		case walkNotFound:
			if sess.condAppend(res, key, value, tombstone) {
				invoke(cb, StatusOK, nil)
				return StatusOK
			}
		}
	}
}

func boolMeta(tombstone bool) hlog.Meta {
	return hlog.NewMeta(hlog.InvalidAddress, 0, false, tombstone)
}

// condAppend appends a migrated record with a single-shot chain-head CAS;
// on failure the record is invalidated and the caller re-walks (the chain
// may now contain a newer version of the key).
func (sess *Session) condAppend(res walkResult, key, value []byte, tombstone bool) bool {
	addr, rec, err := sess.append(res.entry.Address(), key, value, tombstone)
	if err != nil {
		return false
	}
	if res.slot.CompareAndSwap(res.entry, newEntryFor(res.hash, addr)) {
		return true
	}
	rec.SetMeta(rec.Meta().WithInvalid())
	return false
}

// SpliceIndirection appends an indirection record (§3.3.2) and links it at
// the *tail* of the hash chain selected by repHash, so lookups consult all
// local records before deferring to the remote suffix. payload is the
// encoded IndirectionPayload. Returns StatusError if the local chain's last
// record is outside the mutable region — on storage, or in a page already
// handed to the flusher, whose device image would not carry the link and
// would end the chain there once the page is evicted (splicing would need
// storage writes; the caller falls back to eager fetching).
func (sess *Session) SpliceIndirection(repHash uint64, payload []byte) Status {
	sess.maybeRefresh()
	slot := sess.s.index.FindOrCreateEntry(repHash)

	// Append the indirection record itself: empty key, payload value.
	size := hlog.RecordSize(0, len(payload))
	indAddr, buf, err := sess.s.log.Allocate(sess.g, size)
	if err != nil {
		return StatusError
	}
	meta := hlog.NewMeta(hlog.InvalidAddress, sess.ver, true, false)
	hlog.WriteRecord(buf, meta, nil, payload)

	for {
		entry := slot.Load()
		if entry.Address() == hlog.InvalidAddress {
			if slot.CompareAndSwap(entry, newEntryFor(repHash, indAddr)) {
				return StatusOK
			}
			continue
		}
		// Walk to the chain's last in-memory record and hook the new
		// record beneath it.
		head := sess.s.log.HeadAddress()
		readOnly := sess.s.log.ReadOnlyAddress()
		addr := entry.Address()
		for {
			if addr < head {
				return StatusError // chain continues on storage
			}
			rec := sess.s.log.RecordAt(addr)
			m := rec.Meta()
			prev := m.Previous()
			if prev == hlog.InvalidAddress {
				if addr < readOnly {
					return StatusError // the link would not reach storage
				}
				if rec.CASMeta(m, m.WithPrevious(indAddr)) {
					return StatusOK
				}
				m = rec.Meta() // seal toggled or concurrent splice; retry
				continue
			}
			addr = prev
		}
	}
}

// CollectedRecord is one record harvested from a chain during migration.
type CollectedRecord struct {
	Hash      uint64
	Key       []byte // nil for indirection records
	Value     []byte
	Tombstone bool
	// Indirection marks a synthesized indirection payload (Value holds the
	// encoded IndirectionPayload).
	Indirection bool
}

// CollectChain walks one hash chain (rooted at the index slot) and collects
// the newest version of every key in [rangeStart, rangeEnd). When the chain
// descends below the head address the walk stops and, if makeIndirection is
// set, a single indirection record pointing at the remainder is emitted
// (§3.3.2); otherwise the on-storage remainder is skipped (the caller scans
// storage separately, as the Rocksteady baseline does).
//
// bucket is the chain's main-bucket index (from ForEachEntryInBuckets); it
// combines with the entry tag into a representative hash that reproduces the
// chain's placement at the target. seen is a reusable set for newest-version
// dedup; pass an empty map.
func (sess *Session) CollectChain(bucket uint64, slot hashidx.Slot, rangeStart, rangeEnd uint64,
	makeIndirection bool, seen map[string]struct{}, emit func(CollectedRecord)) {
	entry := slot.Load()
	// repHash reproduces (bucket, tag): the low bits place the chain in a
	// bucket, the top 14 bits are the tag.
	repHash := uint64(entry.Tag())<<50 | bucket
	lg := sess.s.log
	head := lg.HeadAddress()
	begin := lg.BeginAddress()
	addr := entry.Address()
	for addr != hlog.InvalidAddress && addr >= begin {
		if addr < head {
			if makeIndirection {
				payload := hlog.EncodeIndirection(hlog.IndirectionPayload{
					NextAddress: addr,
					LogID:       lg.LogID(),
					RangeStart:  rangeStart,
					RangeEnd:    rangeEnd,
					HashBucket:  repHash,
				})
				emit(CollectedRecord{Hash: repHash, Value: payload, Indirection: true})
			}
			return
		}
		rec := lg.RecordAt(addr)
		m := rec.Meta()
		if m.Invalid() {
			addr = m.Previous()
			continue
		}
		if m.Indirection() {
			// Forward an existing indirection record if its range overlaps
			// the migrating range (chained migrations).
			if p, ok := hlog.DecodeIndirection(rec.Value()); ok &&
				p.RangeStart < rangeEnd && p.RangeEnd > rangeStart {
				emit(CollectedRecord{Hash: p.HashBucket,
					Value: append([]byte(nil), rec.Value()...), Indirection: true})
			}
			addr = m.Previous()
			continue
		}
		h := HashOf(rec.Key())
		if h >= rangeStart && h < rangeEnd && addr >= sess.s.fenceBelow(h) {
			// Records below the hash's ownership fence are retired leftovers
			// from an earlier tenancy of the range — never ship them.
			k := string(rec.Key())
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				emit(CollectedRecord{
					Hash:      h,
					Key:       append([]byte(nil), rec.Key()...),
					Value:     rec.ReadValueStable(nil),
					Tombstone: m.Tombstone(),
				})
			}
		}
		addr = m.Previous()
	}
}
