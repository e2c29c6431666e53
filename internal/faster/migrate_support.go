package faster

import (
	"bytes"

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

// CollectedRecord is one record copied out of a log for shipment to another
// server: migration, compaction relocation, replica base sync, or a shared-
// tier fetch.
type CollectedRecord struct {
	Hash      uint64
	Key       []byte // nil for indirection records
	Value     []byte
	Tombstone bool
	// Indirection marks a synthesized indirection payload (Value holds the
	// encoded IndirectionPayload).
	Indirection bool
}

// dataIn reports whether rec is a valid data record (not an indirection)
// whose key hashes into [start, end), and returns that hash.
func dataIn(rec hlog.Record, start, end uint64) (hash uint64, ok bool) {
	if m := rec.Meta(); m.Invalid() || m.Indirection() {
		return 0, false
	}
	hash = HashOf(rec.Key())
	return hash, hash >= start && hash < end
}

// shippable is the one test every path that ships versions out of this
// store's own log applies (CollectChain, CollectSampled, CollectStable,
// ReplScan): a valid data record in [start, end) at or above its hash's
// ownership fence. Versions below the fence are retired leftovers from an
// earlier tenancy of the range and must never leave the server.
func (s *Store) shippable(addr hlog.Address, rec hlog.Record, start, end uint64) (uint64, bool) {
	hash, ok := dataIn(rec, start, end)
	return hash, ok && addr >= s.fenceBelow(hash)
}

// collect copies rec out of the log. live says rec sits in an in-memory
// frame, where its value may be updated in place while it is copied.
func collect(hash uint64, rec hlog.Record, live bool) CollectedRecord {
	cr := CollectedRecord{Hash: hash, Key: append([]byte(nil), rec.Key()...),
		Tombstone: rec.Meta().Tombstone()}
	if live {
		cr.Value = rec.ReadValueStable(nil)
	} else {
		cr.Value = append([]byte(nil), rec.Value()...)
	}
	return cr
}

// CollectChain walks one hash chain (rooted at the index slot) and collects
// the newest version of every key in [rangeStart, rangeEnd). When the chain
// descends below the head address the walk stops and, if makeIndirection is
// set, a single indirection record pointing at the remainder is emitted
// (§3.3.2); otherwise the on-storage remainder is skipped (the caller ships
// it separately with CollectStable, as Rocksteady does).
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
		if m.Indirection() && !m.Invalid() {
			// Forward an existing indirection record if its range overlaps
			// the migrating range (chained migrations).
			if p, ok := hlog.DecodeIndirection(rec.Value()); ok &&
				p.RangeStart < rangeEnd && p.RangeEnd > rangeStart {
				emit(CollectedRecord{Hash: p.HashBucket,
					Value: append([]byte(nil), rec.Value()...), Indirection: true})
			}
		} else if h, ok := sess.s.shippable(addr, rec, rangeStart, rangeEnd); ok {
			k := string(rec.Key())
			if _, dup := seen[k]; !dup {
				seen[k] = struct{}{}
				emit(collect(h, rec, true))
			}
		}
		addr = m.Previous()
	}
}

// CollectSampled emits the newest shippable version of up to limit keys of
// [rangeStart, rangeEnd) found in the in-memory log at or above from — the
// hot records the Sampling phase copied to the tail (§3.3). The log is
// oldest-first, so a key's later version replaces its earlier one.
func (sess *Session) CollectSampled(from hlog.Address, rangeStart, rangeEnd uint64, limit int,
	emit func(CollectedRecord)) {
	lg := sess.s.log
	if head := lg.HeadAddress(); from < head {
		from = head // pages below the head have been evicted under the scan's feet
	}
	newest := make(map[string]hlog.Address)
	lg.ScanMemory(from, lg.TailAddress(), func(addr hlog.Address, r hlog.Record) bool {
		if _, ok := sess.s.shippable(addr, r, rangeStart, rangeEnd); ok {
			newest[string(r.Key())] = addr
		}
		return true
	})
	for _, addr := range newest {
		if limit == 0 {
			return
		}
		limit--
		rec := lg.RecordAt(addr)
		emit(collect(HashOf(rec.Key()), rec, true))
	}
}

// CollectStable emits every shippable version of [rangeStart, rangeEnd) in
// the device-resident prefix [BeginAddress, SafeHeadAddress), strictly newest
// first: pages in descending address order, each page's records in reverse.
// It is the second pass for a source that cannot leave indirection records
// behind because it has no shared tier (Rocksteady's scheme; §4.1).
// The receiver installs with ConditionalInsert, which is first-writer-wins —
// arriving oldest-first, a key whose only versions are on the device would be
// resurrected at its oldest value. Only device pages are read, so no epoch
// guard is needed; a page that cannot be read ships nothing.
func (s *Store) CollectStable(rangeStart, rangeEnd uint64, emit func(CollectedRecord)) {
	lg := s.log
	pageBits := lg.PageBits()
	beginPage := lg.BeginAddress().Page(pageBits)
	buf := lg.NewPageBuffer()
	var recs []CollectedRecord
	for p := lg.SafeHeadAddress().Page(pageBits); p > beginPage; p-- {
		if lg.ReadPageFromDevice(p-1, buf) != nil {
			continue
		}
		recs = recs[:0]
		hlog.ScanPageBuffer(hlog.Address((p-1)<<pageBits), buf, func(addr hlog.Address, r hlog.Record) bool {
			if h, ok := s.shippable(addr, r, rangeStart, rangeEnd); ok {
				recs = append(recs, collect(h, r, false))
			}
			return true
		})
		for i := len(recs) - 1; i >= 0; i-- {
			emit(recs[i])
		}
	}
}

// WalkTierChain follows the chain suffix p names through the shared tier
// (§3.3.2), newest first, hopping into older logs through chained
// indirection records, and emits every valid data record whose hash lies in
// p's range. A non-nil key restricts the walk to that key: only its versions
// are emitted, and a hop whose range excludes it ends the walk. emit returns
// false to stop. A tier read error ends the walk like the end of the chain.
// The addresses belong to other servers' logs, so this store's fences do not
// apply and no epoch guard is needed.
func (s *Store) WalkTierChain(p hlog.IndirectionPayload, key []byte, emit func(CollectedRecord) bool) {
	tier := s.log.Tier()
	if tier == nil {
		return
	}
	keyHash := HashOf(key)
	logID, addr := p.LogID, p.NextAddress
	for addr != hlog.InvalidAddress {
		rec, err := hlog.ReadRecordFromTier(tier, logID, s.log.PageBits(), addr, 512+len(key))
		if err != nil {
			return
		}
		m := rec.Meta()
		if m.Indirection() {
			ip, ok := hlog.DecodeIndirection(rec.Value())
			if !ok || key != nil && (keyHash < ip.RangeStart || keyHash >= ip.RangeEnd) {
				return
			}
			logID, addr = ip.LogID, ip.NextAddress
			continue
		}
		if h, ok := dataIn(rec, p.RangeStart, p.RangeEnd); ok && (key == nil || bytes.Equal(rec.Key(), key)) {
			if !emit(collect(h, rec, false)) {
				return
			}
		}
		addr = m.Previous()
	}
}
