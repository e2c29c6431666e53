package faster

// Second-chance read cache (PR 8). A record that lives below the HybridLog
// head is re-fetched from the device on every access; for a skewed workload
// whose hot set does not fit in memory that device round trip dominates
// cold-read latency. The cache copies such records back into the mutable
// region through the ordinary append path — a cached copy is just a newer
// record with the same value, so fences, CPR version stamps, compaction and
// migration treat it exactly like any other append and correctness falls out
// of the chain discipline.
//
// Promotion is probabilistic for scan resistance: the first disk hit on a
// key only sets its tag in a fixed-size second-chance filter; only a key
// seen again while its tag survives earns the copy. A one-pass scan touches
// every key once and promotes nothing.

// readCacheSlots sizes the second-chance filter tables (a power of two: slots
// are indexed by masking the hash).
const readCacheSlots = 8192

// cacheTag derives a non-zero filter tag from a key hash. Filter slots are
// indexed by the hash's low bits, so the tag draws on the high bits; zero is
// reserved for "empty".
func cacheTag(hash uint64) uint32 { return uint32(hash>>32) | 1 }

// maybeCachePromote runs on the session goroutine after a disk-resident read
// hit (resume, opRead match). p.rec aliases the op's span buffer, which stays
// valid for the duration of the call.
func (sess *Session) maybeCachePromote(p *pendingOp) {
	s := sess.s
	if s.cacheSeen == nil {
		return
	}
	i := p.hash & s.cacheMask
	tag := cacheTag(p.hash)
	slot := &s.cacheSeen[i]
	if slot.Load() != tag {
		slot.Store(tag) // first touch: second-chance bit only
		return
	}
	slot.Store(0)
	// Re-verify that the key's chain still ends on storage at exactly the
	// record we read: anything newer in memory (a concurrent upsert, a
	// migration ConditionalInsert) supersedes the copy, and a fence laid
	// while the read was in flight retires it.
	idx := s.index.FindOrCreateEntry(p.hash)
	res := sess.walkMemory(idx, p.key, p.hash)
	if res.status != walkBelowHead || res.addr != p.addr {
		return
	}
	if p.addr < s.fenceBelow(p.hash) {
		return
	}
	if sess.appendPromote(res, p.key, p.rec.Value()) {
		s.stats.ReadCacheCopies.Add(1)
		s.cachePromoted[i].Store(tag)
	}
}

// appendPromote appends the cached copy and installs it as the chain head
// with a single-shot CAS; failure invalidates the copy and gives up — a
// promote must never race ahead of whatever just moved the chain.
func (sess *Session) appendPromote(res walkResult, key, value []byte) bool {
	addr, rec, err := sess.append(res.entry.Address(), key, value, false)
	if err != nil {
		return false
	}
	if res.slot.CompareAndSwap(res.entry, newEntryFor(res.hash, addr)) {
		return true
	}
	rec.SetMeta(rec.Meta().WithInvalid())
	return false
}

// noteCacheHit counts an in-memory read hit on a key the cache promoted.
// Tag-based and therefore approximate (a collision or an independent write
// making the key resident counts too); the counter tracks how much of the
// memory-hit rate the cache is plausibly responsible for.
func (s *Store) noteCacheHit(hash uint64) {
	if s.cachePromoted != nil &&
		s.cachePromoted[hash&s.cacheMask].Load() == cacheTag(hash) {
		s.stats.ReadCacheHits.Add(1)
	}
}
