package faster

import (
	"bytes"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hashidx"
	"repro/internal/hlog"
)

// Session is one thread's handle onto a shared Store. A Session is owned by
// exactly one goroutine: operations, CompletePending and Refresh must not be
// called concurrently. Pending-operation callbacks run on the session's
// goroutine, inside CompletePending.
//
// Two completion styles coexist:
//
//   - Callback-based (Read/Upsert/RMW/Delete): the callback is invoked
//     exactly once — inline when the operation completes immediately, or
//     from CompletePending when it needed storage I/O.
//   - Token-based (ReadHash/UpsertHash/RMWHash/DeleteHash): the caller
//     supplies the key hash it already computed plus an opaque token, and
//     inline results come back as return values — no per-operation closure.
//     Only operations that go pending are routed to the session's
//     CompletionHandler, keyed by token. This is the server dispatch loop's
//     allocation-free hot path.
type Session struct {
	s *Store
	g *epoch.Guard

	// completions carries finished storage I/O back to the session
	// goroutine as the pending-op structs themselves (no closure per
	// completion); opFree recycles them.
	completions chan *pendingOp
	opFree      []*pendingOp
	inflight    atomic.Int64
	closed      bool

	// pipe is the session's pending-read pipeline: queued reads, coalesced
	// by address, submitted to the device in batches (pipeline.go).
	pipe readPipe

	// handler receives token-based pending completions.
	handler CompletionHandler

	opsSinceRefresh int

	// manualRefresh pins epoch crossings to explicit Refresh calls (set by
	// server dispatch loops, which refresh once per batch boundary). CPR
	// correctness depends on it: SealVersion/CheckpointCut treat "every
	// guard crossed the bump" as "no thread still stamps the sealed
	// version", so a session that refreshes its guard mid-batch (the
	// maybeRefresh valve) while keeping the old ver would let the cut's
	// scan race its still-pre-cut appends and session-table advances —
	// records leak into or out of the sealed image independently of the
	// durable watermark shipped with it.
	manualRefresh bool

	// ver is the session's thread-local CPR version (§2.1): every append is
	// stamped with it, and it advances only at Refresh — so all operations
	// between two Refresh calls (one server batch) belong to one version,
	// which is what lets recovery draw an exact cut through the fuzzy
	// checkpoint image.
	ver uint32

	// scratch buffers reused across operations to keep the data path
	// allocation-free.
	valBuf []byte
}

// Callback receives an operation's final status and, for reads, the value
// (valid only during the call; callers must copy to retain). For
// StatusIndirection the payload is the encoded indirection pointer.
type Callback func(st Status, value []byte)

// CompletionHandler receives the final status of token-based operations that
// returned StatusPending. It runs on the session goroutine, inside
// CompletePending; value (reads) is valid only during the call.
type CompletionHandler func(token uint64, st Status, value []byte)

// completion routes one operation's final result: to a caller-supplied
// callback, or — for token-based operations — to the session's
// CompletionHandler. Passed by value so the inline paths allocate nothing.
type completion struct {
	cb        Callback
	token     uint64
	tokenized bool
}

// deliver invokes the completion's sink.
func (sess *Session) deliver(comp completion, st Status, v []byte) {
	if comp.tokenized {
		if sess.handler != nil {
			sess.handler(comp.token, st, v)
		}
		return
	}
	invoke(comp.cb, st, v)
}

// maxPendingPerSession sizes a session's completion channel, so a device
// worker delivering a finished read never blocks on it.
const maxPendingPerSession = 4096

// NewSession registers a new thread with the store.
func (s *Store) NewSession() *Session {
	return &Session{
		s:           s,
		g:           s.epoch.Register(),
		completions: make(chan *pendingOp, maxPendingPerSession),
		ver:         s.version.Load(),
	}
}

// SetCompletionHandler installs the sink for token-based pending
// completions. Must be set before the first ReadHash/RMWHash that can go
// pending; a nil handler drops token-based completions.
func (sess *Session) SetCompletionHandler(h CompletionHandler) { sess.handler = h }

// Close unregisters the session. Outstanding pending operations are drained
// first.
func (sess *Session) Close() {
	if sess.closed {
		return
	}
	sess.CompletePending(true)
	sess.closed = true
	sess.g.Unregister()
}

// Refresh synchronizes the session's epoch view and adopts the current CPR
// version; server loops call this between request batches.
func (sess *Session) Refresh() {
	sess.g.Refresh()
	sess.ver = sess.s.version.Load()
}

// Version returns the CPR version the session currently stamps appends
// with. The server layer tags its session table with it so the checkpointed
// durable prefix and the log's version stamps agree exactly.
func (sess *Session) Version() uint32 { return sess.ver }

// Guard exposes the epoch guard (the server layer refreshes it while
// spinning on transport queues).
func (sess *Session) Guard() *epoch.Guard { return sess.g }

// SetManualRefresh pins the session's epoch crossings to explicit Refresh
// calls, disabling the mid-operation maybeRefresh valve and keeping the
// guard protected while CompletePending blocks. Server dispatch loops set
// it: they Refresh at every batch boundary anyway, and batch-granular CPR
// (§2.1) requires that the guard never cross a version bump while the
// session still stamps the pre-cut version — see the manualRefresh field.
func (sess *Session) SetManualRefresh(on bool) { sess.manualRefresh = on }

// maybeRefresh keeps long-running single-session workloads participating in
// global cuts even if the caller never calls Refresh explicitly. Sessions in
// manual-refresh mode skip it: their guard may only cross together with
// version adoption at an explicit Refresh.
func (sess *Session) maybeRefresh() {
	if sess.manualRefresh {
		return
	}
	sess.opsSinceRefresh++
	if sess.opsSinceRefresh >= 256 {
		sess.opsSinceRefresh = 0
		sess.g.Refresh()
	}
}

// Pending returns the number of operations awaiting storage I/O.
func (sess *Session) Pending() int { return int(sess.inflight.Load()) }

// CompletePending runs completions for finished storage I/O, first
// submitting any reads still queued on the pipeline. With wait set it blocks
// until no operations remain in flight; otherwise it drains what is ready
// and returns. Returns the number of completions processed.
func (sess *Session) CompletePending(wait bool) int {
	n := 0
	for {
		if len(sess.pipe.ready) > 0 {
			// Ops that coalesced onto an already-finished read complete
			// from the session-local ready list, oldest first.
			p := sess.pipe.ready[0]
			copy(sess.pipe.ready, sess.pipe.ready[1:])
			sess.pipe.ready = sess.pipe.ready[:len(sess.pipe.ready)-1]
			sess.resume(p)
			n++
			continue
		}
		select {
		case p := <-sess.completions:
			sess.resume(p)
			n++
			continue
		default:
		}
		// Submit whatever the drain (or the caller) queued before deciding
		// to return or block: a queued read is invisible to the device until
		// flushed, and blocking on an unsubmitted read would deadlock.
		sess.flushReads()
		if len(sess.pipe.ready) > 0 {
			continue // flush coalesced ops onto already-finished reads
		}
		if !wait || sess.inflight.Load() == 0 {
			return n
		}
		if sess.manualRefresh {
			// Stay epoch-protected while blocked: a dispatcher drains its
			// pending operations *before* crossing a sealed cut, and
			// suspending here would let the cut's bump drain mid-wait —
			// the resumed completions would then append pre-cut-stamped
			// records racing the base scan. The stall is bounded by one
			// storage round-trip and only delays cuts, never deadlocks
			// (completions are delivered by I/O goroutines that do not
			// wait on epochs).
			p := <-sess.completions
			sess.resume(p)
			n++
			continue
		}
		// Block for the next completion; keep the epoch unprotected so
		// flush/eviction cuts are not held up by an idle session.
		sess.g.Suspend()
		p := <-sess.completions
		sess.g.Resume()
		sess.resume(p)
		n++
	}
}

// walkResult describes where a chain walk for a key ended.
type walkResult struct {
	rec     hlog.Record  // valid when status is walkFound/walkIndirection
	addr    hlog.Address // address of rec, or first non-resident address
	status  walkStatus
	entry   hashidx.Entry // chain head observed at walk start
	slot    hashidx.Slot
	hash    uint64
	mutable bool // rec lies in the in-place-update region
}

type walkStatus uint8

const (
	walkFound       walkStatus = iota // matching live record in memory
	walkTombstone                     // matching tombstone in memory
	walkNotFound                      // chain exhausted without a match
	walkBelowHead                     // chain continues on storage at addr
	walkIndirection                   // indirection record covering the hash
)

// walkMemory traverses the in-memory portion of key's hash chain.
func (sess *Session) walkMemory(slot hashidx.Slot, key []byte, hash uint64) walkResult {
	res := walkResult{slot: slot, hash: hash, status: walkNotFound}
	if !slot.Valid() {
		return res
	}
	res.entry = slot.Load()
	lg := sess.s.log
	head := lg.HeadAddress()
	readOnly := lg.ReadOnlyAddress()
	begin := lg.BeginAddress()
	fence := sess.s.fenceBelow(hash)
	addr := res.entry.Address()
	for addr != hlog.InvalidAddress {
		if addr < fence {
			// An ownership fence retired everything deeper in the chain for
			// this hash (stale records from an earlier tenancy of the range);
			// addresses only descend, so the walk ends here.
			res.status = walkNotFound
			return res
		}
		if addr < head {
			if addr < begin {
				res.status = walkNotFound
				return res
			}
			res.status = walkBelowHead
			res.addr = addr
			return res
		}
		rec := lg.RecordAt(addr)
		m := rec.Meta()
		if m.Invalid() {
			addr = m.Previous()
			continue
		}
		if m.Indirection() {
			if p, ok := hlog.DecodeIndirection(rec.Value()); ok &&
				hash >= p.RangeStart && hash < p.RangeEnd {
				res.status = walkIndirection
				res.rec, res.addr = rec, addr
				return res
			}
			addr = m.Previous()
			continue
		}
		if bytes.Equal(rec.Key(), key) {
			res.rec, res.addr = rec, addr
			res.mutable = addr >= readOnly
			if m.Tombstone() {
				res.status = walkTombstone
			} else {
				res.status = walkFound
			}
			return res
		}
		addr = m.Previous()
	}
	return res
}

// Read looks up key. The callback receives the value on StatusOK; it runs
// inline unless the result is StatusPending.
func (sess *Session) Read(key []byte, cb Callback) Status {
	st, v := sess.readHash(key, HashOf(key), completion{cb: cb})
	if st != StatusPending {
		invoke(cb, st, v)
	}
	return st
}

// ReadHash is Read for callers that already computed the key's hash (the
// server dispatch loop computes it for ownership checks) and want no per-op
// callback. Inline results are returned directly — the value is valid until
// the session's next operation. A StatusPending result is delivered to the
// session's CompletionHandler under token.
func (sess *Session) ReadHash(key []byte, hash uint64, token uint64) (Status, []byte) {
	return sess.readHash(key, hash, completion{token: token, tokenized: true})
}

// readHash is the shared read path; it never delivers inline results (the
// wrappers do), so token-based callers pay no closure.
func (sess *Session) readHash(key []byte, hash uint64, comp completion) (Status, []byte) {
	sess.maybeRefresh()
	sess.s.stats.Reads.Add(1)
	slot := sess.s.index.FindEntry(hash)
	res := sess.walkMemory(slot, key, hash)
	switch res.status {
	case walkFound:
		sess.s.noteCacheHit(hash)
		sess.maybeSample(hash, res)
		sess.valBuf = res.rec.ReadValueStable(sess.valBuf)
		return StatusOK, sess.valBuf
	case walkTombstone, walkNotFound:
		return StatusNotFound, nil
	case walkIndirection:
		sess.valBuf = res.rec.ReadValueStable(sess.valBuf)
		return StatusIndirection, sess.valBuf
	default: // walkBelowHead
		sess.enqueueRead(sess.newPendingOp(opRead, key, nil, hash, res.addr, comp))
		return StatusPending, nil
	}
}

// Upsert blindly writes value for key. It never needs storage I/O: a version
// in memory is updated in place or shadowed; a version on storage is
// shadowed by the append.
func (sess *Session) Upsert(key, value []byte, cb Callback) Status {
	st := sess.UpsertHash(key, value, HashOf(key))
	invoke(cb, st, nil)
	return st
}

// UpsertHash is Upsert with a caller-computed hash and no callback; upserts
// never go pending, so the returned status is always final.
func (sess *Session) UpsertHash(key, value []byte, hash uint64) Status {
	sess.maybeRefresh()
	sess.s.stats.Upserts.Add(1)
	if sess.s.tooBig(key, value) {
		return StatusError
	}
	slot := sess.s.index.FindOrCreateEntry(hash)
	for {
		res := sess.walkMemory(slot, key, hash)
		if res.status == walkFound && res.mutable &&
			res.rec.ValueLen() == len(value) &&
			hlog.SameVersion(res.rec.Meta().Version(), sess.ver) {
			// In-place update under the record's write seal. Gated on the
			// CPR version (§2.1): updating a prior-version record in place
			// would smuggle a post-cut write into the checkpoint's prefix,
			// so version-crossing updates take the copy path below and get
			// stamped with the session's version instead.
			pre := res.rec.Seal()
			res.rec.StoreValueBytes(value)
			res.rec.Unseal(pre)
			sess.s.stats.InPlaceUpdates.Add(1)
			return StatusOK
		}
		// RCU / blind append path.
		if sess.tryAppend(res, key, value, false) {
			sess.s.stats.RCUUpdates.Add(1)
			return StatusOK
		}
	}
}

// Delete writes a tombstone for key.
func (sess *Session) Delete(key []byte, cb Callback) Status {
	st := sess.DeleteHash(key, HashOf(key))
	invoke(cb, st, nil)
	return st
}

// DeleteHash is Delete with a caller-computed hash and no callback; deletes
// never go pending.
func (sess *Session) DeleteHash(key []byte, hash uint64) Status {
	sess.maybeRefresh()
	sess.s.stats.Deletes.Add(1)
	if sess.s.tooBig(key, nil) {
		return StatusError
	}
	slot := sess.s.index.FindOrCreateEntry(hash)
	for {
		res := sess.walkMemory(slot, key, hash)
		if res.status == walkTombstone {
			return StatusOK
		}
		if sess.tryAppend(res, key, nil, true) {
			return StatusOK
		}
	}
}

// RMW reads key's value, applies the store's RMW function with input, and
// writes the result. The callback receives no value (use Read to observe),
// except for StatusIndirection where it carries the indirection pointer.
func (sess *Session) RMW(key, input []byte, cb Callback) Status {
	sess.maybeRefresh()
	sess.s.stats.RMWs.Add(1)
	hash := HashOf(key)
	slot := sess.s.index.FindOrCreateEntry(hash)
	st, v := sess.rmwFrom(slot, key, hash, input, completion{cb: cb})
	if st != StatusPending {
		invoke(cb, st, v)
	}
	return st
}

// RMWHash is RMW with a caller-computed hash and no per-op callback. Inline
// results are returned directly (for StatusIndirection the returned bytes
// are the encoded indirection pointer, valid until the session's next
// operation); a StatusPending result is delivered to the CompletionHandler
// under token.
func (sess *Session) RMWHash(key, input []byte, hash uint64, token uint64) (Status, []byte) {
	sess.maybeRefresh()
	sess.s.stats.RMWs.Add(1)
	slot := sess.s.index.FindOrCreateEntry(hash)
	return sess.rmwFrom(slot, key, hash, input, completion{token: token, tokenized: true})
}

// rmwFrom runs the RMW state machine starting with an in-memory walk; the
// pending-I/O continuation re-enters here. It never delivers the result
// itself: terminal statuses are returned to the caller, and only the
// pending path hands comp to a pending op for later delivery.
func (sess *Session) rmwFrom(slot hashidx.Slot, key []byte, hash uint64, input []byte, comp completion) (Status, []byte) {
	for {
		res := sess.walkMemory(slot, key, hash)
		var newVal []byte
		sampling := false
		switch res.status {
		case walkFound:
			// During Sampling (§3.3) updates to matching records go through
			// the copy path so the updated record lands at the tail; the
			// in-place fast path would leave it below the sampling cut.
			// Prior-version records likewise go through the copy path (CPR:
			// an in-place RMW on a pre-cut record would be invisible to the
			// version filter recovery applies).
			sampling = sess.samplerMatch(hash, res.addr)
			if !sampling && res.mutable &&
				hlog.SameVersion(res.rec.Meta().Version(), sess.ver) &&
				sess.s.rmw.TryInPlace(res.rec, input) {
				sess.s.stats.InPlaceUpdates.Add(1)
				return StatusOK, nil
			}
			// Copy-on-write from the current value.
			newVal = sess.s.rmw.Apply(res.rec.ReadValueStable(nil), input)
		case walkTombstone, walkNotFound:
			newVal = sess.s.rmw.Initial(input)
		case walkIndirection:
			sess.valBuf = res.rec.ReadValueStable(sess.valBuf)
			return StatusIndirection, sess.valBuf
		case walkBelowHead:
			sess.enqueueRead(sess.newPendingOp(opRMW, key, input, hash, res.addr, comp))
			return StatusPending, nil
		}
		if sess.s.tooBig(key, newVal) {
			return StatusError, nil
		}
		if sess.appendRMW(res, key, newVal) {
			if sampling {
				sess.s.stats.SampledCopies.Add(1)
			}
			return StatusOK, nil
		}
	}
}

// tryAppend appends a record (or tombstone) and CASes it in as the chain
// head. For blind writes a CAS failure just relinks and retries against the
// fresh head, so it cannot fail permanently; it returns false only when the
// walk must be redone (the in-place fast path may now apply).
func (sess *Session) tryAppend(res walkResult, key, value []byte, tombstone bool) bool {
	addr, rec, err := sess.append(res.entry.Address(), key, value, tombstone)
	if err != nil {
		return false
	}
	entry := res.entry
	for {
		if res.slot.CompareAndSwap(entry,
			newEntryFor(res.hash, addr)) {
			return true
		}
		entry = res.slot.Load()
		// Relink our record to the new chain head and retry: safe for
		// blind writes because the record's payload is independent of the
		// prior value.
		rec.SetMeta(rec.Meta().WithPrevious(entry.Address()))
	}
}

// appendRMW appends a computed value; a CAS failure invalidates the record
// and reports false so the caller recomputes against the fresh head (the
// value may depend on state that just changed).
func (sess *Session) appendRMW(res walkResult, key, value []byte) bool {
	addr, rec, err := sess.append(res.entry.Address(), key, value, false)
	if err != nil {
		return false
	}
	if res.slot.CompareAndSwap(res.entry, newEntryFor(res.hash, addr)) {
		sess.s.stats.RCUUpdates.Add(1)
		return true
	}
	rec.SetMeta(rec.Meta().WithInvalid())
	return false
}

// append allocates and writes a record; the caller installs it in the index.
func (sess *Session) append(prev hlog.Address, key, value []byte, tombstone bool) (hlog.Address, hlog.Record, error) {
	size := hlog.RecordSize(len(key), len(value))
	addr, buf, err := sess.s.log.Allocate(sess.g, size)
	if err != nil {
		return hlog.InvalidAddress, nil, err
	}
	meta := hlog.NewMeta(prev, sess.ver, false, tombstone)
	rec := hlog.WriteRecord(buf, meta, key, value)
	return addr, rec, nil
}

// newEntryFor packs an index entry pointing at addr for hash.
func newEntryFor(hash uint64, addr hlog.Address) hashidx.Entry {
	return hashidx.PackEntry(hashidx.TagOf(hash), addr)
}

// samplerMatch reports whether the Sampling-phase filter wants the record at
// addr copied to the tail.
func (sess *Session) samplerMatch(hash uint64, addr hlog.Address) bool {
	fn := sess.s.sampler()
	return fn != nil && fn(hash, addr)
}

// maybeSample implements the Sampling phase's copy-to-tail (§3.3) for reads:
// the accessed record is re-verified as the current chain head and copied to
// the tail with a single-shot CAS. A failed CAS means a concurrent writer
// moved the chain — the copy is abandoned (invalidated) rather than risking
// shadowing the newer value.
func (sess *Session) maybeSample(hash uint64, res walkResult) {
	if !sess.samplerMatch(hash, res.addr) {
		return
	}
	cur := sess.walkMemory(res.slot, res.rec.Key(), hash)
	if cur.status != walkFound || cur.addr != res.addr {
		return // record no longer newest; its replacement is already hot
	}
	val := cur.rec.ReadValueStable(nil)
	key := append([]byte(nil), cur.rec.Key()...)
	if sess.appendRMW(cur, key, val) {
		sess.s.stats.SampledCopies.Add(1)
	}
}

func invoke(cb Callback, st Status, v []byte) {
	if cb != nil {
		cb(st, v)
	}
}
