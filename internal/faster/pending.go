package faster

import (
	"bytes"

	"repro/internal/hlog"
)

// opKind distinguishes pending-operation continuations.
type opKind uint8

const (
	opRead opKind = iota
	opRMW
	opCondInsert
)

// pendingOp is an operation suspended on storage I/O. The continuation
// walks the on-storage portion of the hash chain one record read at a time,
// exactly as FASTER's pending contexts do.
//
// pendingOps are pooled per session (key/input buffers are reused) and flow
// back to the session goroutine through the completions channel; the device
// read's bytes ride the op's ioEntry — completing an I/O allocates nothing.
type pendingOp struct {
	kind  opKind
	key   []byte
	hash  uint64
	addr  hlog.Address // next chain address to read from the device
	start hlog.Address // addr at issue: where the chain entered storage then
	input []byte       // RMW input / conditional-insert value
	meta  hlog.Meta    // conditional-insert record flags
	comp  completion

	// ent is the pipeline read serving this op (shared with coalesced
	// waiters); rec is the parsed record, aliasing ent's span buffer.
	ent *ioEntry
	rec hlog.Record
	err error
}

// pendingOpPoolCap bounds how many recycled pending ops a session retains;
// pendingOpBufKeep is the largest key/input buffer capacity kept across
// recycling (one conditional-insert of a huge migrated value should not pin
// its footprint in the pool for the session's lifetime).
const (
	pendingOpPoolCap = 128
	pendingOpBufKeep = 8 << 10
)

// newPendingOp takes a pending op from the session's pool (or allocates one)
// and fills it, copying key and input into the op's reused buffers: the
// caller's batch buffers will be recycled long before the I/O completes.
func (sess *Session) newPendingOp(kind opKind, key, input []byte, hash uint64,
	addr hlog.Address, comp completion) *pendingOp {
	var p *pendingOp
	if n := len(sess.opFree); n > 0 {
		p = sess.opFree[n-1]
		sess.opFree[n-1] = nil
		sess.opFree = sess.opFree[:n-1]
	} else {
		p = new(pendingOp)
	}
	p.kind = kind
	p.key = append(p.key[:0], key...)
	p.input = append(p.input[:0], input...)
	p.hash = hash
	p.addr, p.start = addr, addr
	p.meta = 0
	p.comp = comp
	return p
}

// freePendingOp recycles p. Only the terminal paths call it; a reissued op
// (follow) keeps its struct.
func (sess *Session) freePendingOp(p *pendingOp) {
	sess.releaseEntry(p.ent)
	p.ent = nil
	p.comp = completion{}
	p.rec, p.err = nil, nil
	if cap(p.key) > pendingOpBufKeep {
		p.key = nil
	}
	if cap(p.input) > pendingOpBufKeep {
		p.input = nil
	}
	if len(sess.opFree) < pendingOpPoolCap {
		sess.opFree = append(sess.opFree, p)
	}
}

// finishPending recycles p and delivers its final result. The value may
// alias p's span buffer (pooled), so the entry reference is held until the
// delivery returns — a re-entrant operation issued from the completion
// handler must not be able to recycle the buffer under the value.
func (sess *Session) finishPending(p *pendingOp, st Status, v []byte) {
	comp := p.comp
	ent := p.ent
	p.ent = nil
	sess.freePendingOp(p)
	sess.deliver(comp, st, v)
	sess.releaseEntry(ent)
}

// finishOrRelease delivers a terminal result, or — when a continuation
// re-entered the state machine and went pending again under a fresh op that
// inherited p's completion — just recycles p.
func (sess *Session) finishOrRelease(p *pendingOp, st Status, v []byte) {
	if st == StatusPending {
		sess.freePendingOp(p)
		return
	}
	sess.finishPending(p, st, v)
}

// resume continues a pending operation with the record read from storage.
// It runs on the session goroutine (inside CompletePending). Chain hops that
// landed inside the span buffer already read are served inline (the loop
// continues); hops outside it re-enter the pipeline queue.
func (sess *Session) resume(p *pendingOp) {
	sess.inflight.Add(-1)
	if !sess.materializeRec(p) {
		return // long record: re-queued as a continuation read
	}
	for {
		if p.err != nil {
			sess.finishPending(p, StatusError, nil)
			return
		}
		if p.addr < sess.s.fenceBelow(p.hash) {
			// An ownership fence retired this depth of the chain (it may have
			// been laid down while the read was in flight): the record and
			// everything deeper are stale — finish as if the chain ended.
			switch p.kind {
			case opRead:
				sess.finishPending(p, StatusNotFound, nil)
			case opRMW:
				st, v := sess.finishRMWWithValue(p, nil)
				sess.finishOrRelease(p, st, v)
			case opCondInsert:
				sess.finishCondInsert(p)
			}
			return
		}
		rec := p.rec
		m := rec.Meta()
		match := !m.Invalid() && !m.Indirection() && bytes.Equal(rec.Key(), p.key)

		switch p.kind {
		case opRead:
			if match {
				if m.Tombstone() {
					sess.finishPending(p, StatusNotFound, nil)
					return
				}
				sess.maybeCachePromote(p)
				sess.finishPending(p, StatusOK, rec.Value())
				return
			}
			if m.Indirection() && !m.Invalid() {
				if ip, ok := hlog.DecodeIndirection(rec.Value()); ok &&
					p.hash >= ip.RangeStart && p.hash < ip.RangeEnd {
					sess.finishPending(p, StatusIndirection, rec.Value())
					return
				}
			}
			switch sess.follow(p, m) {
			case followEnd:
				sess.finishPending(p, StatusNotFound, nil)
				return
			case followIssued:
				return
			}

		case opRMW:
			// The chain may have gained a version while the read was in
			// flight; start over from it (it is strictly newer).
			slot := sess.s.index.FindOrCreateEntry(p.hash)
			if !sess.chainUnchanged(p, sess.walkMemory(slot, p.key, p.hash)) {
				st, v := sess.rmwFrom(slot, p.key, p.hash, p.input, p.comp)
				sess.finishOrRelease(p, st, v)
				return
			}
			if match {
				var old []byte
				if !m.Tombstone() {
					old = rec.Value()
				}
				st, v := sess.finishRMWWithValue(p, old)
				sess.finishOrRelease(p, st, v)
				return
			}
			if m.Indirection() && !m.Invalid() {
				if ip, ok := hlog.DecodeIndirection(rec.Value()); ok &&
					p.hash >= ip.RangeStart && p.hash < ip.RangeEnd {
					sess.finishPending(p, StatusIndirection, rec.Value())
					return
				}
			}
			switch sess.follow(p, m) {
			case followEnd:
				st, v := sess.finishRMWWithValue(p, nil)
				sess.finishOrRelease(p, st, v)
				return
			case followIssued:
				return
			}

		case opCondInsert:
			if match {
				// A version (even a tombstone) exists: the incoming migrated
				// record is older; drop it.
				sess.finishPending(p, StatusNotFound, nil)
				return
			}
			switch sess.follow(p, m) {
			case followEnd:
				sess.finishCondInsert(p)
				return
			case followIssued:
				return
			}
		}
		// followInline: p.addr/p.rec advanced within the span — loop.
	}
}

// followResult says how a chain hop proceeded.
type followResult uint8

const (
	followEnd    followResult = iota // chain exhausted: caller finishes the op
	followInline                     // hop served from the span already read
	followIssued                     // hop re-entered the pipeline queue
)

// follow advances p one chain hop. A predecessor that landed inside the span
// buffer already read is served inline — same-page predecessors sit at lower
// addresses, which is exactly what the span's read-behind covers — otherwise
// the op re-enters the pipeline queue rather than blocking anything for the
// round trip.
func (sess *Session) follow(p *pendingOp, m hlog.Meta) followResult {
	prev := m.Previous()
	if prev == hlog.InvalidAddress || prev < sess.s.log.BeginAddress() ||
		prev < sess.s.fenceBelow(p.hash) {
		return followEnd
	}
	cur := p.addr
	p.addr = prev
	if ent := p.ent; ent != nil && uint64(prev) >= ent.pos && prev < cur {
		// Records are laid out sequentially within a page, so a same-span
		// predecessor is always complete: [prev, prev+size) ends at or
		// before the record just examined. (prev > cur happens too: a
		// spliced indirection record sits above the record it hangs under.)
		rec, _, err := hlog.ParseSpanRecord(ent.buf, int(uint64(prev)-ent.pos), prev, sess.s.log.PageBits())
		if err == nil && rec != nil {
			p.rec = rec
			sess.s.stats.ReadaheadHits.Add(1)
			return followInline
		}
	}
	p.rec = nil
	sess.releaseEntry(p.ent)
	p.ent = nil
	sess.enqueueRead(p)
	return followIssued
}

// chainUnchanged reports whether res, a fresh memory walk for p's key, still
// runs off the end of memory at the address p started reading from — that
// is, nothing was linked into the chain since p was issued. Comparing the
// address matters: a version installed after p was issued may itself be
// below the head address by now, and a walk that merely ends below head
// again would let p overwrite it with a value computed from its predecessor.
func (sess *Session) chainUnchanged(p *pendingOp, res walkResult) bool {
	return res.status == walkBelowHead && res.addr == p.start
}

// finishRMWWithValue applies the RMW against the storage-resident value (nil
// when absent) and appends the result, retrying against memory if the chain
// head moved. Like rmwFrom it returns the terminal status instead of
// delivering it; a StatusPending return means a fresh op inherited p.comp.
func (sess *Session) finishRMWWithValue(p *pendingOp, old []byte) (Status, []byte) {
	var newVal []byte
	if old == nil {
		newVal = sess.s.rmw.Initial(p.input)
	} else {
		newVal = sess.s.rmw.Apply(old, p.input)
	}
	if sess.s.tooBig(p.key, newVal) {
		return StatusError, nil
	}
	slot := sess.s.index.FindOrCreateEntry(p.hash)
	for {
		res := sess.walkMemory(slot, p.key, p.hash)
		if !sess.chainUnchanged(p, res) {
			// The chain changed while we worked: recompute from its head.
			return sess.rmwFrom(slot, p.key, p.hash, p.input, p.comp)
		}
		if sess.appendRMW(res, p.key, newVal) {
			return StatusOK, nil
		}
	}
}

// finishCondInsert installs the migrated record now that the full chain was
// checked without finding the key.
func (sess *Session) finishCondInsert(p *pendingOp) {
	slot := sess.s.index.FindOrCreateEntry(p.hash)
	for {
		res := sess.walkMemory(slot, p.key, p.hash)
		switch res.status {
		case walkFound, walkTombstone:
			sess.finishPending(p, StatusNotFound, nil)
			return
		case walkIndirection:
			// The chain gained an indirection record while we worked; the
			// migrated record is at least as new as the remote suffix the
			// indirection defers to, so install in front (same decision as
			// ConditionalInsert's inline path).
			if sess.condAppend(res, p.key, p.input, p.meta.Tombstone()) {
				sess.finishPending(p, StatusOK, nil)
				return
			}
		case walkBelowHead:
			if res.addr != p.start {
				// The chain gained storage-resident links since p was issued
				// (a client write that has been evicted already, or eviction
				// moved head past in-memory links): they may hold a newer
				// version of the key, so check the chain again from there.
				p.addr, p.start, p.rec = res.addr, res.addr, nil
				sess.releaseEntry(p.ent)
				p.ent = nil
				sess.enqueueRead(p)
				return
			}
			fallthrough
		case walkNotFound:
			if sess.condAppend(res, p.key, p.input, p.meta.Tombstone()) {
				sess.finishPending(p, StatusOK, nil)
				return
			}
		}
	}
}
