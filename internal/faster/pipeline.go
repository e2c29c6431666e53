package faster

import (
	"sync"

	"repro/internal/hlog"
	"repro/internal/storage"
)

// This file implements the per-session pending-read pipeline (PR 8). Instead
// of spawning one goroutine per storage read (and one more per chain hop),
// pending operations queue on their session; flushReads coalesces the queue
// by record address — N waiters on the same record share one device read —
// and submits the distinct reads as a single device batch. Completions flow
// out of order through the session's existing completions channel. Chain-walk
// follow-ups re-enter the queue rather than holding a goroutine hostage for
// the round trip.

const (
	// readBatchMax bounds one ReadBatch submission; the queue also flushes
	// whenever it grows this long, so a burst of pending ops overlaps its
	// device reads instead of waiting for the next CompletePending.
	readBatchMax = 64
	// readAheadBytes extends each pipelined record read backwards by up to
	// this many bytes (clamped to the page start): chain predecessors on the
	// same page land in the span and follow hops are served without another
	// device trip.
	readAheadBytes = 1024
	// ioEntryPoolCap bounds how many recycled entries a session retains;
	// ioEntryBufKeep is the largest span buffer kept across recycling.
	ioEntryPoolCap = 128
	ioEntryBufKeep = 16 << 10
)

// ioEntry is one in-flight device read. One entry serves every queued op
// targeting the same record address: waiters ride the entry and are all
// completed from its buffer.
//
// Ownership: the session goroutine creates entries, adds waiters, parses
// results and recycles; a device worker completes the read. The mu/done
// handshake is their only contact — a coalescer that finds the entry already
// done self-completes instead of joining the device read.
type ioEntry struct {
	addr hlog.Address // record address the read targets
	pos  uint64       // device offset of buf[0] (pos <= addr: read-behind span)
	have int          // valid prefix bytes of buf (continuation reads)
	buf  []byte       // span buffer for [pos, pos+len(buf))
	refs int          // ops referencing the entry; recycled at 0 (session side)

	// mu guards done/err/waiters across the two goroutines; held only for
	// pointer-sized updates, never across I/O or channel operations.
	//
	//shadowfax:epochsafe
	mu      sync.Mutex
	done    bool
	err     error
	waiters []*pendingOp
}

// readPipe is a session's pending-read pipeline state.
type readPipe struct {
	queue    []*pendingOp
	ready    []*pendingOp              // coalesced onto an already-finished read
	inflight map[hlog.Address]*ioEntry // primary reads currently on the device
	entFree  []*ioEntry
	reqs     []storage.ReadReq // per-batch scratch; jobs copy it, so reusable
}

// enqueueRead queues p's device read; flushReads submits it. Every pending
// read and every chain hop comes through here — no goroutine per read.
//
//shadowfax:epoch
func (sess *Session) enqueueRead(p *pendingOp) {
	sess.inflight.Add(1)
	sess.s.stats.PendingIssued.Add(1)
	sess.pipe.queue = append(sess.pipe.queue, p)
	if len(sess.pipe.queue) >= readBatchMax {
		sess.flushReads()
	}
}

// enqueueSuffixRead re-queues p to read the tail of a record longer than its
// span, reusing the prefix already read. The continuation gets a dedicated
// entry (pos = record address, have = prefix length) and skips coalescing:
// by construction no other op can target the same address without finding
// the primary entry first.
func (sess *Session) enqueueSuffixRead(p *pendingOp, need int) {
	old := p.ent
	recOff := int(uint64(p.addr) - old.pos)
	ent := sess.getEntry(need)
	ent.addr = p.addr
	ent.pos = uint64(p.addr)
	ent.have = copy(ent.buf, old.buf[recOff:])
	p.rec = nil
	p.ent = nil
	sess.releaseEntry(old)
	ent.refs = 1
	ent.waiters = append(ent.waiters, p)
	p.ent = ent
	sess.inflight.Add(1) // resume already decremented; the op is back in flight
	sess.pipe.queue = append(sess.pipe.queue, p)
	if len(sess.pipe.queue) >= readBatchMax {
		sess.flushReads()
	}
}

// flushReads drains the queue: ops targeting an address already on the device
// join that read's waiter list (coalescing), the rest become one batched
// device submission. Runs on the session goroutine — from CompletePending and
// from enqueueRead when the queue fills.
//
//shadowfax:epoch
func (sess *Session) flushReads() {
	pipe := &sess.pipe
	if len(pipe.queue) == 0 {
		return
	}
	if pipe.inflight == nil {
		pipe.inflight = make(map[hlog.Address]*ioEntry) //shadowfax:ignore hotpathalloc one-time pipeline init per session
	}
	lg := sess.s.log
	pageBits := lg.PageBits()
	floor := lg.BeginAddress()
	reqs := pipe.reqs[:0]
	// batch collects the entries of this submission in reqs order. It is
	// captured by the completion callback (which indexes it from device
	// workers), so it cannot be session-reused scratch like reqs.
	var batch []*ioEntry //shadowfax:ignore hotpathalloc per-batch slice, amortized over up to readBatchMax reads
	for _, p := range pipe.queue {
		if p.ent != nil {
			// Continuation read: entry pre-built by enqueueSuffixRead.
			reqs = append(reqs, storage.ReadReq{P: p.ent.buf[p.ent.have:], Off: p.ent.pos + uint64(p.ent.have)})
			batch = append(batch, p.ent)
			continue
		}
		if ent, ok := pipe.inflight[p.addr]; ok {
			// Coalesce: share the in-flight (or just-finished) read.
			sess.s.stats.PendingCoalesced.Add(1)
			ent.refs++
			p.ent = ent
			ent.mu.Lock()
			if ent.done {
				ent.mu.Unlock()
				// The device finished while the op sat in the queue: complete
				// it on the session-local ready list (never a channel send —
				// this goroutine is the channel's only drainer).
				pipe.ready = append(pipe.ready, p)
			} else {
				ent.waiters = append(ent.waiters, p)
				ent.mu.Unlock()
			}
			continue
		}
		ent := sess.getEntry(0)
		off, n, _ := hlog.PlanRecordRead(p.addr, sess.s.cfg.ReadHintBytes+len(p.key), readAheadBytes, pageBits, floor)
		if cap(ent.buf) < n {
			ent.buf = hlog.AlignedBuf(n) //shadowfax:ignore hotpathalloc pool-miss span buffer growth, amortized
		}
		ent.buf = ent.buf[:n]
		ent.addr = p.addr
		ent.pos = off
		ent.refs = 1
		ent.waiters = append(ent.waiters, p)
		p.ent = ent
		pipe.inflight[p.addr] = ent
		reqs = append(reqs, storage.ReadReq{P: ent.buf, Off: off})
		batch = append(batch, ent)
	}
	pipe.queue = pipe.queue[:0]
	pipe.reqs = reqs[:0]
	if len(batch) == 0 {
		return
	}
	sess.s.stats.DeviceBatchReads.Add(1)
	completions := sess.completions
	storage.ReadBatch(lg.Device(), reqs, func(i int, err error) { //shadowfax:ignore hotpathalloc per-batch completion closure, amortized
		ent := batch[i]
		ent.mu.Lock()
		ent.done = true
		ent.err = err
		ws := ent.waiters
		ent.waiters = nil
		ent.mu.Unlock()
		for _, w := range ws {
			completions <- w //shadowfax:ignore epochblock runs on the device worker goroutine, not in the epoch section; buffered to maxPendingPerSession so it cannot block regardless
		}
	})
}

// getEntry takes a recycled entry (or allocates one) with a span buffer of at
// least n bytes (n == 0: keep whatever buffer the entry carries).
func (sess *Session) getEntry(n int) *ioEntry {
	pipe := &sess.pipe
	var ent *ioEntry
	if ln := len(pipe.entFree); ln > 0 {
		ent = pipe.entFree[ln-1]
		pipe.entFree[ln-1] = nil
		pipe.entFree = pipe.entFree[:ln-1]
	} else {
		ent = new(ioEntry) //shadowfax:ignore hotpathalloc pool-miss entry growth, amortized
	}
	if n > 0 && cap(ent.buf) < n {
		ent.buf = hlog.AlignedBuf(n) //shadowfax:ignore hotpathalloc pool-miss span buffer growth, amortized
	}
	if n > 0 {
		ent.buf = ent.buf[:n]
	}
	ent.have = 0
	ent.done = false
	ent.err = nil
	ent.refs = 0
	ent.waiters = ent.waiters[:0]
	return ent
}

// releaseEntry drops one reference; the last referee retires the entry from
// the in-flight table and recycles it. Only the session goroutine calls it,
// and only for entries whose completion it has already observed through the
// completions channel (or that never reached the device), so reading
// ent.done without the lock is ordered by the channel receive.
func (sess *Session) releaseEntry(ent *ioEntry) {
	if ent == nil {
		return
	}
	ent.refs--
	if ent.refs > 0 {
		return
	}
	pipe := &sess.pipe
	if pipe.inflight[ent.addr] == ent {
		delete(pipe.inflight, ent.addr)
	}
	if cap(ent.buf) > ioEntryBufKeep {
		ent.buf = nil
	}
	if len(pipe.entFree) < ioEntryPoolCap {
		pipe.entFree = append(pipe.entFree, ent)
	}
}

// materializeRec parses p's record out of its completed span. It reports
// false when resume must not proceed: the op was re-queued for a
// continuation read (long record). Parse errors land in p.err.
func (sess *Session) materializeRec(p *pendingOp) bool {
	ent := p.ent
	if ent == nil || p.rec != nil || p.err != nil {
		return true
	}
	if ent.err != nil {
		p.err = ent.err
		return true
	}
	rec, need, err := hlog.ParseSpanRecord(ent.buf, int(uint64(p.addr)-ent.pos), p.addr, sess.s.log.PageBits())
	switch {
	case err != nil:
		p.err = err
	case rec == nil:
		sess.enqueueSuffixRead(p, need)
		return false
	default:
		p.rec = rec
	}
	return true
}
