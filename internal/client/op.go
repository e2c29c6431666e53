package client

import "repro/internal/wire"

// op is one client operation from issue to completion: the batch entry, the
// retry record and the completion are this one pooled slot, named by its
// index in Thread.ops (index 0 is never claimed: 0 means "none"). Key and
// Value are slot-owned buffers reused across lifetimes, so at steady state an
// operation allocates nothing. A slot is in exactly one state:
//
//   - free: its index is on Thread.free.
//   - buffered: on its session's list, its Op copied (buffers shared) into
//     the building batch. flushSession moves it on.
//   - in flight: on its session's list, its batch sent. A result finds it by
//     Seq and complete frees it; a refusal echoes its Seq and requeue takes it.
//   - parked: buffered or in flight on a broken session, which sends and
//     receives nothing; RecoverSessions, FailBroken or Close settle it.
//   - rerouting: on Thread.rerouting, until the reroute that ends the same
//     Poll or RecoverSessions call.
//
// Only Issue claims a slot and counts the operation, only complete frees and
// un-counts it: an operation is counted once however often it is requeued.
// claim may grow Thread.ops, so never hold an *op across an Issue (a callback
// may issue).
type op struct {
	wire.Op    // Seq is within sess
	cb         Callback
	sess       *session // nil unless buffered, in flight or parked
	prev, next int32    // neighbours on sess's list
}

// keepBuf caps the buffers a freed slot keeps: one huge value must not stay pinned.
const keepBuf = 4 << 10

// claim takes a free slot (growing the table if none is) and copies the
// operation into its buffers.
//
//shadowfax:noalloc
func (t *Thread) claim(kind wire.OpKind, key, value []byte, cb Callback) int32 {
	if len(t.free) == 0 {
		t.free = append(t.free, int32(len(t.ops)))
		t.ops = append(t.ops, op{})
	}
	i := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	o := &t.ops[i]
	o.Kind, o.cb = kind, cb
	o.Key = append(o.Key[:0], key...)
	o.Value = append(o.Value[:0], value...)
	return i
}

// push appends slot i to s — its list and its building batch — under the
// session's next sequence number, and ships the batch once it is full.
//
//shadowfax:noalloc
func (t *Thread) push(s *session, i int32) {
	o := &t.ops[i]
	o.sess, o.Seq, o.prev, o.next = s, s.nextSeq, s.tail, 0
	s.nextSeq++
	if s.tail != 0 {
		t.ops[s.tail].next = i
	} else {
		s.head = i
	}
	s.tail = i
	s.bySeq[o.Seq] = i
	s.building.Ops = append(s.building.Ops, o.Op)
	s.buildSz += wire.OpHeaderBytes + len(o.Key) + len(o.Value)
	if len(s.building.Ops) >= t.cfg.BatchOps || s.buildSz >= batchBytes {
		t.flushSession(s)
	}
}

// detach takes slot i off its session, if it is on one.
func (t *Thread) detach(i int32) {
	o := &t.ops[i]
	s := o.sess
	if s == nil {
		return
	}
	if o.prev != 0 {
		t.ops[o.prev].next = o.next
	} else {
		s.head = o.next
	}
	if o.next != 0 {
		t.ops[o.next].prev = o.prev
	} else {
		s.tail = o.prev
	}
	delete(s.bySeq, o.Seq)
	o.sess = nil
}

// requeue takes slot i back from its session for another route: after a shed
// or rejected batch, when buffered operations are re-bucketed, when recovery
// replays. It is not counted again, and it is routed by the caller's reroute,
// not here: routing may dial, refresh metadata or run callbacks, which has no
// place inside a walk over a response or a session.
//
//shadowfax:noalloc
func (t *Thread) requeue(i int32) {
	t.detach(i)
	t.rerouting = append(t.rerouting, i)
}

// reroute enqueues the requeued slots, in requeue order, under the current
// ownership; one without a route completes through its callback.
func (t *Thread) reroute() {
	for k := 0; k < len(t.rerouting); k++ {
		t.enqueue(t.rerouting[k]) //nolint:errcheck
	}
	t.rerouting = t.rerouting[:0]
}

// complete frees slot i and runs its callback: the one exit of an operation.
//
//shadowfax:noalloc
func (t *Thread) complete(i int32, st wire.ResultStatus, v []byte) {
	t.detach(i)
	o := &t.ops[i]
	cb := o.cb
	o.cb = nil
	if cap(o.Key)+cap(o.Value) > keepBuf {
		o.Key, o.Value = nil, nil
	}
	t.free = append(t.free, i)
	t.outstanding--
	t.stats.OpsCompleted++
	if cb != nil {
		cb(st, v) // last: cb may issue, and a claim may move t.ops under o
	}
}

// settle is the one walk over the operations a session retains — buffered,
// in flight or parked — oldest first; fate completes or requeues each, so
// nothing stays buffered. What a callback issues onto s meanwhile lies past
// the walk's end and is left alone.
func (t *Thread) settle(s *session, fate func(i int32)) {
	s.building.Ops = s.building.Ops[:0]
	s.buildSz = 0
	for i, last := s.head, s.tail; i != 0; {
		next := t.ops[i].next // fate detaches i
		fate(i)
		if i == last {
			break
		}
		i = next
	}
}
