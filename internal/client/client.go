// Package client is Shadowfax's end-to-end asynchronous client library
// (§3.1.1). Each client thread owns sessions to the servers it talks to;
// operations are buffered into view-tagged batches, pipelined without
// waiting for earlier batches, and completed through per-operation
// callbacks. A batch rejected by a server's view check causes a metadata
// refresh and transparent re-routing of the affected operations — the
// client-side half of Shadowfax's ownership-transfer global cut (§3.2.1).
package client

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"repro/internal/backoff"
	"repro/internal/faster"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrClosed is returned by operations issued after Close.
var ErrClosed = errors.New("client: thread closed")

// Config tunes a client thread.
type Config struct {
	// Transport dials servers (must match the cluster's transport).
	Transport transport.Transport
	// Meta is the metadata provider for ownership lookups (the in-process
	// store, or a remote provider against a metadata endpoint).
	Meta metadata.Provider
	// BatchOps flushes a session's buffer at this many operations.
	BatchOps int
	// BatchBytes flushes earlier if the encoded batch reaches this size
	// (the paper reports batch sizes in KB; Table 2).
	BatchBytes int
	// MaxInflightBatches bounds pipelining per session (queue depth).
	MaxInflightBatches int
}

func (c *Config) applyDefaults() error {
	if c.Transport == nil || c.Meta == nil {
		return errors.New("client: Transport and Meta required")
	}
	if c.BatchOps == 0 {
		c.BatchOps = 256
	}
	if c.BatchBytes == 0 {
		c.BatchBytes = 32 << 10
	}
	if c.MaxInflightBatches == 0 {
		c.MaxInflightBatches = 8
	}
	return nil
}

// Callback receives an operation's result. value is valid only during the
// call.
type Callback func(status wire.ResultStatus, value []byte)

// session is one connection to one server thread, with its view cache and
// pipelined batches (§3.1.1).
type session struct {
	serverID string
	conn     transport.Conn
	view     metadata.View
	id       uint64
	// broken marks a dead connection (server crash/restart). Operations in
	// inflight are preserved for RecoverSessions to replay (§3.3.1
	// client-assisted recovery) rather than failed.
	broken bool
	// pausedUntil holds flushes off after the server shed a batch (overload);
	// shedStreak escalates the jittered pause while sheds keep coming.
	pausedUntil time.Time
	shedStreak  int

	building wire.RequestBatch
	buildSz  int
	nextSeq  uint32

	inflight    map[uint32]queuedOp // seq -> op (for result routing + rejection replay)
	sentBatches int

	encodeBuf []byte
}

// queuedOp is an operation retained until its result arrives so a rejected
// batch can be re-routed.
type queuedOp struct {
	kind  wire.OpKind
	key   []byte
	value []byte
	cb    Callback
}

// Thread is a single client thread (§3.1.1: one per vCPU, pinned). It is
// not safe for concurrent use; Poll must be called from the owning
// goroutine.
type Thread struct {
	cfg         Config
	id          uint64
	sessions    map[string]*session
	ownership   map[string]metadata.View
	outstanding int
	closed      bool

	// breakers trip per-server after repeated dial failures so a dead or
	// partitioned server costs issue() a map lookup, not a dial timeout,
	// until a half-open probe succeeds.
	breakers backoff.Set

	stats ThreadStats
}

// ThreadStats counts client-side events.
type ThreadStats struct {
	OpsIssued       uint64
	OpsCompleted    uint64
	BatchesSent     uint64
	BatchesRejected uint64
	// BatchesShed counts batches the server turned away under overload
	// (admission control); the ops were requeued after a pause.
	BatchesShed uint64
	Refreshes   uint64
}

// NewThread builds a client thread with a fresh ownership cache. Threads
// may be created from any goroutine; each Thread is then single-owner.
//
// The thread id seeds session identifiers, which index the server's durable
// session table across crashes — so it is drawn at random (48 bits) rather
// than from a process-local counter: a restarted client process must not
// reuse a previous process's session id, or a recovered server would hand
// it the old session's durable prefix and falsely complete its fresh writes.
func NewThread(cfg Config) (*Thread, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	t := &Thread{
		cfg:      cfg,
		id:       rand.Uint64() >> 16,
		sessions: make(map[string]*session),
	}
	t.refreshOwnership()
	return t, nil
}

// refreshOwnership re-reads the ownership mappings from the metadata store
// and updates every session's cached view.
func (t *Thread) refreshOwnership() {
	t.ownership = t.cfg.Meta.Ownership()
	t.stats.Refreshes++
	for id, s := range t.sessions {
		if v, ok := t.ownership[id]; ok {
			s.view = v
		}
	}
}

// ownerOf returns the server owning hash h per the cached mappings.
func (t *Thread) ownerOf(h uint64) (string, bool) {
	for id, v := range t.ownership {
		if v.Owns(h) {
			return id, true
		}
	}
	return "", false
}

// sessionFor returns (dialing if necessary) the session to serverID.
func (t *Thread) sessionFor(serverID string) (*session, error) {
	if s, ok := t.sessions[serverID]; ok {
		return s, nil
	}
	br := t.breakers.For(serverID)
	if !br.Allow() {
		return nil, fmt.Errorf("client: %s unreachable (circuit open)", serverID)
	}
	addr, err := t.cfg.Meta.ServerAddr(serverID)
	if err != nil {
		br.Failure()
		return nil, err
	}
	conn, err := t.cfg.Transport.Dial(addr)
	if err != nil {
		br.Failure()
		return nil, err
	}
	br.Success()
	s := &session{
		serverID: serverID,
		conn:     conn,
		view:     t.ownership[serverID],
		id:       t.id<<16 | uint64(len(t.sessions)),
		inflight: make(map[uint32]queuedOp),
	}
	s.building.SessionID = s.id
	t.sessions[serverID] = s
	return s, nil
}

// Read issues an asynchronous read; cb runs during a later Poll.
func (t *Thread) Read(key []byte, cb Callback) error {
	return t.issue(wire.OpRead, key, nil, cb)
}

// Upsert issues an asynchronous blind write.
func (t *Thread) Upsert(key, value []byte, cb Callback) error {
	return t.issue(wire.OpUpsert, key, value, cb)
}

// RMW issues an asynchronous read-modify-write with the given input.
func (t *Thread) RMW(key, input []byte, cb Callback) error {
	return t.issue(wire.OpRMW, key, input, cb)
}

// Delete issues an asynchronous delete.
func (t *Thread) Delete(key []byte, cb Callback) error {
	return t.issue(wire.OpDelete, key, nil, cb)
}

// issue buffers one operation into the owning server's session (§3.1.1:
// "buffers the request inside the session, enqueues a completion callback,
// and returns").
func (t *Thread) issue(kind wire.OpKind, key, value []byte, cb Callback) error {
	if t.closed {
		// The completion guarantee holds even for late arrivals: the
		// callback fires (with StatusClosed) before the error returns.
		if cb != nil {
			cb(wire.StatusClosed, nil)
		}
		return ErrClosed
	}
	if len(key) > math.MaxUint16 {
		// A request batch carries key lengths as u16. Encoded anyway, the
		// frame would fail the server's decode and every op batched with
		// this one would wait forever, so the op completes here instead.
		if cb != nil {
			cb(wire.StatusErr, nil)
		}
		return fmt.Errorf("client: %d-byte key exceeds the %d-byte wire limit", len(key), math.MaxUint16)
	}
	op := queuedOp{kind: kind,
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		cb:    cb}
	t.stats.OpsIssued++
	t.outstanding++
	return t.enqueue(op)
}

func (t *Thread) enqueue(op queuedOp) error {
	h := faster.HashOf(op.key)
	owner, ok := t.ownerOf(h)
	if !ok {
		t.refreshOwnership()
		if owner, ok = t.ownerOf(h); !ok {
			t.complete(op, wire.StatusNotOwner, nil)
			return fmt.Errorf("client: no owner for key hash %#x", h)
		}
	}
	s, err := t.sessionFor(owner)
	if err != nil {
		t.complete(op, wire.StatusErr, nil)
		return err
	}
	seq := s.nextSeq
	s.nextSeq++
	s.building.Ops = append(s.building.Ops, wire.Op{
		Kind: op.kind, Seq: seq, Key: op.key, Value: op.value})
	s.buildSz += 19 + len(op.key) + len(op.value)
	s.inflight[seq] = op
	if len(s.building.Ops) >= t.cfg.BatchOps || s.buildSz >= t.cfg.BatchBytes {
		t.flushSession(s)
	}
	return nil
}

// Flush sends every session's partial batch.
func (t *Thread) Flush() {
	for _, s := range t.sessions {
		t.flushSession(s)
	}
}

// flushSession ships the building batch if pipelining allows; otherwise it
// stays buffered (flow control) and later Polls retry.
func (t *Thread) flushSession(s *session) {
	if len(s.building.Ops) == 0 {
		return
	}
	if s.broken {
		return // ops stay buffered until RecoverSessions replays them
	}
	if s.sentBatches >= t.cfg.MaxInflightBatches {
		return // pipeline full; Poll will drain and re-flush
	}
	if !s.pausedUntil.IsZero() {
		if time.Now().Before(s.pausedUntil) {
			return // shed back-off in effect; Poll re-flushes once it lapses
		}
		s.pausedUntil = time.Time{}
	}
	s.building.View = s.view.Number
	s.encodeBuf = wire.AppendRequestBatch(s.encodeBuf[:0], &s.building)
	if err := s.conn.Send(s.encodeBuf); err != nil {
		// Connection lost: keep the ops in inflight for session recovery —
		// the server may have applied earlier batches, and only a recovered
		// server can say which (RecoverSessions asks it).
		s.broken = true
	} else {
		t.stats.BatchesSent++
		s.sentBatches++
	}
	s.building.Ops = s.building.Ops[:0]
	s.buildSz = 0
}

// Poll processes available responses on all sessions; it returns the number
// of operations completed. Call it in the thread's main loop (§3.1.1: "on
// receiving a batch of results, the library dequeues callbacks and executes
// them").
func (t *Thread) Poll() int {
	n := 0
	for _, s := range t.sessions {
		for {
			frame, ok, err := s.conn.TryRecv()
			if err != nil {
				s.broken = true
				break
			}
			if !ok {
				break
			}
			n += t.handleResponse(s, frame)
		}
		// Renewed window: push buffered ops out.
		if len(s.building.Ops) > 0 && s.sentBatches < t.cfg.MaxInflightBatches {
			t.flushSession(s)
		}
	}
	return n
}

func (t *Thread) handleResponse(s *session, frame []byte) int {
	var resp wire.ResponseBatch
	if err := wire.DecodeResponseBatch(frame, &resp); err != nil {
		return 0
	}
	if resp.Shed {
		// Overload, not a view problem: the server's admission control turned
		// the batch away. Requeue exactly its operations (seqs echoed, as for
		// rejection) WITHOUT a metadata refresh — ownership is fine — and back
		// the session off with an escalating jittered pause so a congested
		// server sees decaying retry pressure instead of an instant replay.
		t.stats.BatchesShed++
		if s.sentBatches > 0 {
			s.sentBatches--
		}
		pause := backoff.Policy{Base: time.Millisecond, Max: 50 * time.Millisecond}.Delay(s.shedStreak)
		s.shedStreak++
		s.pausedUntil = time.Now().Add(pause)
		for i := range resp.Results {
			seq := resp.Results[i].Seq
			if op, ok := s.inflight[seq]; ok {
				delete(s.inflight, seq)
				t.outstanding-- // enqueue re-counts
				t.stats.OpsIssued--
				t.issueRequeued(op)
			}
		}
		return 0
	}
	s.shedStreak = 0
	if resp.Rejected {
		// View mismatch (§3.2.1): refresh ownership, requeue exactly the
		// rejected batch's operations (the server echoed their seqs — a
		// broader requeue would double-apply RMWs still in flight in other
		// batches), and re-bucket anything still buffered under stale
		// ownership.
		t.stats.BatchesRejected++
		if s.sentBatches > 0 {
			s.sentBatches--
		}
		t.refreshOwnership()
		var requeue []queuedOp
		for i := range resp.Results {
			seq := resp.Results[i].Seq
			if op, ok := s.inflight[seq]; ok {
				requeue = append(requeue, op)
				delete(s.inflight, seq)
			}
		}
		requeue = append(requeue, t.unbucketBuffered()...)
		for _, op := range requeue {
			t.outstanding-- // enqueue re-counts
			t.stats.OpsIssued--
			t.issueRequeued(op)
		}
		return 0
	}
	if s.sentBatches > 0 {
		s.sentBatches--
	}
	n := 0
	for i := range resp.Results {
		r := &resp.Results[i]
		op, ok := s.inflight[r.Seq]
		if !ok {
			continue
		}
		delete(s.inflight, r.Seq)
		t.complete(op, r.Status, r.Value)
		n++
	}
	return n
}

// unbucketBuffered removes every session's not-yet-sent operations so they
// can be re-routed under freshly refreshed ownership: an op buffered for a
// server that just lost its range would otherwise be executed by a server
// that no longer owns the key.
func (t *Thread) unbucketBuffered() []queuedOp {
	var out []queuedOp
	for _, s := range t.sessions {
		if len(s.building.Ops) == 0 {
			continue
		}
		for _, wop := range s.building.Ops {
			if op, ok := s.inflight[wop.Seq]; ok {
				out = append(out, op)
				delete(s.inflight, wop.Seq)
			}
		}
		s.building.Ops = s.building.Ops[:0]
		s.buildSz = 0
	}
	return out
}

func (t *Thread) issueRequeued(op queuedOp) {
	t.stats.OpsIssued++
	t.outstanding++
	t.enqueue(op)
}

func (t *Thread) complete(op queuedOp, st wire.ResultStatus, v []byte) {
	t.outstanding--
	t.stats.OpsCompleted++
	if op.cb != nil {
		op.cb(st, v)
	}
}

// Outstanding returns the number of issued-but-uncompleted operations.
func (t *Thread) Outstanding() int { return t.outstanding }

// Stats returns a copy of the thread's counters.
func (t *Thread) Stats() ThreadStats { return t.stats }

// Drain flushes and polls until no operations are outstanding or the
// timeout expires; returns true on full drain.
func (t *Thread) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.outstanding > 0 {
		// Checked every iteration, not just on idle polls: a session making
		// steady partial progress (frames keep arriving but the outstanding
		// set never empties) must still stop at the deadline.
		if time.Now().After(deadline) {
			return false
		}
		t.Flush()
		if t.Poll() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

// Close tears down all sessions. Every operation still outstanding —
// buffered, in flight, or parked on a broken session — completes through its
// callback with StatusClosed before Close returns, so an issued operation
// always receives exactly one completion. Operations issued after Close fail
// the same way immediately.
func (t *Thread) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, s := range t.sessions {
		s.conn.Close()
		// Complete in sequence order: the order the ops were issued in.
		seqs := make([]uint32, 0, len(s.inflight))
		for seq := range s.inflight {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			op := s.inflight[seq]
			delete(s.inflight, seq)
			t.complete(op, wire.StatusClosed, nil)
		}
		s.building.Ops = s.building.Ops[:0]
		s.buildSz = 0
	}
	t.sessions = map[string]*session{}
}
