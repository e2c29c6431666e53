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
}

const (
	// batchBytes flushes a session's buffer before BatchOps is reached once
	// the encoded batch is this large (the paper reports batch sizes in KB;
	// Table 2).
	batchBytes = 32 << 10
	// maxInflightBatches bounds pipelining per session (queue depth).
	maxInflightBatches = 8
)

func (c *Config) applyDefaults() error {
	if c.Transport == nil || c.Meta == nil {
		return errors.New("client: Transport and Meta required")
	}
	if c.BatchOps == 0 {
		c.BatchOps = 256
	}
	return nil
}

// Callback receives an operation's result. value is valid only during the
// call. A callback may issue operations; it must not call Poll, Drain,
// RecoverSessions, FailBroken or Close (it runs inside one of them).
type Callback func(status wire.ResultStatus, value []byte)

// session is one connection to one server thread, with its view cache and
// pipelined batches (§3.1.1).
type session struct {
	serverID string
	conn     transport.Conn
	view     metadata.View
	// broken marks a dead connection (server crash/restart). The session's
	// operations stay parked on it for RecoverSessions to replay (§3.3.1
	// client-assisted recovery) rather than failed.
	broken bool
	// pausedUntil holds flushes off after the server shed a batch (overload);
	// shedStreak escalates the jittered pause while sheds keep coming.
	pausedUntil time.Time
	shedStreak  int

	building wire.RequestBatch // copies of the newest slots' Op, not yet sent
	buildSz  int
	nextSeq  uint32

	// head..tail thread every slot the session retains, in issue (= seq)
	// order; bySeq finds one by the sequence number a response carries.
	head, tail  int32
	bySeq       map[uint32]int32
	sentBatches int

	encodeBuf []byte
}

// Thread is a single client thread (§3.1.1: one per vCPU, pinned). It is
// not safe for concurrent use; Poll must be called from the owning
// goroutine.
type Thread struct {
	cfg         Config
	id          uint64
	dialed      uint64 // sessions ever dialed: the next session id's low bits
	sessions    map[string]*session
	cluster     *metadata.Snapshot // the cached cluster state operations route on
	outstanding int
	closed      bool

	ops       []op    // the slot table; see op
	free      []int32 // free slots, most recently freed last
	rerouting []int32 // requeued slots, in requeue order
	resp      wire.ResponseBatch

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

// Add accumulates o into s (a client sums its threads).
func (s *ThreadStats) Add(o ThreadStats) {
	s.OpsIssued += o.OpsIssued
	s.OpsCompleted += o.OpsCompleted
	s.BatchesSent += o.BatchesSent
	s.BatchesRejected += o.BatchesRejected
	s.BatchesShed += o.BatchesShed
	s.Refreshes += o.Refreshes
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
		ops:      make([]op, 1),
	}
	t.refreshOwnership()
	return t, nil
}

// refreshOwnership re-reads the cluster snapshot (a provider cut off from its
// endpoint returns the last one it saw) and updates every session's view.
func (t *Thread) refreshOwnership() {
	t.cluster, _ = t.cfg.Meta.Snapshot()
	t.stats.Refreshes++
	for id, s := range t.sessions {
		if v, err := t.cluster.GetView(id); err == nil {
			s.view = v
		}
	}
}

// serverAddr resolves id's address in the provider's current state, not a
// cached snapshot: a dial may follow the server's move to a new address.
func serverAddr(meta metadata.Provider, id string) (string, error) {
	snap, err := meta.Snapshot()
	if err != nil {
		return "", err
	}
	return snap.ServerAddr(id)
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
	var conn transport.Conn
	addr, err := serverAddr(t.cfg.Meta, serverID)
	if err == nil {
		conn, err = t.cfg.Transport.Dial(addr)
	}
	if err != nil {
		br.Failure()
		return nil, err
	}
	br.Success()
	// The id's low bits count dials, not len(t.sessions): FailBroken and
	// retirement shrink that map, and a re-dial reusing a dropped id, its seqs
	// back at 0, would sit under the server's high-water mark for that id —
	// the falsely-completed-writes hazard NewThread describes.
	s := &session{serverID: serverID, conn: conn, bySeq: make(map[uint32]int32)}
	s.view, _ = t.cluster.GetView(serverID) // routed here, so it is registered
	s.building.SessionID = t.id<<16 | t.dialed
	t.dialed++
	t.sessions[serverID] = s
	return s, nil
}

// Read issues an asynchronous read; cb runs during a later Poll.
func (t *Thread) Read(key []byte, cb Callback) error {
	return t.Issue(wire.OpRead, key, nil, cb)
}

// Upsert issues an asynchronous blind write.
func (t *Thread) Upsert(key, value []byte, cb Callback) error {
	return t.Issue(wire.OpUpsert, key, value, cb)
}

// RMW issues an asynchronous read-modify-write with the given input.
func (t *Thread) RMW(key, input []byte, cb Callback) error {
	return t.Issue(wire.OpRMW, key, input, cb)
}

// Delete issues an asynchronous delete.
func (t *Thread) Delete(key []byte, cb Callback) error {
	return t.Issue(wire.OpDelete, key, nil, cb)
}

// Issue buffers one operation into the owning server's session (§3.1.1:
// "buffers the request inside the session, enqueues a completion callback,
// and returns").
func (t *Thread) Issue(kind wire.OpKind, key, value []byte, cb Callback) error {
	st, refused := wire.StatusClosed, error(nil)
	if t.closed {
		refused = ErrClosed
	} else if len(key) > math.MaxUint16 {
		// A request batch carries key lengths as u16. Encoded anyway, the
		// frame would fail the server's decode and every op batched with
		// this one would wait forever, so the op completes here instead.
		refused, st = fmt.Errorf("client: %d-byte key exceeds the %d-byte wire limit", len(key), math.MaxUint16), wire.StatusErr
	}
	if refused != nil {
		// The completion guarantee holds even for a refused operation: the
		// callback fires before the error returns.
		if cb != nil {
			cb(st, nil)
		}
		return refused
	}
	t.stats.OpsIssued++
	t.outstanding++
	return t.enqueue(t.claim(kind, key, value, cb))
}

// enqueue routes slot i — fresh from claim or back from requeue — to the
// session of its key's current owner, or completes it if it has no route.
func (t *Thread) enqueue(i int32) error {
	h := faster.HashOf(t.ops[i].Key)
	owner, ok := t.cluster.Owner(h)
	if !ok {
		t.refreshOwnership()
		if owner, ok = t.cluster.Owner(h); !ok {
			t.complete(i, wire.StatusNotOwner, nil)
			return fmt.Errorf("client: no owner for key hash %#x", h)
		}
	}
	s, err := t.sessionFor(owner)
	if err != nil {
		t.complete(i, wire.StatusErr, nil)
		return err
	}
	t.push(s, i)
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
//
//shadowfax:noalloc
func (t *Thread) flushSession(s *session) {
	if len(s.building.Ops) == 0 {
		return
	}
	if s.broken {
		return // ops stay buffered until RecoverSessions replays them
	}
	if s.sentBatches >= maxInflightBatches {
		return // pipeline full; Poll will drain and re-flush
	}
	if time.Now().Before(s.pausedUntil) {
		return // shed back-off in effect; Poll re-flushes once it lapses
	}
	s.building.View = s.view.Number
	s.encodeBuf = wire.AppendRequestBatch(s.encodeBuf[:0], &s.building)
	if err := s.conn.Send(s.encodeBuf); err != nil {
		// Connection lost: the ops stay parked on the session for recovery —
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

// Poll processes available responses on all sessions, re-routes what the
// servers refused and pushes buffered operations into the renewed windows; it
// returns the number of operations completed. Call it in the thread's main
// loop (§3.1.1: "on receiving a batch of results, the library dequeues
// callbacks and executes them").
func (t *Thread) Poll() int {
	n := 0
	for _, s := range t.sessions {
		for {
			frame, ok, err := s.conn.TryRecv()
			s.broken = s.broken || err != nil
			if !ok || err != nil {
				break
			}
			n += t.handleResponse(s, frame)
		}
	}
	t.reroute()
	t.Flush()
	return n
}

// handleResponse settles one response frame and returns the number of
// operations it completed.
//
//shadowfax:noalloc
func (t *Thread) handleResponse(s *session, frame []byte) int {
	resp := &t.resp
	if err := wire.DecodeResponseBatch(frame, resp); err != nil {
		return 0
	}
	if s.sentBatches > 0 {
		s.sentBatches--
	}
	if resp.Shed {
		// Overload, not a view problem: the server's admission control turned
		// the batch away. No metadata refresh — ownership is fine, the ops go
		// back to this server — but the session backs off with an escalating
		// jittered pause so a congested server sees decaying retry pressure
		// instead of an instant replay.
		t.stats.BatchesShed++
		pause := backoff.Policy{Base: time.Millisecond, Max: 50 * time.Millisecond}.Delay(s.shedStreak)
		s.shedStreak++
		s.pausedUntil = time.Now().Add(pause)
	} else {
		s.shedStreak = 0
	}
	if resp.Rejected {
		// View mismatch (§3.2.1): the ops re-route under refreshed ownership.
		t.stats.BatchesRejected++
		t.refreshOwnership()
	}
	n := 0
	for k := range resp.Results {
		r := &resp.Results[k]
		i, ok := s.bySeq[r.Seq]
		switch {
		case !ok: // already answered, or settled by a recovery
		case resp.Shed || resp.Rejected:
			// Exactly the operations whose seqs the server echoed: a broader
			// requeue would double-apply RMWs in flight in other batches.
			t.requeue(i)
		default:
			t.complete(i, r.Status, r.Value)
			n++
		}
	}
	if resp.Rejected {
		// Anything still buffered was bucketed under the stale ownership: an
		// op buffered for a server that just lost its range would otherwise
		// be executed by a server that no longer owns the key.
		for _, o := range t.sessions {
			for k := range o.building.Ops {
				if i, ok := o.bySeq[o.building.Ops[k].Seq]; ok {
					t.requeue(i)
				}
			}
			o.building.Ops = o.building.Ops[:0]
			o.buildSz = 0
		}
	}
	return n
}

// Outstanding returns the number of issued-but-uncompleted operations.
func (t *Thread) Outstanding() int { return t.outstanding }

// Stats returns a copy of the thread's counters.
func (t *Thread) Stats() ThreadStats { return t.stats }

// Drain polls (which also flushes) until no operations are outstanding or
// the timeout expires; returns true on full drain.
func (t *Thread) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for t.outstanding > 0 {
		// Checked every iteration, not just on idle polls: a session making
		// steady partial progress (frames keep arriving but the outstanding
		// set never empties) must still stop at the deadline.
		if time.Now().After(deadline) {
			return false
		}
		if t.Poll() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	return true
}

// Close tears down all sessions. Every operation still outstanding —
// buffered, in flight, or parked on a broken session — completes through its
// callback with StatusClosed, in issue order per session, before Close
// returns, so an issued operation always receives exactly one completion.
// Operations issued after Close fail the same way immediately.
func (t *Thread) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, s := range t.sessions {
		s.conn.Close()
		t.settle(s, func(i int32) { t.complete(i, wire.StatusClosed, nil) })
	}
	t.sessions = map[string]*session{}
}
