package client

import (
	"fmt"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the client half of Shadowfax's crash recovery
// (§3.3.1): client-assisted session recovery. (Checkpoint administration
// lives on Admin with the rest of the control plane; see admin.go.)
// A server checkpoint durably records, per client session, the last applied
// operation sequence number. After the server restarts from that image, each
// client asks it where its session's durable prefix ends and then replays
// exactly the in-flight operations past it — writes at or below the prefix
// are acknowledged locally (they are durable; only the ack was lost), writes
// and reads above it are re-issued. The result is exactly-once semantics for
// updates across a server crash without any server-side redo log.

// RecoverSessions runs that protocol for every session, on a fresh connection
// to its (possibly restarted) server; what is replayed is replayed in issue
// order. Responses still buffered on the old connection are discarded — every
// affected operation is settled by the reconciliation, exactly once.
//
// Call it after a server crash/restart (a session whose sends or receives
// fail is also marked broken and stops transmitting until recovered). The
// thread must be quiescent in the sense that it is not concurrently issuing
// new operations — its natural state, since Thread is single-goroutine.
// Against a server that never crashed the reconciliation is still correct
// only once the server has drained the session's in-transit batches; the
// intended use is after a restart, where none exist.
//
// The handshake phase runs against every server before any session state is
// touched, so on error (server still down, metadata stale) nothing is lost:
// the call can simply be retried.
func (t *Thread) RecoverSessions(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	t.refreshOwnership()

	// Phase 1: dial and handshake every session on fresh connections,
	// without touching session state.
	type handshake struct {
		s    *session
		conn transport.Conn
		resp wire.SessionRecoverResp
	}
	handshakes := make([]handshake, 0, len(t.sessions))
	var retired []*session
	fail := func(err error) error {
		for _, h := range handshakes {
			h.conn.Close()
		}
		return err
	}
	for id, s := range t.sessions {
		if _, err := t.cluster.GetView(id); err != nil {
			// The server was retired (scale-in drained its ranges and removed
			// it from the metadata store). There is nothing to reconcile
			// against: the session is dropped and its in-flight operations
			// replay against the ranges' current owners.
			retired = append(retired, s)
			continue
		}
		addr, err := t.cluster.ServerAddr(id)
		if err != nil {
			return fail(err)
		}
		conn, err := t.cfg.Transport.Dial(addr)
		if err != nil {
			return fail(fmt.Errorf("client: redialing %s: %w", id, err))
		}
		resp, err := recoverSession(conn, s.building.SessionID, deadline)
		if err != nil {
			conn.Close()
			return fail(fmt.Errorf("client: session-recover to %s: %w", id, err))
		}
		handshakes = append(handshakes, handshake{s: s, conn: conn, resp: resp})
	}

	// Phase 2: every server answered — adopt connections and reconcile.
	for _, h := range handshakes {
		s, resp := h.s, h.resp
		// The session object (and its sequence counter) lives on.
		s.conn.Close()
		s.conn = h.conn
		s.broken = false
		s.sentBatches = 0
		// Partition the session's operations at the durable prefix; settle
		// walks in sequence order, so replay preserves the session's order.
		t.settle(s, func(i int32) {
			if o := &t.ops[i]; resp.Known && o.Seq <= resp.LastSeq && o.Kind != wire.OpRead {
				// Durable before the crash; only the ack was lost. Complete
				// without re-executing (re-running an RMW would double-apply).
				// StatusOK is the status the server actually produced: in
				// this store every write op completes OK (upserts are blind,
				// deletes of absent keys write a tombstone and report OK,
				// RMWs initialize absent keys) — only reads distinguish
				// outcomes, and reads are re-executed.
				t.complete(i, wire.StatusOK, nil)
				return
			}
			t.requeue(i)
		})
	}
	for _, s := range retired {
		s.conn.Close()
		delete(t.sessions, s.serverID)
		t.settle(s, t.requeue)
	}
	// Every session is on its new connection: the replays take their routes.
	t.reroute()
	t.Flush()
	return nil
}

// BrokenSessions reports how many sessions are awaiting recovery.
func (t *Thread) BrokenSessions() int {
	n := 0
	for _, s := range t.sessions {
		if s.broken {
			n++
		}
	}
	return n
}

// FailBroken gives up on every broken session: each parked operation —
// in flight or still buffered — completes through its callback with
// StatusBrokenSession, and the session is dropped so later operations
// re-resolve ownership and dial fresh. The escape hatch for when
// RecoverSessions has exhausted its retries (server gone for good, metadata
// repointed elsewhere): parked futures fail promptly instead of waiting
// forever. A StatusBrokenSession write may or may not have executed on the
// server — exactly-once only holds for operations reconciled through
// RecoverSessions. Returns the number of operations failed.
func (t *Thread) FailBroken() int {
	n := 0
	for id, s := range t.sessions {
		if !s.broken {
			continue
		}
		s.conn.Close()
		delete(t.sessions, id)
		t.settle(s, func(i int32) {
			t.complete(i, wire.StatusBrokenSession, nil)
			n++
		})
	}
	return n
}

// recoverSession asks the server on conn for sessionID's durable prefix and
// polls for the matching MsgSessionRecoverResp, discarding unrelated frames,
// until deadline.
func recoverSession(conn transport.Conn, sessionID uint64, deadline time.Time) (wire.SessionRecoverResp, error) {
	if err := conn.Send(wire.EncodeSessionRecover(wire.SessionRecover{SessionID: sessionID})); err != nil {
		return wire.SessionRecoverResp{}, err
	}
	for {
		frame, err := transport.AwaitFrame(conn, byte(wire.MsgSessionRecoverResp), deadline, nil)
		if err != nil {
			return wire.SessionRecoverResp{}, err
		}
		resp, err := wire.DecodeSessionRecoverResp(frame)
		if err != nil || resp.SessionID == sessionID {
			return resp, err
		}
	}
}
