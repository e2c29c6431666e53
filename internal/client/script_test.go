package client_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faster"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file drives client.Thread against a scripted transport: the test plays
// the servers, one frame at a time, so the paths that otherwise only the soaks
// reach — shed, rejection + re-bucketing, out-of-order results, recovery,
// retirement, FailBroken, Close — are each pinned by a deterministic case.
// Everything runs on the test goroutine: Send calls the server script inline
// and the script queues the frames the next TryRecv hands back.

// script is the fake transport.Transport; servers are keyed by address (which
// equals the server id).
type script struct {
	meta    *metadata.Store
	servers map[string]*fakeServer
}

type fakeServer struct {
	conns   []*fakeConn
	batches []*recvBatch // every request batch received, in arrival order
	// onBatch answers a batch; nil acknowledges every op (see ack).
	onBatch func(c *fakeConn, b *recvBatch)
	// recovered answers a session-recover handshake.
	recovered func(sessionID uint64) wire.SessionRecoverResp
}

// recvBatch is a deep copy of one request batch (the client reuses its encode
// buffer) plus where and when it arrived.
type recvBatch struct {
	wire.RequestBatch
	conn *fakeConn
	at   time.Time
}

// fakeConn is the four-method transport.Conn.
type fakeConn struct {
	sv      *fakeServer
	inbox   [][]byte
	sendErr error // non-nil: every Send fails (the server died)
	closed  bool
}

func newScript(servers ...string) *script {
	sc := &script{meta: metadata.NewStore(), servers: map[string]*fakeServer{}}
	for _, id := range servers {
		sc.servers[id] = &fakeServer{}
		sc.meta.SetServerAddr(id, id)
	}
	return sc
}

func (sc *script) Listen(string) (transport.Listener, error) {
	return nil, errors.New("script: the test is the server")
}

func (sc *script) Dial(addr string) (transport.Conn, error) {
	sv := sc.servers[addr]
	if sv == nil {
		return nil, fmt.Errorf("script: nothing listens on %q", addr)
	}
	c := &fakeConn{sv: sv}
	sv.conns = append(sv.conns, c)
	return c, nil
}

func (c *fakeConn) Send(frame []byte) error {
	if c.sendErr != nil {
		return c.sendErr
	}
	switch typ, _ := wire.PeekType(frame); typ {
	case wire.MsgRequestBatch:
		var b wire.RequestBatch
		if err := wire.DecodeRequestBatch(frame, &b); err != nil {
			return err
		}
		rb := &recvBatch{RequestBatch: b, conn: c, at: time.Now()}
		rb.Ops = slices.Clone(b.Ops)
		for i := range rb.Ops {
			rb.Ops[i].Key = slices.Clone(rb.Ops[i].Key)
			rb.Ops[i].Value = slices.Clone(rb.Ops[i].Value)
		}
		c.sv.batches = append(c.sv.batches, rb)
		if c.sv.onBatch != nil {
			c.sv.onBatch(c, rb)
		} else {
			c.ack(rb)
		}
	case wire.MsgSessionRecover:
		req, err := wire.DecodeSessionRecover(frame)
		if err != nil {
			return err
		}
		resp := wire.SessionRecoverResp{SessionID: req.SessionID}
		if c.sv.recovered != nil {
			resp = c.sv.recovered(req.SessionID)
		}
		c.inbox = append(c.inbox, wire.EncodeSessionRecoverResp(resp))
	}
	return nil
}

func (c *fakeConn) Recv() ([]byte, error) { return nil, errors.New("script: poll with TryRecv") }

func (c *fakeConn) TryRecv() ([]byte, bool, error) {
	if len(c.inbox) == 0 {
		return nil, false, nil
	}
	f := c.inbox[0]
	c.inbox = c.inbox[1:]
	return f, true, nil
}

func (c *fakeConn) Close() error { c.closed = true; return nil }

// result is what the scripted server answers an op with: reads return
// "v:<key>", everything else an empty OK.
func result(op wire.Op) wire.Result {
	r := wire.Result{Seq: op.Seq, Status: wire.StatusOK}
	if op.Kind == wire.OpRead {
		r.Value = append([]byte("v:"), op.Key...)
	}
	return r
}

// reply queues one response frame carrying results for ops, in that order.
func (c *fakeConn) reply(b *recvBatch, ops ...wire.Op) {
	resp := wire.ResponseBatch{SessionID: b.SessionID}
	for _, op := range ops {
		resp.Results = append(resp.Results, result(op))
	}
	c.inbox = append(c.inbox, wire.AppendResponseBatch(nil, &resp))
}

func (c *fakeConn) ack(b *recvBatch) { c.reply(b, b.Ops...) }

// refuse queues a shed or rejected response echoing the batch's seqs.
func (c *fakeConn) refuse(b *recvBatch, shed bool) {
	resp := wire.ResponseBatch{SessionID: b.SessionID, Shed: shed, Rejected: !shed}
	for _, op := range b.Ops {
		resp.Results = append(resp.Results, wire.Result{Seq: op.Seq})
	}
	c.inbox = append(c.inbox, wire.AppendResponseBatch(nil, &resp))
}

// keys returns the keys of b's ops, in batch order.
func (b *recvBatch) keys() []string {
	out := make([]string, len(b.Ops))
	for i, op := range b.Ops {
		out[i] = string(op.Key)
	}
	return out
}

// sentKeys flattens the keys of batches[from:], in arrival order.
func (sv *fakeServer) sentKeys(from int) []string {
	var out []string
	for _, b := range sv.batches[from:] {
		out = append(out, b.keys()...)
	}
	return out
}

// Two halves of the hash space, for the two-server cases.
var (
	lowHalf  = metadata.HashRange{Start: 0, End: 1 << 63}
	highHalf = metadata.HashRange{Start: 1 << 63, End: math.MaxUint64}
)

// keysIn returns n distinct keys named prefix-<i> whose hashes fall in rng.
func keysIn(rng metadata.HashRange, prefix string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if rng.Contains(faster.HashOf([]byte(k))) {
			out = append(out, k)
		}
	}
	return out
}

// completion is one callback invocation.
type completion struct {
	key    string
	status wire.ResultStatus
	value  string
}

// driver issues operations on a thread and logs every callback.
type driver struct {
	t      *testing.T
	th     *client.Thread
	issued []string
	done   []completion
}

func newDriver(t *testing.T, sc *script, batchOps int) *driver {
	t.Helper()
	th, err := client.NewThread(client.Config{Transport: sc, Meta: sc.meta, BatchOps: batchOps})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(th.Close)
	return &driver{t: t, th: th}
}

func (d *driver) issue(kind wire.OpKind, keys ...string) {
	d.t.Helper()
	for _, k := range keys {
		k := k
		cb := func(st wire.ResultStatus, v []byte) {
			d.done = append(d.done, completion{k, st, string(v)})
		}
		var err error
		switch kind {
		case wire.OpRead:
			err = d.th.Read([]byte(k), cb)
		case wire.OpUpsert:
			err = d.th.Upsert([]byte(k), []byte("x"), cb)
		case wire.OpRMW:
			err = d.th.RMW([]byte(k), []byte{1, 0, 0, 0, 0, 0, 0, 0}, cb)
		case wire.OpDelete:
			err = d.th.Delete([]byte(k), cb)
		}
		if err != nil {
			d.t.Fatalf("issue %s: %v", k, err)
		}
		d.issued = append(d.issued, k)
	}
}

func (d *driver) drain() {
	d.t.Helper()
	if !d.th.Drain(5 * time.Second) {
		d.t.Fatalf("drain timed out with %d outstanding", d.th.Outstanding())
	}
}

// doneKeys returns the keys of done[from:], in completion order.
func (d *driver) doneKeys(from int) []string {
	var out []string
	for _, c := range d.done[from:] {
		out = append(out, c.key)
	}
	return out
}

// settled asserts the books balance: every issued op completed exactly once,
// with want (reads of an OK op carry "v:<key>"), and the thread's counters
// agree.
func (d *driver) settled(want wire.ResultStatus) {
	d.t.Helper()
	seen := map[string]int{}
	for _, c := range d.done {
		seen[c.key]++
		if c.status != want {
			d.t.Errorf("%s completed with status %d, want %d", c.key, c.status, want)
		}
		if c.value != "" && c.value != "v:"+c.key {
			d.t.Errorf("%s completed with value %q", c.key, c.value)
		}
	}
	for _, k := range d.issued {
		if seen[k] != 1 {
			d.t.Errorf("%s: callback fired %d times, want exactly once", k, seen[k])
		}
	}
	d.books()
}

// books asserts Outstanding and Stats add up against the driver's own log.
func (d *driver) books() {
	d.t.Helper()
	st := d.th.Stats()
	if int(st.OpsIssued) != len(d.issued) || int(st.OpsCompleted) != len(d.done) {
		d.t.Errorf("stats issued/completed = %d/%d, driver saw %d/%d",
			st.OpsIssued, st.OpsCompleted, len(d.issued), len(d.done))
	}
	if got := d.th.Outstanding(); got != len(d.issued)-len(d.done) {
		d.t.Errorf("outstanding = %d, want %d", got, len(d.issued)-len(d.done))
	}
}

func wantKeys(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func TestScriptedSessions(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"shed batch requeues to the same server after the pause", scriptShed},
		{"rejected batch requeues its echoed seqs and re-buckets buffered ops", scriptRejected},
		{"results out of order and split across frames", scriptOutOfOrder},
		{"send failure then recovery against a known session", scriptRecoverKnown},
		{"retired server's session replays to the new owner", scriptRetired},
		{"FailBroken fails parked ops in issue order", scriptFailBroken},
		{"Close completes everything in issue order", scriptClose},
		{"a session holds at most 8 unanswered batches", scriptInflightWindow},
		{"large values flush a batch at 32 KiB, before BatchOps", scriptBatchBytes},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

func scriptShed(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	sv.onBatch = func(c *fakeConn, b *recvBatch) {
		if len(sv.batches) == 1 {
			c.refuse(b, true)
			return
		}
		c.ack(b)
	}
	d := newDriver(t, sc, 64)
	keys := names("k", 4)
	d.issue(wire.OpRMW, keys...)
	d.th.Flush()
	refreshes := d.th.Stats().Refreshes
	d.drain()
	d.settled(wire.StatusOK)

	if len(sv.batches) != 2 || len(sv.conns) != 1 {
		t.Fatalf("server saw %d batches on %d conns, want 2 on 1", len(sv.batches), len(sv.conns))
	}
	wantKeys(t, "requeued batch", sv.batches[1].keys(), keys)
	// The pause is 1ms ±25%; the retry must not beat it.
	if gap := sv.batches[1].at.Sub(sv.batches[0].at); gap < 700*time.Microsecond {
		t.Errorf("shed batch retried after %v, before the pause lapsed", gap)
	}
	st := d.th.Stats()
	if st.BatchesShed != 1 || st.BatchesRejected != 0 || st.BatchesSent != 2 {
		t.Errorf("stats = %+v, want 1 shed, 0 rejected, 2 sent", st)
	}
	if st.Refreshes != refreshes {
		t.Errorf("a shed batch refreshed metadata (%d → %d)", refreshes, st.Refreshes)
	}
}

func scriptRejected(t *testing.T) {
	sc := newScript("s1", "s2")
	sc.meta.RegisterServer("s1", lowHalf)
	sc.meta.RegisterServer("s2", highHalf)
	s1, s2 := sc.servers["s1"], sc.servers["s2"]
	// s1 holds its answers until the test releases them.
	s1.onBatch = func(*fakeConn, *recvBatch) {}

	d := newDriver(t, sc, 4)
	low := keysIn(lowHalf, "low", 11)
	first, second, buffered := low[:4], low[4:8], low[8:11]
	d.issue(wire.OpRMW, first...)  // batch 0 to s1: will be rejected
	d.issue(wire.OpRMW, second...) // batch 1 to s1: accepted
	// Ownership of the low half moves to s2 behind the client's back; the
	// next ops are still buffered for s1 under the stale view, next to ops
	// buffered for s2.
	if _, _, _, err := sc.meta.StartMigration("s1", "s2", lowHalf); err != nil {
		t.Fatal(err)
	}
	high := keysIn(highHalf, "high", 2)
	d.issue(wire.OpRMW, buffered...)
	d.issue(wire.OpRMW, high...)
	if len(s1.batches) != 2 || len(s2.batches) != 0 {
		t.Fatalf("before the rejection s1/s2 saw %d/%d batches, want 2/0", len(s1.batches), len(s2.batches))
	}
	refreshes := d.th.Stats().Refreshes
	c := s1.conns[0]
	c.refuse(s1.batches[0], false)
	c.ack(s1.batches[1])
	d.th.Poll() // the refusal lands while the stale ops are still buffered
	d.drain()
	d.settled(wire.StatusOK)

	if len(s1.batches) != 2 {
		t.Errorf("s1 saw %d batches, want 2: re-bucketed ops must not reach the old owner", len(s1.batches))
	}
	got := s2.sentKeys(0)
	slices.Sort(got)
	want := slices.Concat(first, buffered, high)
	slices.Sort(want)
	wantKeys(t, "ops s2 executed (echoed + re-bucketed + its own, not the accepted batch)", got, want)
	st := d.th.Stats()
	if st.BatchesRejected != 1 || st.Refreshes != refreshes+1 {
		t.Errorf("stats = %+v, want 1 rejected and one refresh past %d", st, refreshes)
	}
}

func scriptOutOfOrder(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	sv.onBatch = func(*fakeConn, *recvBatch) {}
	d := newDriver(t, sc, 64)
	keys := names("k", 6)
	d.issue(wire.OpRead, keys...)
	d.th.Flush()
	b := sv.batches[0]
	c := sv.conns[0]

	c.reply(b, b.Ops[5], b.Ops[3], b.Ops[1])
	if n := d.th.Poll(); n != 3 {
		t.Fatalf("first frame completed %d ops, want 3", n)
	}
	wantKeys(t, "first frame", d.doneKeys(0), []string{"k5", "k3", "k1"})
	d.books()
	c.reply(b, b.Ops[0])
	c.reply(b, b.Ops[4], b.Ops[2])
	// A duplicate of a result already delivered must be ignored.
	c.reply(b, b.Ops[5])
	if n := d.th.Poll(); n != 3 {
		t.Fatalf("remaining frames completed %d ops, want 3", n)
	}
	wantKeys(t, "remaining frames", d.doneKeys(3), []string{"k0", "k4", "k2"})
	d.settled(wire.StatusOK)
}

func scriptRecoverKnown(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	// The server applies batch 0 and crashes before answering anything.
	sv.onBatch = func(*fakeConn, *recvBatch) {}
	d := newDriver(t, sc, 4)
	d.issue(wire.OpUpsert, "w0")
	d.issue(wire.OpRead, "r1")
	d.issue(wire.OpRMW, "w2")
	d.issue(wire.OpDelete, "w3") // batch 0 sent
	sv.conns[0].sendErr = errors.New("script: connection reset")
	d.issue(wire.OpRMW, "w4", "w5", "w6", "w7") // batch 1: the send fails
	d.issue(wire.OpRead, "r8")                  // buffered on the broken session
	if got := d.th.BrokenSessions(); got != 1 {
		t.Fatalf("broken sessions = %d, want 1", got)
	}
	if len(d.done) != 0 {
		t.Fatalf("%d ops completed on a dead connection", len(d.done))
	}

	durable := sv.batches[0].Ops[3].Seq
	sv.recovered = func(id uint64) wire.SessionRecoverResp {
		if id != sv.batches[0].SessionID {
			t.Errorf("recover asked about session %#x, want %#x", id, sv.batches[0].SessionID)
		}
		return wire.SessionRecoverResp{SessionID: id, Known: true, LastSeq: durable}
	}
	sv.onBatch = nil
	if err := d.th.RecoverSessions(time.Second); err != nil {
		t.Fatal(err)
	}
	// Durable writes are acknowledged by the handshake alone, in issue order.
	wantKeys(t, "acked without replay", d.doneKeys(0), []string{"w0", "w2", "w3"})
	d.books()
	if d.th.BrokenSessions() != 0 || !sv.conns[0].closed || len(sv.conns) != 2 {
		t.Fatalf("session not re-established: broken %d, old conn closed %v, %d conns",
			d.th.BrokenSessions(), sv.conns[0].closed, len(sv.conns))
	}
	d.drain()
	d.settled(wire.StatusOK)
	// The read under the prefix and everything past it replay in issue order.
	wantKeys(t, "replayed", sv.sentKeys(1), []string{"r1", "w4", "w5", "w6", "w7", "r8"})
	for _, b := range sv.batches[1:] {
		if b.conn != sv.conns[1] || b.SessionID != sv.batches[0].SessionID {
			t.Errorf("replay batch on the wrong connection or session")
		}
		for _, op := range b.Ops {
			if op.Seq <= durable {
				t.Errorf("replayed %s with seq %d inside the durable prefix ≤ %d", op.Key, op.Seq, durable)
			}
		}
	}
}

func scriptRetired(t *testing.T) {
	sc := newScript("s1", "s2")
	sc.meta.RegisterServer("s1", lowHalf)
	sc.meta.RegisterServer("s2", highHalf)
	s1, s2 := sc.servers["s1"], sc.servers["s2"]
	s1.onBatch = func(*fakeConn, *recvBatch) {}
	d := newDriver(t, sc, 4)
	low := keysIn(lowHalf, "low", 6)
	d.issue(wire.OpRMW, low[:4]...) // in flight to s1
	d.issue(wire.OpRead, low[4:]...)
	// Scale-in: s1's range drains to s2 and s1 leaves the metadata store.
	m, _, _, err := sc.meta.StartMigration("s1", "s2", lowHalf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"s1", "s2"} {
		if err := sc.meta.MarkMigrationDone(m.ID, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.meta.RetireServer("s1"); err != nil {
		t.Fatal(err)
	}
	s1.conns[0].sendErr = errors.New("script: connection reset")
	d.th.Flush()
	if got := d.th.BrokenSessions(); got != 1 {
		t.Fatalf("broken sessions = %d, want 1", got)
	}

	if err := d.th.RecoverSessions(time.Second); err != nil {
		t.Fatal(err)
	}
	if d.th.BrokenSessions() != 0 || !s1.conns[0].closed || len(s1.conns) != 1 {
		t.Fatalf("retired session not dropped: broken %d, closed %v, %d conns to s1",
			d.th.BrokenSessions(), s1.conns[0].closed, len(s1.conns))
	}
	d.drain()
	d.settled(wire.StatusOK)
	wantKeys(t, "replayed to the new owner", s2.sentKeys(0), low)
}

func scriptFailBroken(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	sv.onBatch = func(*fakeConn, *recvBatch) {}
	d := newDriver(t, sc, 4)
	keys := names("k", 7)
	d.issue(wire.OpRMW, keys[:4]...) // in flight
	sv.conns[0].sendErr = errors.New("script: connection reset")
	d.issue(wire.OpRMW, keys[4:]...) // buffered; the flush fails
	d.th.Flush()
	if got := d.th.BrokenSessions(); got != 1 {
		t.Fatalf("broken sessions = %d, want 1", got)
	}
	if n := d.th.FailBroken(); n != len(keys) {
		t.Errorf("FailBroken failed %d ops, want %d", n, len(keys))
	}
	wantKeys(t, "failed in issue order", d.doneKeys(0), keys)
	d.settled(wire.StatusBrokenSession)
	if d.th.BrokenSessions() != 0 || !sv.conns[0].closed {
		t.Errorf("broken session not dropped")
	}

	// The thread dials fresh for the next operation.
	sv.onBatch = nil
	d.done, d.issued = nil, nil
	before := d.th.Stats()
	d.issue(wire.OpRead, "after")
	d.drain()
	if len(sv.conns) != 2 || len(d.done) != 1 || d.done[0].value != "v:after" {
		t.Fatalf("after FailBroken: %d conns, completions %v", len(sv.conns), d.done)
	}
	if st := d.th.Stats(); st.OpsIssued != before.OpsIssued+1 || st.OpsCompleted != before.OpsCompleted+1 {
		t.Errorf("stats did not advance by one op: %+v → %+v", before, st)
	}
}

func scriptClose(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	sv.onBatch = func(*fakeConn, *recvBatch) {}
	d := newDriver(t, sc, 4)
	keys := names("k", 10) // two batches in flight, two ops buffered
	d.issue(wire.OpUpsert, keys...)
	if len(sv.batches) != 2 {
		t.Fatalf("server saw %d batches, want 2", len(sv.batches))
	}
	d.th.Close()
	wantKeys(t, "closed in issue order", d.doneKeys(0), keys)
	d.settled(wire.StatusClosed)
	if !sv.conns[0].closed {
		t.Errorf("Close left the connection open")
	}

	fired := 0
	err := d.th.Read([]byte("late"), func(st wire.ResultStatus, _ []byte) {
		fired++
		if st != wire.StatusClosed {
			t.Errorf("post-close op completed with %d", st)
		}
	})
	if !errors.Is(err, client.ErrClosed) || fired != 1 {
		t.Errorf("post-close issue: err %v, callback fired %d times", err, fired)
	}
	d.books()
}

func scriptInflightWindow(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	sv.onBatch = func(*fakeConn, *recvBatch) {}
	d := newDriver(t, sc, 4)
	keys := names("k", 80) // twenty batches' worth
	d.issue(wire.OpRMW, keys...)
	d.th.Flush()
	d.th.Poll()
	if len(sv.batches) != 8 {
		t.Fatalf("server holds %d unanswered batches, want the window of 8", len(sv.batches))
	}
	wantKeys(t, "in flight", sv.sentKeys(0), keys[:32])
	if len(d.done) != 0 {
		t.Fatalf("%d ops completed with nothing answered", len(d.done))
	}

	// One answer opens one slot: everything buffered behind the window goes
	// out in it, and nothing more until the next answer.
	sv.conns[0].ack(sv.batches[0])
	if n := d.th.Poll(); n != 4 {
		t.Fatalf("one answered batch completed %d ops, want 4", n)
	}
	if len(sv.batches) != 9 {
		t.Fatalf("after one answer the server saw %d batches, want 9", len(sv.batches))
	}
	wantKeys(t, "resumed", sv.batches[8].keys(), keys[32:])
	d.issue(wire.OpRMW, "late-0", "late-1", "late-2", "late-3")
	if len(sv.batches) != 9 {
		t.Fatalf("a full window let batch %d out", len(sv.batches))
	}

	sv.onBatch = nil
	for _, b := range sv.batches[1:9] {
		sv.conns[0].ack(b)
	}
	d.drain()
	d.settled(wire.StatusOK)
}

func scriptBatchBytes(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	d := newDriver(t, sc, 64)
	val := make([]byte, 8<<10) // four of these pass 32 KiB
	upsert := func(k string) {
		if err := d.th.Upsert([]byte(k), val, func(st wire.ResultStatus, _ []byte) {
			d.done = append(d.done, completion{key: k, status: st})
		}); err != nil {
			t.Fatal(err)
		}
		d.issued = append(d.issued, k)
	}
	keys := names("big", 5)
	for _, k := range keys[:3] {
		upsert(k)
	}
	if len(sv.batches) != 0 {
		t.Fatalf("3 ops of 8 KiB flushed %d batches before either limit", len(sv.batches))
	}
	upsert(keys[3])
	if len(sv.batches) != 1 {
		t.Fatalf("4 ops of 8 KiB (≥ 32 KiB, BatchOps 64) flushed %d batches, want 1", len(sv.batches))
	}
	wantKeys(t, "flushed at the byte limit", sv.batches[0].keys(), keys[:4])
	upsert(keys[4]) // starts the next batch; only Flush/Drain ships it
	if len(sv.batches) != 1 {
		t.Fatalf("the op after the flush went out alone")
	}
	d.drain()
	d.settled(wire.StatusOK)
	wantKeys(t, "remainder", sv.sentKeys(1), keys[4:])
}

// TestSessionIDsNeverReused: a session id indexes the server's durable session
// table, whose high-water mark only moves forward. A thread that dropped a
// session (FailBroken, or a retired server) and dials the same server again
// must not reuse the dropped id with its sequence numbers back at zero — a
// later recovery would take "seq ≤ LastSeq" to mean durable and acknowledge
// writes the server never applied.
func TestSessionIDsNeverReused(t *testing.T) {
	sc := newScript("s1")
	sc.meta.RegisterServer("s1", metadata.FullRange)
	sv := sc.servers["s1"]
	d := newDriver(t, sc, 1)
	used := map[uint64]bool{}
	for round := 0; round < 3; round++ {
		sv.onBatch = func(*fakeConn, *recvBatch) {}
		d.issue(wire.OpRMW, fmt.Sprintf("k%d", round))
		id := sv.batches[len(sv.batches)-1].SessionID
		if used[id] {
			t.Fatalf("round %d: session id %#x reused after its session was dropped", round, id)
		}
		used[id] = true
		sv.conns[len(sv.conns)-1].sendErr = errors.New("script: connection reset")
		d.issue(wire.OpRMW, "breaker")
		if d.th.BrokenSessions() != 1 || d.th.FailBroken() != 2 {
			t.Fatalf("round %d: session did not break and fail as scripted", round)
		}
	}
}
