package core

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// rawSession drives one server over a bare connection and keeps every
// result it is sent, so a test can assert "exactly one result for this Seq"
// — the client library would silently drop a duplicate.
type rawSession struct {
	t       *testing.T
	s       *Server
	conn    transport.Conn
	seq     uint32
	results map[uint32][]wire.Result
}

func newRawSession(t *testing.T, cl *cluster, s *Server) *rawSession {
	t.Helper()
	conn, err := cl.tr.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawSession{t: t, s: s, conn: conn, results: make(map[uint32][]wire.Result)}
}

// send ships ops as one batch, assigning sequence numbers; it returns the
// last one.
func (rs *rawSession) send(ops ...wire.Op) uint32 {
	rs.t.Helper()
	for i := range ops {
		rs.seq++
		ops[i].Seq = rs.seq
	}
	req := wire.RequestBatch{View: rs.s.CurrentView().Number, SessionID: 1, Ops: ops}
	if err := rs.conn.Send(wire.AppendRequestBatch(nil, &req)); err != nil {
		rs.t.Fatal(err)
	}
	return rs.seq
}

// poll receives response frames until cond holds (or the deadline passes).
func (rs *rawSession) poll(what string, cond func() bool) {
	rs.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			rs.t.Fatalf("timed out waiting for %s", what)
		}
		frame, ok, err := rs.conn.TryRecv()
		if err != nil {
			rs.t.Fatal(err)
		}
		if !ok {
			time.Sleep(200 * time.Microsecond)
			continue
		}
		var resp wire.ResponseBatch
		if err := wire.DecodeResponseBatch(frame, &resp); err != nil {
			rs.t.Fatal(err)
		}
		if resp.Rejected || resp.Shed {
			rs.t.Fatalf("batch refused (rejected=%v shed=%v)", resp.Rejected, resp.Shed)
		}
		for _, r := range resp.Results {
			r.Value = append([]byte(nil), r.Value...)
			rs.results[r.Seq] = append(rs.results[r.Seq], r)
		}
	}
}

// await polls until seq has a result.
func (rs *rawSession) await(seq uint32) {
	rs.t.Helper()
	rs.poll("a result", func() bool { return len(rs.results[seq]) > 0 })
}

// pendOnDiskProbe builds the larger-than-memory-during-migration case on a
// one-thread server: key's only record is pushed below HeadAddress, an
// inbound migration covering exactly key's hash is registered white-box with
// ownership not yet transferred, op is sent and parks, ownership "arrives",
// and the op's presence probe has to read the device. It returns the parked
// op's results and the counter read back afterwards.
func pendOnDiskProbe(t *testing.T, kind wire.OpKind) ([]wire.Result, uint64) {
	cl := newCluster()
	s := cl.newServer(t, "s1", 1, metadata.FullRange)
	rs := newRawSession(t, cl, s)
	key := []byte("parked-counter")

	rs.await(rs.send(wire.Op{Kind: wire.OpRMW, Key: key, Value: d8(5)}))
	filler := make([]byte, 64)
	for i := 0; i < 4000; i += 100 {
		ops := make([]wire.Op, 100)
		for j := range ops {
			ops[j] = wire.Op{Kind: wire.OpUpsert, Key: d8(uint64(i + j)), Value: filler}
		}
		rs.await(rs.send(ops...))
	}
	if s.Store().Log().HeadAddress() == 0 {
		t.Fatal("log never spilled; the probe would not reach the device")
	}

	h := faster.HashOf(key)
	tm := &targetMigration{s: s, migID: 99, rng: metadata.HashRange{Start: h, End: h + 1}}
	s.migMu.Lock()
	s.targets = map[uint64]*targetMigration{tm.migID: tm}
	s.migMu.Unlock()

	reads := s.Store().Stats().PendingIssued.Load()
	parked := rs.send(wire.Op{Kind: kind, Key: key, Value: d8(1)})
	rs.poll("the op to park", func() bool { return s.Stats().PendingOps.Load() == 1 })
	if len(rs.results[parked]) != 0 {
		t.Fatal("op answered before ownership transfer")
	}
	tm.serving.Store(true)
	rs.await(parked)
	if s.Store().Stats().PendingIssued.Load() == reads {
		t.Fatal("presence probe never went to the device")
	}
	// Leave room for a second answer to show up before counting.
	settle := time.Now().Add(100 * time.Millisecond)
	rs.poll("the settle window", func() bool { return time.Now().After(settle) })
	if n := s.Stats().PendingOps.Load(); n != 0 {
		t.Fatalf("PendingOps = %d after the op completed", n)
	}

	tm.completed.Store(true)
	s.retireTarget(tm.migID)
	check := rs.send(wire.Op{Kind: wire.OpRead, Key: key})
	rs.await(check)
	r := rs.results[check][0]
	if r.Status != wire.StatusOK || len(r.Value) != 8 {
		t.Fatalf("read back: status %v, %d bytes", r.Status, len(r.Value))
	}
	return rs.results[parked], binary.LittleEndian.Uint64(r.Value)
}

// TestPendedRMWProbeOnDiskAppliesOnce: an RMW pended at the target whose
// presence probe reads the device is applied exactly once and answered
// exactly once.
func TestPendedRMWProbeOnDiskAppliesOnce(t *testing.T) {
	results, counter := pendOnDiskProbe(t, wire.OpRMW)
	if counter != 6 {
		t.Errorf("counter = %d, want 6 (5 + one pended +1)", counter)
	}
	if len(results) != 1 || results[0].Status != wire.StatusOK {
		t.Errorf("pended RMW got %d results %+v, want exactly one OK", len(results), results)
	}
}

// TestPendedReadProbeOnDiskAnswersOnce is the Read twin: one result for the
// pended Seq, carrying the on-device value.
func TestPendedReadProbeOnDiskAnswersOnce(t *testing.T) {
	results, counter := pendOnDiskProbe(t, wire.OpRead)
	if counter != 5 {
		t.Errorf("counter = %d, want 5 (reads change nothing)", counter)
	}
	if len(results) != 1 || results[0].Status != wire.StatusOK ||
		len(results[0].Value) != 8 || binary.LittleEndian.Uint64(results[0].Value) != 5 {
		t.Errorf("pended Read got %d results %+v, want exactly one OK carrying 5", len(results), results)
	}
}
