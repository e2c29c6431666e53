package faster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/hlog"
)

// spill appends n fresh records through sess, enough at n=3000 to push
// everything written before it below the head address.
func spill(sess *Session, tag string, n int) {
	for i := 0; i < n; i++ {
		sess.Upsert([]byte(fmt.Sprintf("%s-%06d", tag, i)), val(i), nil)
	}
}

// isCold reports whether reading k needs the device.
func isCold(sess *Session, k []byte) bool {
	if sess.Read(k, nil) == StatusPending {
		sess.CompletePending(true)
		return true
	}
	return false
}

// TestPendingRMWRestartsOnEvictedNewerVersion: while session a's RMW waits
// for its storage read, session b increments the same key and that newer
// version is itself evicted. a must notice the chain changed — its walk ends
// below the head address either way — and recompute from the newer version
// instead of overwriting it with base+delta.
func TestPendingRMWRestartsOnEvictedNewerVersion(t *testing.T) {
	s, _ := testStore(t)
	a, b := s.NewSession(), s.NewSession()
	defer a.Close()
	defer b.Close()
	k := key(1)

	a.Guard().Suspend() // an idle protected guard would hold up eviction
	b.RMW(k, delta(5), nil)
	spill(b, "first", 3000)

	a.Refresh()
	if st := a.RMW(k, delta(1), nil); st != StatusPending {
		t.Fatalf("RMW of a spilled key: %v, want pending", st)
	}
	a.Guard().Suspend()
	if st := b.RMW(k, delta(10), nil); st == StatusPending {
		b.CompletePending(true)
	}
	spill(b, "second", 3000)
	if !isCold(b, k) {
		t.Fatal("the newer version was not evicted; the case is not exercised")
	}

	a.Refresh()
	a.CompletePending(true)
	if got := counterVal(t, b, k); got != 16 {
		t.Fatalf("counter = %d, want 16 (5 + 10 + 1)", got)
	}
}

// TestPendingConditionalInsertRechecksGrownChain is the migration twin: a
// conditional insert waits on storage, a client write of the same key lands
// and is evicted meanwhile, and the (older) migrated record must be dropped,
// not installed on top of it.
func TestPendingConditionalInsertRechecksGrownChain(t *testing.T) {
	s, _ := testStore(t)
	a, b := s.NewSession(), s.NewSession()
	defer a.Close()
	defer b.Close()
	keys := chainKeys(t, 1<<10, 2) // one hash chain: the insert of keys[1] must walk keys[0]'s record

	a.Guard().Suspend()
	b.Upsert(keys[0], val(0), nil)
	spill(b, "first", 3000)

	a.Refresh()
	if st := a.ConditionalInsert(keys[1], []byte("migrated-older"), false, nil); st != StatusPending {
		t.Fatalf("conditional insert under a spilled chain: %v, want pending", st)
	}
	a.Guard().Suspend()
	b.Upsert(keys[1], []byte("client-newer"), nil)
	spill(b, "second", 3000)
	if !isCold(b, keys[1]) {
		t.Fatal("the client write was not evicted; the case is not exercised")
	}

	a.Refresh()
	a.CompletePending(true)
	if got, st := mustRead(t, b, keys[1]); st != StatusOK || !bytes.Equal(got, []byte("client-newer")) {
		t.Fatalf("read %v %q, want the client's newer value", st, got)
	}
}

// TestSpliceIndirectionRefusesFlushedRecord: hooking an indirection record
// under a record whose page already went to the flusher would change memory
// only — the device image ends the chain at that record, and once the page
// is evicted a lookup that misses locally reads NotFound instead of
// deferring to the remote suffix. The splice must report StatusError (the
// caller then fetches eagerly); under a mutable-region record it succeeds.
func TestSpliceIndirectionRefusesFlushedRecord(t *testing.T) {
	s, _ := testStore(t)
	sess := s.NewSession()
	defer sess.Close()
	payload := hlog.EncodeIndirection(hlog.IndirectionPayload{
		NextAddress: 4096, LogID: "elsewhere", RangeEnd: ^uint64(0)})

	sess.Upsert(key(1), val(1), nil)
	if st := sess.SpliceIndirection(HashOf(key(1)), payload); st != StatusOK {
		t.Fatalf("splice under a mutable-region record: %v", st)
	}

	sess.Upsert(key(2), val(2), nil)
	spill(sess, "first", 900) // ~40 KiB: key(2) is read-only but still in memory
	sess.Refresh()
	if s.Log().HeadAddress() != 0 || s.Log().ReadOnlyAddress() == 0 {
		t.Fatalf("head %d, read-only %d: want key(2) in memory below the read-only address",
			s.Log().HeadAddress(), s.Log().ReadOnlyAddress())
	}
	if st := sess.SpliceIndirection(HashOf(key(2)), payload); st != StatusError {
		t.Fatalf("splice under a read-only record: %v, want StatusError", st)
	}
}
