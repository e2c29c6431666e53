package metadata

import (
	"errors"
	"testing"
)

// TestReplicaAttachLifecycle pins the attach/sync/detach contract: attach to
// an unknown primary is refused, re-attach resets Synced, a synced replica
// blocks a different address from attaching, and ClearReplica is idempotent
// and address-scoped.
func TestReplicaAttachLifecycle(t *testing.T) {
	s := NewStore()
	s.RegisterServer("p", FullRange)

	if err := s.SetReplica("ghost", "b1"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("attach to unknown primary: got %v", err)
	}
	if err := s.SetReplica("p", "b1"); err != nil {
		t.Fatal(err)
	}
	r, ok := snap(s).Replica("p")
	if !ok || r.Addr != "b1" || r.Synced {
		t.Fatalf("fresh replica = %+v %v", r, ok)
	}

	// Syncing the wrong address is refused; the right one sticks.
	if err := s.MarkReplicaSynced("p", "b2"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("sync wrong addr: got %v", err)
	}
	if err := s.MarkReplicaSynced("p", "b1"); err != nil {
		t.Fatal(err)
	}
	if r, _ := snap(s).Replica("p"); !r.Synced {
		t.Fatal("replica not marked synced")
	}

	// A synced backup blocks a different address; the same address may
	// re-attach but drops back to unsynced (fresh incarnation, fresh sync).
	if err := s.SetReplica("p", "b2"); !errors.Is(err, ErrReplicated) {
		t.Fatalf("attach over synced replica: got %v", err)
	}
	if err := s.SetReplica("p", "b1"); err != nil {
		t.Fatal(err)
	}
	if r, _ := snap(s).Replica("p"); r.Synced {
		t.Fatal("re-attach kept stale Synced flag")
	}

	// ClearReplica ignores a mismatched address, removes the right one, and
	// retrying the removal is a no-op.
	if err := s.ClearReplica("p", "b2"); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap(s).Replica("p"); !ok {
		t.Fatal("clear with wrong addr removed the replica")
	}
	if err := s.ClearReplica("p", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := snap(s).Replica("p"); ok {
		t.Fatal("replica survived clear")
	}
	if err := s.ClearReplica("p", "b1"); err != nil {
		t.Fatal(err)
	}
}

// TestPromoteReplica pins failover's linearization point: only a synced
// backup may promote, promotion bumps the view and repoints the address, and
// the deposed primary's checkpoint replay is refused with ErrDeposed.
func TestPromoteReplica(t *testing.T) {
	s := NewStore()
	s.RegisterServer("p", FullRange)
	s.SetServerAddr("p", "p-addr")
	stale, _ := snap(s).GetView("p") // what the primary would have checkpointed

	if _, err := s.PromoteReplica("p", "b1"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("promote with no replica: got %v", err)
	}
	if err := s.SetReplica("p", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PromoteReplica("p", "b1"); !errors.Is(err, ErrReplicaNotSynced) {
		t.Fatalf("promote unsynced replica: got %v", err)
	}
	if err := s.MarkReplicaSynced("p", "b1"); err != nil {
		t.Fatal(err)
	}
	v, err := s.PromoteReplica("p", "b1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number != stale.Number+1 {
		t.Fatalf("promoted view = %d, want %d", v.Number, stale.Number+1)
	}
	if addr, err := snap(s).ServerAddr("p"); err != nil || addr != "b1" {
		t.Fatalf("address after promotion = %q %v, want b1", addr, err)
	}
	if _, ok := snap(s).Replica("p"); ok {
		t.Fatal("replica entry survived promotion")
	}

	// The dead primary restarts and replays its pre-promotion checkpoint:
	// refused, the promoted backup owns the identity now.
	if _, err := s.RestoreServer("p", stale); !errors.Is(err, ErrDeposed) {
		t.Fatalf("deposed restore: got %v", err)
	}
	// The promoted server itself restores at (or past) the promotion
	// watermark and is welcome.
	if got, err := s.RestoreServer("p", v); err != nil || got.Number != v.Number {
		t.Fatalf("promoted restore = %v %v", got, err)
	}
}

// TestRestoreDropsUnsyncedReplica pins the restart-vs-attach race: a primary
// crashing mid-base-sync wins over its half-synced backup — the restore
// drops the replica entry (the backup must re-attach) — while a synced
// backup wins over the restore.
func TestRestoreDropsUnsyncedReplica(t *testing.T) {
	s := NewStore()
	s.RegisterServer("p", FullRange)
	v, _ := snap(s).GetView("p")

	if err := s.SetReplica("p", "b1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreServer("p", v); err != nil {
		t.Fatalf("restore over unsynced replica: %v", err)
	}
	if _, ok := snap(s).Replica("p"); ok {
		t.Fatal("unsynced replica survived primary restart")
	}

	s.SetReplica("p", "b1")
	s.MarkReplicaSynced("p", "b1")
	if _, err := s.RestoreServer("p", v); !errors.Is(err, ErrDeposed) {
		t.Fatalf("restore with synced replica attached: got %v", err)
	}
}

// TestMigrationRefusedUnderReplication: a server with a backup attached may
// not be party to a migration — migration records are not forwarded on the
// replication stream, so the backup would silently diverge.
func TestMigrationRefusedUnderReplication(t *testing.T) {
	s := NewStore()
	s.RegisterServer("src", FullRange)
	s.RegisterServer("dst")
	rng := HashRange{Start: 1 << 62, End: 1 << 63}

	s.SetReplica("src", "b1")
	if _, _, _, err := s.StartMigration("src", "dst", rng); !errors.Is(err, ErrReplicated) {
		t.Fatalf("migrate from replicated source: got %v", err)
	}
	s.ClearReplica("src", "b1")
	s.SetReplica("dst", "b2")
	if _, _, _, err := s.StartMigration("src", "dst", rng); !errors.Is(err, ErrReplicated) {
		t.Fatalf("migrate into replicated target: got %v", err)
	}
	s.ClearReplica("dst", "b2")
	if _, _, _, err := s.StartMigration("src", "dst", rng); err != nil {
		t.Fatalf("migrate after detach: %v", err)
	}
}

// TestRetireServer pins scale-in's terminal step: retiring is refused while
// the server owns ranges, has a replica, or is party to an in-flight
// migration; an empty server retires; retiring twice (or an unknown id) is a
// no-op so interrupted drains converge on retry.
func TestRetireServer(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", FullRange)
	s.RegisterServer("b")
	s.SetServerAddr("b", "b-addr")

	if err := s.RetireServer("a"); !errors.Is(err, ErrServerNotEmpty) {
		t.Fatalf("retire owner of ranges: got %v", err)
	}
	s.SetReplica("b", "bk")
	if err := s.RetireServer("b"); !errors.Is(err, ErrReplicated) {
		t.Fatalf("retire replicated server: got %v", err)
	}
	s.ClearReplica("b", "bk")

	// Party to an in-flight migration: refused until both sides finish.
	mig, _, _, err := s.StartMigration("a", "b", HashRange{Start: 0, End: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RetireServer("b"); err == nil {
		t.Fatal("retire of migration target succeeded mid-flight")
	}
	s.MarkMigrationDone(mig.ID, "a")
	s.MarkMigrationDone(mig.ID, "b")
	s.CollectMigration(mig.ID)

	// Move the range back so b is empty, then retire it.
	back, _, _, err := s.StartMigration("b", "a", HashRange{Start: 0, End: 1 << 62})
	if err != nil {
		t.Fatal(err)
	}
	s.MarkMigrationDone(back.ID, "b")
	s.MarkMigrationDone(back.ID, "a")
	s.CollectMigration(back.ID)

	if err := s.RetireServer("b"); err != nil {
		t.Fatalf("retire empty server: %v", err)
	}
	if _, err := snap(s).GetView("b"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("retired server still has a view: %v", err)
	}
	if _, err := snap(s).ServerAddr("b"); err == nil {
		t.Fatal("retired server still has an address")
	}
	if err := s.RetireServer("b"); err != nil {
		t.Fatalf("second retire not idempotent: %v", err)
	}
	// The full range must still be owned (by a).
	if owner, ok := snap(s).Owner(1 << 61); !ok || owner != "a" {
		t.Fatalf("owner after retire = %q %v, want a", owner, ok)
	}
}
