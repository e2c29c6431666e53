package metadata

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// TestCancelMigrationEdgeCases pins the cancellation contract (§3.3.1):
// unknown migrations are reported, cancellation is idempotent, a migration
// with both completion flags set can no longer be cancelled, and a
// partially-done migration still can.
func TestCancelMigrationEdgeCases(t *testing.T) {
	s := NewStore()
	s.RegisterServer("src", FullRange)
	s.RegisterServer("dst")

	if err := s.CancelMigration(99); !errors.Is(err, ErrUnknownMigration) {
		t.Fatalf("cancel of unknown migration: got %v", err)
	}

	rng := HashRange{Start: 1 << 62, End: 1 << 63}
	mig, _, _, err := s.StartMigration("src", "dst", rng)
	if err != nil {
		t.Fatal(err)
	}

	// One side done: still cancellable, and idempotently so.
	if err := s.MarkMigrationDone(mig.ID, "src"); err != nil {
		t.Fatal(err)
	}
	if err := s.CancelMigration(mig.ID); err != nil {
		t.Fatalf("cancel with one side done: %v", err)
	}
	if err := s.CancelMigration(mig.ID); err != nil {
		t.Fatalf("second cancel not idempotent: %v", err)
	}
	m, err := snap(s).GetMigration(mig.ID)
	if err != nil || !m.Cancelled {
		t.Fatalf("migration not marked cancelled: %+v %v", m, err)
	}
	// Ownership is back with the source, both views bumped past the
	// migration's increments.
	owner, ok := snap(s).Owner(rng.Start)
	if !ok || owner != "src" {
		t.Fatalf("owner after cancel: %s %v", owner, ok)
	}
	if v, _ := snap(s).GetView(owner); v.Number != 3 { // register=1, migration=2, cancel=3
		t.Fatalf("source view after cancel = %d, want 3", v.Number)
	}

	// A collected cancelled migration disappears.
	if err := s.CollectMigration(mig.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := snap(s).GetMigration(mig.ID); !errors.Is(err, ErrUnknownMigration) {
		t.Fatalf("collected migration still visible: %v", err)
	}

	// Fully-complete migrations refuse cancellation.
	mig2, _, _, err := s.StartMigration("src", "dst", HashRange{Start: 1, End: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.MarkMigrationDone(mig2.ID, "src")
	s.MarkMigrationDone(mig2.ID, "dst")
	if err := s.CancelMigration(mig2.ID); !errors.Is(err, ErrMigrationDone) {
		t.Fatalf("cancel of complete migration: got %v", err)
	}
}

// TestCancelAndRestoreUnderConcurrentReaders drives StartMigration /
// CancelMigration / MarkMigrationDone / CollectMigration / RestoreServer
// mutations while reader goroutines take Snapshots. Run under -race this
// pins the store's locking; every snapshot must be consistent ACROSS its
// fields — the statements separate reads could never make: each probed hash
// has exactly one owner and Owner names it, every in-flight migration's
// range belongs to its target and not its source, revisions never go back,
// and a snapshot already handed out is never written to again.
func TestCancelAndRestoreUnderConcurrentReaders(t *testing.T) {
	s := NewStore()
	s.RegisterServer("src", FullRange)
	s.RegisterServer("dst")
	s.SetServerAddr("src", "src-addr")
	s.SetServerAddr("dst", "dst-addr")

	var stop atomic.Bool
	var wg sync.WaitGroup
	probe := []uint64{0, 1 << 61, 1 << 62, 1<<62 + 1<<61, ^uint64(0) - 1}

	// check reports the first cross-field inconsistency inside sn.
	check := func(sn *Snapshot) string {
		if len(sn.Servers) != 2 {
			return fmt.Sprintf("%d servers", len(sn.Servers))
		}
		for _, h := range probe {
			owners := 0
			for _, e := range sn.Servers {
				if e.View.Owns(h) {
					owners++
				}
			}
			id, ok := sn.Owner(h)
			if v, _ := sn.GetView(id); owners != 1 || !ok || !v.Owns(h) {
				return fmt.Sprintf("hash %#x: %d owners, Owner = %q %v", h, owners, id, ok)
			}
		}
		for _, m := range sn.Migrations {
			sv, _ := sn.GetView(m.Source)
			tv, _ := sn.GetView(m.Target)
			if m.InFlight() && (sv.Owns(m.Range.Start) || !tv.Owns(m.Range.Start)) {
				return fmt.Sprintf("in-flight migration %d: source owns %v, target owns %v",
					m.ID, sv.Owns(m.Range.Start), tv.Owns(m.Range.Start))
			}
		}
		return ""
	}
	// freeze deep-copies what a snapshot exposes, to compare against later.
	freeze := func(sn *Snapshot) *Snapshot {
		c := &Snapshot{Revision: sn.Revision,
			Migrations: append([]MigrationState(nil), sn.Migrations...),
			Replicas:   append([]ReplicaState(nil), sn.Replicas...),
			Promoted:   append([]string(nil), sn.Promoted...)}
		for _, e := range sn.Servers {
			e.View = e.View.Clone()
			c.Servers = append(c.Servers, e)
		}
		return c
	}

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held, heldCopy *Snapshot
			for !stop.Load() {
				sn := snap(s)
				if msg := check(sn); msg != "" {
					t.Errorf("revision %d: %s", sn.Revision, msg)
					return
				}
				if held != nil {
					if sn.Revision < held.Revision {
						t.Errorf("revision went back: %d after %d", sn.Revision, held.Revision)
						return
					}
					if sn.Revision == held.Revision && sn != held {
						t.Errorf("revision %d rebuilt without a mutation", sn.Revision)
						return
					}
					if !reflect.DeepEqual(freeze(held), heldCopy) {
						t.Errorf("snapshot of revision %d changed after it was handed out", held.Revision)
						return
					}
				}
				held, heldCopy = sn, freeze(sn)
			}
		}()
	}

	// Restorer: replays a stale view for dst; the store must keep the
	// higher-numbered current view (never resurrecting old ownership under
	// the readers).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			s.RestoreServer("dst", View{Number: 1})
		}
	}()

	rng := HashRange{Start: 1 << 62, End: 1 << 63}
	for i := 0; i < 300; i++ {
		mig, _, _, err := s.StartMigration("src", "dst", rng)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.CancelMigration(mig.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			s.MarkMigrationDone(mig.ID, "src")
			s.MarkMigrationDone(mig.ID, "dst")
			// Undo by migrating back so the next round starts clean.
			back, _, _, err := s.StartMigration("dst", "src", rng)
			if err != nil {
				t.Fatal(err)
			}
			s.MarkMigrationDone(back.ID, "dst")
			s.MarkMigrationDone(back.ID, "src")
			s.CollectMigration(back.ID)
		}
		s.CollectMigration(mig.ID)
	}
	stop.Store(true)
	wg.Wait()
}

// TestRestoreServerKeepsNewerView pins the restore-vs-migration race: a
// recovered server replaying its checkpointed (older) view must not clobber
// ownership changes that happened while it was down.
func TestRestoreServerKeepsNewerView(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", FullRange)
	s.RegisterServer("b")
	rng := HashRange{Start: 1 << 63, End: ^uint64(0)}
	checkpointed, _ := snap(s).GetView("a") // view a would have durably saved
	if _, _, _, err := s.StartMigration("a", "b", rng); err != nil {
		t.Fatal(err)
	}
	// "a" restarts and replays its stale checkpoint.
	got, err := s.RestoreServer("a", checkpointed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Number != 2 {
		t.Fatalf("restore returned view %d, want the current 2", got.Number)
	}
	if owner, ok := snap(s).Owner(rng.Start); !ok || owner != "b" {
		t.Fatalf("migrated range reverted to %q (%v), want b", owner, ok)
	}
}

// TestSnapshotOwnerMatchesLinearScan: Owner's sorted table must answer like
// the scan it replaced — over disjoint views the same server, and over
// overlapping ones (RegisterServer and RestoreServer do not check other
// servers' ranges) some server that does own the hash: overlap must never
// turn "some owner" into "no owner".
func TestSnapshotOwnerMatchesLinearScan(t *testing.T) {
	f := func(bounds [][2]uint16, overlap bool, probes []uint16) bool {
		var servers []ServerEntry
		var next uint64
		hashes := []uint64{0, ^uint64(0)}
		for i, b := range bounds {
			lo, hi := uint64(b[0]), uint64(b[0])+uint64(b[1])
			if !overlap { // lay the ranges end to end, with gaps
				lo, hi = next+uint64(b[0]%7), next+uint64(b[0]%7)+uint64(b[1])
				next = hi
			}
			id := fmt.Sprintf("s%d", i%5)
			if i < 5 {
				servers = append(servers, ServerEntry{ID: id, View: View{Number: 1}})
			}
			e := &servers[i%5]
			e.View.Ranges = append(e.View.Ranges, HashRange{lo, hi})
			hashes = append(hashes, lo, hi-1, hi) // the boundaries, besides the random probes
		}
		for _, p := range probes {
			hashes = append(hashes, uint64(p))
		}
		sn := NewSnapshot(1, servers, nil, nil, nil)
		for _, h := range hashes {
			want := ""
			for _, e := range servers {
				if e.View.Owns(h) {
					want = e.ID
					break
				}
			}
			got, ok := sn.Owner(h)
			if ok != (want != "") {
				return false
			}
			if v, _ := sn.GetView(got); ok && (!v.Owns(h) || !overlap && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
