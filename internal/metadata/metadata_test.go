package metadata

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// snap is the store's current snapshot (the in-process store never errs).
func snap(s *Store) *Snapshot {
	sn, _ := s.Snapshot()
	return sn
}

func TestRegisterAndGetView(t *testing.T) {
	s := NewStore()
	v, err := s.RegisterServer("a", FullRange)
	if err != nil || v.Number != 1 || len(v.Ranges) != 1 {
		t.Fatalf("view %+v, %v", v, err)
	}
	got, err := snap(s).GetView("a")
	if err != nil || got.Number != 1 {
		t.Fatalf("get: %v %+v", err, got)
	}
	if _, err := snap(s).GetView("missing"); !errors.Is(err, ErrUnknownServer) {
		t.Fatalf("want ErrUnknownServer, got %v", err)
	}
}

func TestOwnerOf(t *testing.T) {
	s := NewStore()
	mid := uint64(1) << 63
	s.RegisterServer("a", HashRange{0, mid})
	s.RegisterServer("b", HashRange{mid, ^uint64(0)})
	id, ok := snap(s).Owner(42)
	if v, _ := snap(s).GetView(id); !ok || id != "a" || !v.Owns(42) {
		t.Fatalf("owner of 42: %q %v", id, ok)
	}
	id, ok = snap(s).Owner(mid + 5)
	if !ok || id != "b" {
		t.Fatalf("owner of high: %q %v", id, ok)
	}
}

func TestStartMigrationAtomicity(t *testing.T) {
	s := NewStore()
	s.RegisterServer("src", FullRange)
	s.RegisterServer("dst")
	rng := HashRange{100, 200}

	m, sv, tv, err := s.StartMigration("src", "dst", rng)
	if err != nil {
		t.Fatal(err)
	}
	if m.Source != "src" || m.Target != "dst" || m.Range != rng {
		t.Fatalf("migration %+v", m)
	}
	// Views incremented on both sides.
	if sv.Number != 2 || tv.Number != 2 {
		t.Fatalf("views %d %d, want 2 2", sv.Number, tv.Number)
	}
	// Ownership moved exactly once, no overlap, no gap.
	if sv.Owns(150) {
		t.Fatal("source still owns migrated hash")
	}
	if !tv.Owns(150) {
		t.Fatal("target does not own migrated hash")
	}
	if !sv.Owns(99) || !sv.Owns(200) {
		t.Fatal("source lost non-migrated hashes")
	}
	// Re-migrating a range whose migration is still in flight fails with the
	// overlap error (the guard fires before ownership is even consulted).
	if _, _, _, err := s.StartMigration("src", "dst", rng); !errors.Is(err, ErrMigrationOverlap) {
		t.Fatalf("double migration: %v", err)
	}
	// Once the migration settles, the same start fails on ownership instead.
	s.MarkMigrationDone(m.ID, "src")
	s.MarkMigrationDone(m.ID, "dst")
	if _, _, _, err := s.StartMigration("src", "dst", rng); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("migration of disowned range: %v", err)
	}
	// Unknown servers fail.
	if _, _, _, err := s.StartMigration("nope", "dst", HashRange{0, 1}); !errors.Is(err, ErrUnknownServer) {
		t.Fatal("unknown source accepted")
	}
}

func TestMigrationCompletionFlags(t *testing.T) {
	s := NewStore()
	s.RegisterServer("src", FullRange)
	s.RegisterServer("dst")
	m, _, _, _ := s.StartMigration("src", "dst", HashRange{0, 10})

	if err := s.MarkMigrationDone(m.ID, "src"); err != nil {
		t.Fatal(err)
	}
	got, _ := snap(s).GetMigration(m.ID)
	if !got.SourceDone || got.TargetDone || got.Complete() {
		t.Fatalf("state %+v", got)
	}
	// Still pending for the target.
	if p := snap(s).PendingMigrationsFor("dst"); len(p) != 1 {
		t.Fatalf("pending for dst: %d", len(p))
	}
	if err := s.MarkMigrationDone(m.ID, "dst"); err != nil {
		t.Fatal(err)
	}
	got, _ = snap(s).GetMigration(m.ID)
	if !got.Complete() {
		t.Fatal("not complete after both flags")
	}
	if p := snap(s).PendingMigrationsFor("src"); len(p) != 0 {
		t.Fatal("complete migration still pending")
	}
	// Dependency garbage collection.
	if err := s.CollectMigration(m.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := snap(s).GetMigration(m.ID); !errors.Is(err, ErrUnknownMigration) {
		t.Fatal("collected migration still present")
	}
}

func TestCancelMigrationRollsBackOwnership(t *testing.T) {
	s := NewStore()
	s.RegisterServer("src", FullRange)
	s.RegisterServer("dst")
	rng := HashRange{1000, 2000}
	m, _, _, _ := s.StartMigration("src", "dst", rng)

	if err := s.CancelMigration(m.ID); err != nil {
		t.Fatal(err)
	}
	sv, _ := snap(s).GetView("src")
	tv, _ := snap(s).GetView("dst")
	if !sv.Owns(1500) {
		t.Fatal("cancellation did not return the range to the source")
	}
	if tv.Owns(1500) {
		t.Fatal("target kept the range after cancellation")
	}
	// Views incremented again (clients must revalidate).
	if sv.Number != 3 || tv.Number != 3 {
		t.Fatalf("views %d %d, want 3 3", sv.Number, tv.Number)
	}
	// Idempotent.
	if err := s.CancelMigration(m.ID); err != nil {
		t.Fatal(err)
	}
	// Cancelling a completed migration fails.
	m2, _, _, _ := s.StartMigration("src", "dst", rng)
	s.MarkMigrationDone(m2.ID, "src")
	s.MarkMigrationDone(m2.ID, "dst")
	if err := s.CancelMigration(m2.ID); !errors.Is(err, ErrMigrationDone) {
		t.Fatalf("cancel after completion: %v", err)
	}
}

func TestCarveMiddleAndEdges(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", HashRange{0, 100})
	s.RegisterServer("b")
	// Carve the middle: source keeps both sides.
	if _, _, _, err := s.StartMigration("a", "b", HashRange{40, 60}); err != nil {
		t.Fatal(err)
	}
	av, _ := snap(s).GetView("a")
	if !av.Owns(39) || !av.Owns(60) || av.Owns(50) {
		t.Fatalf("bad carve: %+v", av.Ranges)
	}
	// Carve a prefix of the remaining low range.
	if _, _, _, err := s.StartMigration("a", "b", HashRange{0, 10}); err != nil {
		t.Fatal(err)
	}
	av, _ = snap(s).GetView("a")
	if av.Owns(5) || !av.Owns(15) {
		t.Fatal("prefix carve wrong")
	}
	bv, _ := snap(s).GetView("b")
	if !bv.Owns(5) || !bv.Owns(50) {
		t.Fatal("target missing carved ranges")
	}
}

func TestMergeRangesCoalesces(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", HashRange{0, 100})
	s.RegisterServer("b")
	s.StartMigration("a", "b", HashRange{0, 10})
	s.StartMigration("a", "b", HashRange{10, 20})
	bv, _ := snap(s).GetView("b")
	if len(bv.Ranges) != 1 || bv.Ranges[0] != (HashRange{0, 20}) {
		t.Fatalf("adjacent ranges not merged: %+v", bv.Ranges)
	}
}

func TestViewNumbersStrictlyIncrease(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", FullRange)
	s.RegisterServer("b")
	last := uint64(1)
	for i := 0; i < 10; i++ {
		_, sv, _, err := s.StartMigration("a", "b", HashRange{uint64(i * 10), uint64(i*10 + 5)})
		if err != nil {
			t.Fatal(err)
		}
		if sv.Number <= last {
			t.Fatalf("view number %d did not increase past %d", sv.Number, last)
		}
		last = sv.Number
	}
}

func TestConcurrentMetadataOps(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", FullRange)
	s.RegisterServer("b")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rng := HashRange{uint64(w*1000 + i*10), uint64(w*1000 + i*10 + 5)}
				s.StartMigration("a", "b", rng)
				snap(s).Owner(uint64(w*1000 + i*10))
				snap(s).Ownership()
			}
		}(w)
	}
	wg.Wait()
	// Invariant: no hash owned twice.
	av, _ := snap(s).GetView("a")
	bv, _ := snap(s).GetView("b")
	for _, r := range bv.Ranges {
		if av.Owns(r.Start) {
			t.Fatalf("hash %#x owned by both servers", r.Start)
		}
	}
}

func TestConcurrentDisjointMigrationsAllowed(t *testing.T) {
	s := NewStore()
	s.RegisterServer("a", HashRange{0, 1000})
	s.RegisterServer("b", HashRange{1000, 2000})
	s.RegisterServer("c")
	s.RegisterServer("d")

	// Two disjoint-range migrations from different sources may be in flight
	// at once.
	m1, _, _, err := s.StartMigration("a", "c", HashRange{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, _, err := s.StartMigration("b", "d", HashRange{1000, 1500})
	if err != nil {
		t.Fatalf("disjoint concurrent migration rejected: %v", err)
	}
	if m2.Epoch <= m1.Epoch {
		t.Fatalf("epochs not strictly increasing: %d then %d", m1.Epoch, m2.Epoch)
	}
	inflight := 0
	for _, m := range snap(s).Migrations {
		if m.InFlight() {
			inflight++
		}
	}
	if inflight != 2 {
		t.Fatalf("in-flight migrations = %d, want 2", inflight)
	}

	// Any overlap with either in-flight range is rejected — including a
	// range the *target* now owns (re-moving a mid-flight range would race
	// the record transfer).
	for _, rng := range []HashRange{{0, 500}, {250, 300}, {400, 1200}, {1499, 1500}} {
		if _, _, _, err := s.StartMigration("c", "d", rng); !errors.Is(err, ErrMigrationOverlap) {
			t.Fatalf("overlapping start %v: got %v, want ErrMigrationOverlap", rng, err)
		}
	}

	// A cancelled migration no longer blocks its range.
	if err := s.CancelMigration(m1.ID); err != nil {
		t.Fatal(err)
	}
	m3, _, _, err := s.StartMigration("a", "c", HashRange{0, 500})
	if err != nil {
		t.Fatalf("start over cancelled migration's range: %v", err)
	}
	if m3.Epoch <= m2.Epoch {
		t.Fatalf("epoch did not advance past %d: %d", m2.Epoch, m3.Epoch)
	}
}

func TestHashRangeQuick(t *testing.T) {
	f := func(a, b, h uint64) bool {
		if a > b {
			a, b = b, a
		}
		r := HashRange{a, b}
		want := h >= a && h < b
		return r.Contains(h) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCarveQuick(t *testing.T) {
	// carve(full, r) then re-merge must reproduce full coverage.
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		if a > b {
			a, b = b, a
		}
		rng := HashRange{a, b}
		rest, ok := carve([]HashRange{FullRange}, rng)
		if !ok {
			return b == ^uint64(0) && false || b <= ^uint64(0) && rng.End > FullRange.End
		}
		merged := mergeRanges(append(rest, rng))
		return len(merged) == 1 && merged[0] == FullRange
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
