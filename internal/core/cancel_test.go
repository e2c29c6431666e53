package core

import (
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// TestMigrationCancellationRollsBack exercises §3.3.1's cancellation path
// at the metadata level: a migration whose participants never complete can
// be cancelled by any party; ownership returns to the source with fresh
// view numbers, and clients transparently re-route.
func TestMigrationCancellationRollsBack(t *testing.T) {
	cl := newCluster()
	cl.newServer(t, "src", 2, metadata.FullRange)
	cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)
	loadKeys(t, ct, 100)

	// Register a migration directly at the metadata store (simulating a
	// source that crashed right after the Sampling step's atomic remap,
	// before any records moved).
	rng := metadata.HashRange{Start: 0, End: 1 << 62}
	mig, _, _, err := cl.meta.StartMigration("src", "dst", rng)
	if err != nil {
		t.Fatal(err)
	}

	// The dependency is pending for both sides.
	if snap, _ := cl.meta.Snapshot(); len(snap.PendingMigrationsFor("src")) != 1 {
		t.Fatal("dependency not registered")
	}

	// Cancel: ownership must return to the source and both views bump.
	if err := cl.meta.CancelMigration(mig.ID); err != nil {
		t.Fatal(err)
	}
	snap, _ := cl.meta.Snapshot()
	sv, _ := snap.GetView("src")
	if !sv.Owns(1 << 61) {
		t.Fatal("source did not regain the range")
	}
	if sv.Number < 3 {
		t.Fatalf("source view %d, want >= 3 (migrate + cancel)", sv.Number)
	}

	// Clients keep operating across the double view change: their batches
	// get rejected, they refresh, and the ops land at the source again.
	ok := 0
	for i := uint64(0); i < 100; i++ {
		ct.RMW(ycsb.KeyBytes(i), d8(1), func(st wire.ResultStatus, _ []byte) {
			if st == wire.StatusOK {
				ok++
			}
		})
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatalf("drain after cancellation timed out; outstanding=%d", ct.Outstanding())
	}
	if ok != 100 {
		t.Fatalf("%d/100 ops after cancellation", ok)
	}
	// Cancelled dependencies are collectable.
	if err := cl.meta.CollectMigration(mig.ID); err != nil {
		t.Fatal(err)
	}
}
