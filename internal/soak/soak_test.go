package soak

import (
	"os"
	"testing"
	"time"
)

// TestSoakLinearizability is the acceptance soak: 8 in-process servers under
// skewed shifting load with the full fault schedule — kill/restart with
// recovery, migration cancellation, forced concurrent disjoint-range
// migrations, live overlapping-start attempts — and zero linearizability
// violations. Run it with -race: the harness's checker goroutines and the
// servers' dispatchers sharing one process is the point.
func TestSoakLinearizability(t *testing.T) {
	if testing.Short() {
		t.Skip("soak takes seconds; skipped in -short")
	}
	res, err := Run(Config{
		Load:     Load{Clients: 4, Keys: 2048, Seed: 1, Logf: t.Logf},
		Servers:  8,
		Duration: 4 * time.Second,
	})
	if err != nil {
		t.Fatalf("soak run failed: %v", err)
	}
	assertSoak(t, res)
	if res.Kills < 1 {
		t.Errorf("no kill/restart cycle executed (want >= 1)")
	}
	if res.Cancels < 1 {
		t.Errorf("no migration cancellation executed (want >= 1)")
	}
	t.Logf("soak: %d ops (%.3f Mops/s aggregate), %d migrations seen, max %d concurrent, %d kills, %d cancels, %d overlap rejections",
		res.Ops, res.AggregateMops, res.MigrationsSeen, res.MaxConcurrentMigrations,
		res.Kills, res.Cancels, res.OverlapRejections)
}

// TestSoakReadCache runs one full fault schedule with the second-chance
// read cache enabled and a memory budget small enough that part of the
// keyspace lives on storage: cache promotions must coexist with fences,
// concurrent migrations, kills and recovery without a single violation.
func TestSoakReadCache(t *testing.T) {
	if testing.Short() {
		t.Skip("soak takes seconds; skipped in -short")
	}
	res, err := Run(Config{
		Load:      Load{Clients: 4, Keys: 4096, Seed: 7, Logf: t.Logf},
		Servers:   4,
		Duration:  4 * time.Second,
		ReadCache: true,
	})
	if err != nil {
		t.Fatalf("soak run failed: %v", err)
	}
	assertSoak(t, res)
	t.Logf("read-cache soak: %d ops (%.3f Mops/s), %d migrations seen, max %d concurrent",
		res.Ops, res.AggregateMops, res.MigrationsSeen, res.MaxConcurrentMigrations)
}

// TestSoakSmoke is the CI smoke configuration: 4 servers, a longer budget,
// fixed seed. Gated behind SOAK_SMOKE=1 so the ordinary test run stays fast;
// the CI workflow's soak job sets it. On violations the harness dumps
// violations.txt and key_history.csv into SOAK_ARTIFACT_DIR for upload.
func TestSoakSmoke(t *testing.T) {
	if os.Getenv("SOAK_SMOKE") == "" {
		t.Skip("set SOAK_SMOKE=1 to run the CI soak smoke")
	}
	res, err := Run(Config{
		Load: Load{
			Clients: 4, Keys: 2048, Seed: 42,
			ArtifactDir: os.Getenv("SOAK_ARTIFACT_DIR"), Logf: t.Logf,
		},
		Servers:         4,
		Duration:        envDuration("SOAK_DURATION", 30*time.Second),
		Kills:           3,
		Cancels:         3,
		ConcurrentPairs: 3,
		OverlapAttempts: 3,
	})
	if err != nil {
		t.Fatalf("soak run failed: %v", err)
	}
	assertSoak(t, res)
	t.Logf("soak smoke: %d ops (%.3f Mops/s), %d migrations, max %d concurrent, %d kills, %d cancels, %d overlap rejections",
		res.Ops, res.AggregateMops, res.MigrationsSeen, res.MaxConcurrentMigrations,
		res.Kills, res.Cancels, res.OverlapRejections)
}

// assertSoak checks the invariants every soak configuration must satisfy.
func assertSoak(t *testing.T, res Result) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Ops == 0 {
		t.Error("no operations acked: the workload never ran")
	}
	if res.MaxConcurrentMigrations < 2 {
		t.Errorf("max concurrent migrations = %d, want >= 2 (concurrency never demonstrated)",
			res.MaxConcurrentMigrations)
	}
	if res.OverlapRejections < 1 {
		t.Error("no live overlapping start was rejected (want >= 1)")
	}
	if res.MigrationsSeen < 2 {
		t.Errorf("only %d migrations observed in flight", res.MigrationsSeen)
	}
}
