package soak

import (
	"os"
	"testing"
	"time"
)

// assertFailover checks the invariants every failover soak must satisfy:
// zero violations (zero acked-write loss, linearizable reads, exactly one
// promotion winner) and a workload that actually ran.
func assertFailover(t *testing.T, res FailoverResult) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Ops == 0 {
		t.Error("no operations acked: the workload never ran")
	}
	if res.Fault != KillBackup && res.PromotedIn <= 0 {
		t.Error("standby never promoted")
	}
}

// TestSoakFailoverKillPrimary kills the primary abruptly under live load:
// the standby must promote itself and every acked write must survive.
// Run with -race: the replication stream, the failure detector and the
// clients' replays all share one process.
func TestSoakFailoverKillPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak takes seconds; skipped in -short")
	}
	res, err := RunFailover(FailoverConfig{
		Load:     Load{Seed: 1, Logf: t.Logf},
		Fault:    KillPrimary,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("failover soak failed: %v", err)
	}
	assertFailover(t, res)
	t.Logf("kill-primary: %d ops, promoted in %v, %d violations",
		res.Ops, res.PromotedIn.Round(time.Millisecond), len(res.Violations))
}

// TestSoakFailoverKillBackup kills the standby abruptly under live load:
// the primary must detach it and keep serving without losing a write.
func TestSoakFailoverKillBackup(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak takes seconds; skipped in -short")
	}
	res, err := RunFailover(FailoverConfig{
		Load:     Load{Seed: 2, Logf: t.Logf},
		Fault:    KillBackup,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("failover soak failed: %v", err)
	}
	assertFailover(t, res)
	t.Logf("kill-backup: %d ops, %d violations", res.Ops, len(res.Violations))
}

// TestSoakFailoverKillMidPromotion races the dead primary's checkpoint
// restart against the standby's promotion: the metadata store must pick
// exactly one winner (the restart is refused with ErrDeposed) and the
// history must stay clean through the race.
func TestSoakFailoverKillMidPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak takes seconds; skipped in -short")
	}
	res, err := RunFailover(FailoverConfig{
		Load:     Load{Seed: 3, Logf: t.Logf},
		Fault:    KillMidPromotion,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatalf("failover soak failed: %v", err)
	}
	assertFailover(t, res)
	t.Logf("kill-mid-promotion: %d ops, promoted in %v, %d violations",
		res.Ops, res.PromotedIn.Round(time.Millisecond), len(res.Violations))
}

// TestSoakFailoverSmoke is the CI failover-smoke / nightly long-soak entry
// point: gated behind SOAK_FAILOVER=1, with the seed, duration, fault and
// artifact directory supplied through the environment so a workflow matrix
// can sweep seeds. On violations the harness dumps violations.txt and
// key_history.csv into SOAK_ARTIFACT_DIR for upload.
func TestSoakFailoverSmoke(t *testing.T) {
	if os.Getenv("SOAK_FAILOVER") == "" {
		t.Skip("set SOAK_FAILOVER=1 to run the failover soak smoke")
	}
	fault := KillPrimary
	switch os.Getenv("SOAK_FAULT") {
	case "kill-backup":
		fault = KillBackup
	case "kill-mid-promotion":
		fault = KillMidPromotion
	}
	res, err := RunFailover(FailoverConfig{
		Load: Load{
			Seed:        int64(envInt("SOAK_SEED", 42)),
			ArtifactDir: os.Getenv("SOAK_ARTIFACT_DIR"), Logf: t.Logf,
		},
		Fault:    fault,
		Duration: envDuration("SOAK_DURATION", 10*time.Second),
	})
	if err != nil {
		t.Fatalf("failover soak failed: %v", err)
	}
	assertFailover(t, res)
	t.Logf("failover smoke (%s, seed %d): %d ops (%.3f Mops/s), promoted in %v, %d violations",
		fault, envInt("SOAK_SEED", 42), res.Ops, res.AggregateMops,
		res.PromotedIn.Round(time.Millisecond), len(res.Violations))
}
