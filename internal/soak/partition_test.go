package soak

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestPartitionSoakSmoke is the CI-sized partition soak: one seed, tight
// phases, race-enabled. It exercises the whole chaos timeline — standby
// partition without promotion, metadata partition with degraded views,
// primary kill with exactly-one promotion and automatic re-replication —
// and fails on any linearizability violation.
func TestPartitionSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("partition soak skipped in -short mode")
	}
	res, err := RunPartition(PartitionConfig{
		// Two dispatchers so the servers cross replication/checkpoint cuts
		// from concurrent sessions — the regression surface for cross-version
		// copy-on-write around a cut (Store.CutPending).
		Load: Load{Threads: 2, Seed: 41, ArtifactDir: os.Getenv("SOAK_ARTIFACT_DIR"), Logf: t.Logf},
	})
	if err != nil {
		t.Fatalf("partition soak failed to run: %v", err)
	}
	report(t, res)
}

// TestPartitionSoakSweep is the long multi-seed sweep, enabled with
// SOAK_PARTITION=1 (CI's chaos job and manual deep runs).
func TestPartitionSoakSweep(t *testing.T) {
	if os.Getenv("SOAK_PARTITION") == "" {
		t.Skip("set SOAK_PARTITION=1 to run the multi-seed partition sweep")
	}
	for _, seed := range []int64{1, 7, 23, 99, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := RunPartition(PartitionConfig{
				Load:         Load{Threads: 2, Seed: seed, ArtifactDir: os.Getenv("SOAK_ARTIFACT_DIR"), Logf: t.Logf},
				PartitionFor: 1200 * time.Millisecond,
				Warmup:       500 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("seed %d: partition soak failed to run: %v", seed, err)
			}
			report(t, res)
		})
	}
}

func report(t *testing.T, res PartitionResult) {
	t.Helper()
	t.Logf("partition soak: %d ops in %v (%.3f Mops/s), heal %v, degraded %v, promoted %v, re-replicate %v, shed %d (%.2f%%)",
		res.Ops, res.Duration.Round(time.Millisecond), res.AggregateMops,
		res.TimeToHeal.Round(time.Millisecond),
		res.DegradedObserved.Round(time.Millisecond),
		res.PromotedIn.Round(time.Millisecond),
		res.TimeToReReplicate.Round(time.Millisecond),
		res.BatchesShed, res.ShedRate*100)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Ops == 0 {
		t.Error("soak acked zero operations")
	}
	if res.TimeToHeal == 0 {
		t.Error("phase A never measured a heal")
	}
	if res.PromotedIn == 0 {
		t.Error("phase C never measured a promotion")
	}
	if res.TimeToReReplicate == 0 {
		t.Error("phase C never measured automatic re-replication")
	}
}
