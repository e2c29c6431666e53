package soak

import (
	"os"
	"strconv"
	"testing"
	"time"
)

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func envDuration(name string, def time.Duration) time.Duration {
	if v := os.Getenv(name); v != "" {
		if d, err := time.ParseDuration(v); err == nil {
			return d
		}
	}
	return def
}

// TestSoakDebug is a knob-driven soak driver for chasing a specific failure
// interactively (and the nightly cluster-soak's entry point); it is skipped
// unless SOAK_DEBUG=1. The seed, duration and artifact directory use the
// same names as the smoke tests (SOAK_SEED, SOAK_DURATION,
// SOAK_ARTIFACT_DIR); the cluster size and fault counts come from S, KILLS,
// CANCELS, PAIRS, OVERLAPS. Note that a count of 0 means "use the default"
// (withDefaults) — pass -1 to genuinely disable a fault class. Example:
//
//	SOAK_DEBUG=1 SOAK_SEED=7 KILLS=2 CANCELS=-1 PAIRS=3 OVERLAPS=-1 \
//	  go test ./internal/soak -run TestSoakDebug -count=1 -v
func TestSoakDebug(t *testing.T) {
	if os.Getenv("SOAK_DEBUG") == "" {
		t.Skip("set SOAK_DEBUG=1 to run the knob-driven soak driver")
	}
	res, err := Run(Config{
		Load: Load{
			Clients: 4, Keys: 2048, Seed: int64(envInt("SOAK_SEED", 42)),
			ArtifactDir: os.Getenv("SOAK_ARTIFACT_DIR"), Logf: t.Logf,
		},
		Servers:         envInt("S", 4),
		Duration:        envDuration("SOAK_DURATION", 6*time.Second),
		Kills:           envInt("KILLS", 3),
		Cancels:         envInt("CANCELS", 3),
		ConcurrentPairs: envInt("PAIRS", 3),
		OverlapAttempts: envInt("OVERLAPS", 3),
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range res.Violations {
		if i >= 10 {
			break
		}
		t.Errorf("violation: %s", v)
	}
	t.Logf("violations=%d ops=%d migs=%d maxconc=%d",
		len(res.Violations), res.Ops, res.MigrationsSeen, res.MaxConcurrentMigrations)
}
