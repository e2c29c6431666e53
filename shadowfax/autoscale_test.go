package shadowfax_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/shadowfax"
)

// TestAutoScaleOutSplitsHotRange is the elasticity acceptance test: a
// cluster of one loaded server ("hot", owning the full hash space, hosting
// the balancer) and one idle server ("cold", owning nothing) is driven with
// a workload concentrated entirely on hot. Nothing ever calls Migrate — the
// balancer alone must detect the imbalance, pick a split from the sampled
// hash distribution, and migrate the hot half to cold. The test then
// asserts post-migration ownership (the two views partition the hash
// space), client re-routing (cold serves operations), and data integrity
// (every counter equals exactly the increments applied, across the split).
func TestAutoScaleOutSplitsHotRange(t *testing.T) {
	cluster := shadowfax.NewCluster()
	defer cluster.Close()

	hot, err := shadowfax.NewServer(cluster, "hot",
		shadowfax.WithThreads(2),
		shadowfax.WithSampleDuration(20*time.Millisecond),
		shadowfax.WithAutoScale(shadowfax.AutoScaleConfig{
			Every:        50 * time.Millisecond,
			Imbalance:    1.5,
			Cooldown:     time.Minute, // at most one split in this test
			MinOpsPerSec: 50,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer hot.Close()
	cold, err := shadowfax.NewServer(cluster, "cold",
		shadowfax.WithThreads(2), shadowfax.WithOwnership())
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if v, err := cluster.View("cold"); err != nil || len(v.Ranges) != 0 {
		t.Fatalf("cold should start empty: %+v %v", v, err)
	}

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const keys = 512
	key := func(i int) []byte { return []byte(fmt.Sprintf("autoscale-%04d", i)) }
	zero := make([]byte, 8)
	for i := 0; i < keys; i++ {
		if err := cl.Set(ctx, key(i), zero); err != nil {
			t.Fatal(err)
		}
	}

	// Drive RMW increments (all routed to hot) until the balancer has
	// split and the migration's dependency has cleared.
	delta := make([]byte, 8)
	binary.LittleEndian.PutUint64(delta, 1)
	rounds := 0
	split := false
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		futs := make([]*shadowfax.Future, keys)
		for i := 0; i < keys; i++ {
			futs[i] = cl.RMWAsync(key(i), delta)
		}
		cl.Flush()
		for _, f := range futs {
			if _, err := f.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			f.Release()
		}
		rounds++
		cv, err := cluster.View("cold")
		if err != nil {
			t.Fatal(err)
		}
		if len(cv.Ranges) > 0 &&
			len(cluster.PendingMigrations("hot")) == 0 &&
			len(cluster.PendingMigrations("cold")) == 0 {
			split = true
			break
		}
	}
	if !split {
		t.Fatalf("balancer never split after %d rounds", rounds)
	}

	// Ownership: the two views must partition the full hash space.
	hv, _ := cluster.View("hot")
	cv, _ := cluster.View("cold")
	if len(cv.Ranges) == 0 {
		t.Fatal("cold owns nothing after the split")
	}
	var total uint64
	for _, v := range []shadowfax.View{hv, cv} {
		for _, r := range v.Ranges {
			total += r.End - r.Start
		}
	}
	if total != ^uint64(0) {
		t.Fatalf("views do not partition the hash space: %v + %v", hv.Ranges, cv.Ranges)
	}
	for _, hr := range hv.Ranges {
		for _, cr := range cv.Ranges {
			if hr.Overlaps(cr) {
				t.Fatalf("overlapping ownership: %v vs %v", hr, cr)
			}
		}
	}

	// The balancer did it, and says so.
	status, err := shadowfax.NewAdmin(cluster).BalanceStatus(ctx, "hot")
	if err != nil {
		t.Fatal(err)
	}
	if !status.Enabled || status.Migrations < 1 {
		t.Fatalf("balancer status: %+v, want enabled with ≥1 triggered migration", status)
	}
	if hs, err := hot.Stats(), error(nil); err == nil && hs.BalanceMigrations < 1 {
		t.Fatalf("hot stats do not report the balancer migration: %+v", hs)
	}

	// Integrity across the split: every counter saw every increment exactly
	// once, wherever it lives now. These reads also exercise re-routing —
	// cold must serve its share.
	coldBefore, err := shadowfax.NewAdmin(cluster).Stats(ctx, "cold")
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(rounds)
	for i := 0; i < keys; i++ {
		v, err := cl.Get(ctx, key(i))
		if err != nil {
			t.Fatalf("get %s: %v", key(i), err)
		}
		if got := binary.LittleEndian.Uint64(v); got != want {
			t.Fatalf("key %s = %d, want %d (lost or duplicated increments across the migration)",
				key(i), got, want)
		}
	}
	coldAfter, err := shadowfax.NewAdmin(cluster).Stats(ctx, "cold")
	if err != nil {
		t.Fatal(err)
	}
	if coldAfter.OpsCompleted <= coldBefore.OpsCompleted {
		t.Fatalf("cold served no reads after the split (%d → %d): clients did not re-route",
			coldBefore.OpsCompleted, coldAfter.OpsCompleted)
	}
}
