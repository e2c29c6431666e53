package shadowfax_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/shadowfax"
)

// TestAutoScaleInDrainsColdServer is the scale-in acceptance test: a
// three-server cluster where one server's range receives no traffic. Nothing
// ever calls Drain — the balancer alone must observe the cold streak, drain
// the cold server's range into the survivors via an ordinary migration, and
// retire it from the metadata store, all while a live client keeps writing.
// The drained server's keys must survive on the new owner.
func TestAutoScaleInDrainsColdServer(t *testing.T) {
	cluster := shadowfax.NewCluster()
	defer cluster.Close()

	coldStart := uint64(3) << 62 // top quarter of the hash space
	mid := uint64(1) << 63
	host, err := shadowfax.NewServer(cluster, "host",
		shadowfax.WithThreads(2),
		shadowfax.WithSampleDuration(10*time.Millisecond),
		shadowfax.WithOwnership(shadowfax.HashRange{Start: 0, End: mid}),
		shadowfax.WithAutoScale(shadowfax.AutoScaleConfig{
			Every:        30 * time.Millisecond,
			Imbalance:    1000, // never split in this test
			Cooldown:     50 * time.Millisecond,
			MinOpsPerSec: 1 << 30, // the idle guard keeps planMoves quiet
		}),
		shadowfax.WithScaleIn(shadowfax.ScaleInConfig{
			BelowOpsPerSec: 50,
			AfterPasses:    3,
			MinServers:     2,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	peer, err := shadowfax.NewServer(cluster, "peer", shadowfax.WithThreads(1),
		shadowfax.WithSampleDuration(10*time.Millisecond),
		shadowfax.WithOwnership(shadowfax.HashRange{Start: mid, End: coldStart}))
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	cold, err := shadowfax.NewServer(cluster, "cold", shadowfax.WithThreads(1),
		shadowfax.WithSampleDuration(10*time.Millisecond),
		shadowfax.WithOwnership(shadowfax.HashRange{Start: coldStart, End: ^uint64(0)}))
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Seed a few keys into the cold range so the drain moves real data,
	// then leave it alone.
	var coldKeys, hotKeys [][]byte
	for i := 0; len(coldKeys) < 16 || len(hotKeys) < 64; i++ {
		k := []byte(fmt.Sprintf("scalein-%05d", i))
		if faster.HashOf(k) >= coldStart {
			coldKeys = append(coldKeys, k)
		} else {
			hotKeys = append(hotKeys, k)
		}
	}
	for _, k := range coldKeys {
		if err := cl.Set(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}

	// Live load on the surviving servers' ranges while the balancer watches
	// the cold server idle. The balancer must drain and retire it.
	retired := false
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		for _, k := range hotKeys {
			if err := cl.Set(ctx, k, k); err != nil {
				t.Fatal(err)
			}
		}
		still := false
		for _, id := range cluster.Servers() {
			if id == "cold" {
				still = true
			}
		}
		if !still && len(cluster.PendingMigrations("host")) == 0 {
			retired = true
			break
		}
	}
	if !retired {
		t.Fatalf("balancer never drained the cold server; servers=%v, status=%+v",
			cluster.Servers(), must(shadowfax.NewAdmin(cluster).BalanceStatus(ctx, "host")))
	}

	// The survivors own the full space and the cold keys moved with it.
	var total uint64
	for _, id := range cluster.Servers() {
		v, err := cluster.View(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range v.Ranges {
			total += r.End - r.Start
		}
	}
	if total != ^uint64(0) {
		t.Fatalf("surviving views do not cover the hash space")
	}
	if err := cl.RecoverSessions(ctx); err != nil {
		t.Fatal(err)
	}
	for _, k := range coldKeys {
		got, err := cl.Get(ctx, k)
		if err != nil || string(got) != string(k) {
			t.Fatalf("cold key %s after scale-in: %q %v", k, got, err)
		}
	}
}

func must[T any](v T, err error) T { return v }
