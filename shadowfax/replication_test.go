package shadowfax_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/shadowfax"
)

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestReplicationFailover is the failover acceptance test at the public API:
// a primary with a hot standby takes writes, the primary dies abruptly, the
// standby promotes itself, and a client that replays its sessions reads
// every acknowledged write back — zero acked-write loss — then keeps writing
// against the promoted server.
func TestReplicationFailover(t *testing.T) {
	cluster := shadowfax.NewCluster()
	defer cluster.Close()

	primary, err := shadowfax.NewServer(cluster, "p", shadowfax.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	// Seed some pre-attach state so the base sync has something to ship.
	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	key := func(i int) []byte { return []byte(fmt.Sprintf("repl-%04d", i)) }
	val := func(i int) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(i))
		return b
	}
	const preKeys = 64
	for i := 0; i < preKeys; i++ {
		if err := cl.Set(ctx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	standby, err := shadowfax.NewServer(cluster, "pb", shadowfax.WithThreads(2),
		shadowfax.WithReplication(shadowfax.ReplicationConfig{
			ReplicaOf:      "p",
			HeartbeatEvery: 10 * time.Millisecond,
			FailoverAfter:  150 * time.Millisecond,
			AckTimeout:     2 * time.Second,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if !standby.IsStandby() {
		t.Fatal("fresh replica does not report IsStandby")
	}

	waitFor(t, 10*time.Second, "base sync", func() bool {
		r, ok := cluster.Replicas()["p"]
		return ok && r.Synced
	})
	if !primary.Replicating() {
		t.Fatal("primary does not report an attached replica")
	}

	// Live-stream phase: more writes while the backup mirrors them. Every
	// one of these is acknowledged, so every one must survive the failover.
	const liveKeys = 128
	for i := preKeys; i < preKeys+liveKeys; i++ {
		if err := cl.Set(ctx, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Kill the primary abruptly — no checkpoint, no drain. The standby's
	// failure detector must notice the silent stream, probe, and promote.
	viewBefore, _ := cluster.View("p")
	if err := primary.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "promotion", func() bool { return !standby.IsStandby() })
	v, err := cluster.View("p")
	if err != nil {
		t.Fatal(err)
	}
	if v.Number <= viewBefore.Number {
		t.Fatalf("promotion did not bump the view: %d -> %d", viewBefore.Number, v.Number)
	}
	if _, ok := cluster.Replicas()["p"]; ok {
		t.Fatal("replica registration survived promotion")
	}

	// The client's sessions broke with the primary; replay them through the
	// §3.3.1 recovery path against the promoted server, then verify every
	// acknowledged write.
	if err := cl.RecoverSessions(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < preKeys+liveKeys; i++ {
		got, err := cl.Get(ctx, key(i))
		if err != nil {
			t.Fatalf("get %s after failover: %v", key(i), err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(i) {
			t.Fatalf("key %s = %v after failover, want %d", key(i), got, i)
		}
	}

	// The promoted server is a full primary: new writes land.
	if err := cl.Set(ctx, []byte("post-failover"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Get(ctx, []byte("post-failover")); err != nil || string(got) != "ok" {
		t.Fatalf("write to promoted server: %q %v", got, err)
	}
}

// TestReplicationBackupDeath pins the primary-side failure detector: when
// the standby dies mid-stream, the primary detaches it (releasing held
// responses) and keeps serving with no replica attached.
func TestReplicationBackupDeath(t *testing.T) {
	cluster := shadowfax.NewCluster()
	defer cluster.Close()

	primary, err := shadowfax.NewServer(cluster, "p", shadowfax.WithThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	standby, err := shadowfax.NewServer(cluster, "pb", shadowfax.WithThreads(1),
		shadowfax.WithReplication(shadowfax.ReplicationConfig{
			ReplicaOf:      "p",
			HeartbeatEvery: 10 * time.Millisecond,
			FailoverAfter:  10 * time.Second, // never promote in this test
			AckTimeout:     200 * time.Millisecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	waitFor(t, 10*time.Second, "base sync", func() bool {
		r, ok := cluster.Replicas()["p"]
		return ok && r.Synced
	})

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := cl.Set(ctx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	// The primary must notice the ack silence, detach, and keep acking
	// writes (held responses release on detach, so this Set cannot hang).
	waitFor(t, 10*time.Second, "detach", func() bool { return !primary.Replicating() })
	if _, ok := cluster.Replicas()["p"]; ok {
		t.Fatal("replica registration survived detach")
	}
	if err := cl.Set(ctx, []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Get(ctx, []byte("k")); err != nil || string(got) != "v2" {
		t.Fatalf("write after detach: %q %v", got, err)
	}
}

// TestDrainScaleIn pins manual scale-in end to end: a three-server cluster
// drains one server under a live client, its ranges migrate to the
// survivors, the server retires from the metadata store, and every key is
// still readable. Draining the last server standing is refused.
func TestDrainScaleIn(t *testing.T) {
	cluster := shadowfax.NewCluster()
	defer cluster.Close()

	mid := uint64(1) << 63
	a, err := shadowfax.NewServer(cluster, "a", shadowfax.WithThreads(2),
		shadowfax.WithSampleDuration(10*time.Millisecond),
		shadowfax.WithOwnership(shadowfax.HashRange{Start: 0, End: mid}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := shadowfax.NewServer(cluster, "b", shadowfax.WithThreads(2),
		shadowfax.WithSampleDuration(10*time.Millisecond),
		shadowfax.WithOwnership(shadowfax.HashRange{Start: mid, End: ^uint64(0)}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	key := func(i int) []byte { return []byte(fmt.Sprintf("drain-%04d", i)) }
	const keys = 256
	for i := 0; i < keys; i++ {
		if err := cl.Set(ctx, key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Drain b: its range must migrate to a and b must disappear.
	res, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Retired || res.Moved < 1 {
		t.Fatalf("drain result = %+v, want retired with >=1 range moved", res)
	}
	servers := cluster.Servers()
	for _, id := range servers {
		if id == "b" {
			t.Fatalf("b still registered after drain: %v", servers)
		}
	}
	av, _ := cluster.View("a")
	var total uint64
	for _, r := range av.Ranges {
		total += r.End - r.Start
	}
	if total != ^uint64(0) {
		t.Fatalf("a does not own the full space after drain: %v", av.Ranges)
	}

	// Retrying the drain is a no-op (the server is already retired).
	res2, err := b.Drain()
	if err != nil {
		t.Fatalf("retried drain: %v", err)
	}
	if res2.Moved != 0 {
		t.Fatalf("retried drain moved %d ranges, want 0", res2.Moved)
	}
	b.Close()

	// Every key survived the drain, served by a.
	if err := cl.RecoverSessions(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		got, err := cl.Get(ctx, key(i))
		if err != nil || string(got) != string(key(i)) {
			t.Fatalf("key %s after drain: %q %v", key(i), got, err)
		}
	}

	// Draining the last server is refused: its range would be unowned.
	if _, err := a.Drain(); !errors.Is(err, shadowfax.ErrRejected) {
		t.Fatalf("drain of last server: got %v, want ErrRejected", err)
	}
}
