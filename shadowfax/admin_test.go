package shadowfax

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/metadata"
)

func TestAdminStatsAndCheckpoint(t *testing.T) {
	cluster := NewCluster()
	logDev := NewMemDevice(LatencyModel{}, 2)
	defer logDev.Close()
	ckptDev := NewMemDevice(LatencyModel{}, 2)
	defer ckptDev.Close()
	srv, err := NewServer(cluster, "s1", WithThreads(1),
		WithLogDevice(logDev), WithCheckpointDevice(ckptDev),
		WithMemoryBudget(12, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		cl.SetAsync(k(i), val(i))
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	admin := NewAdmin(cluster)
	st, err := admin.Stats(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ServerID != "s1" || st.OpsCompleted < 100 || st.ViewNumber == 0 {
		t.Fatalf("stats over the wire: %+v", st)
	}
	// The wire snapshot and the in-process snapshot agree on identity.
	if local := srv.Stats(); local.ServerID != st.ServerID ||
		local.ViewNumber != st.ViewNumber {
		t.Fatalf("wire stats %+v disagree with local %+v", st, local)
	}

	info, err := admin.Checkpoint(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version == 0 || info.LogTail == 0 {
		t.Fatalf("checkpoint info: %+v", info)
	}
}

func TestAdminCheckpointRejected(t *testing.T) {
	cluster, _ := testCluster(t) // no checkpoint device
	admin := NewAdmin(cluster)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := admin.Checkpoint(ctx, "s1"); !errors.Is(err, ErrRejected) {
		t.Fatalf("checkpoint without device = %v, want ErrRejected", err)
	}
}

func TestAdminCompact(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	// Two overwrite rounds so the stable prefix holds dead versions.
	for round := 0; round < 2; round++ {
		for i := 0; i < 2000; i++ {
			cl.SetAsync(k(i), val(round*10000+i))
		}
		if err := cl.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewAdmin(cluster).Compact(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned == 0 {
		t.Fatalf("compaction scanned nothing: %+v", st)
	}
}

func TestAdminMigrate(t *testing.T) {
	cluster := NewCluster()
	for _, id := range []string{"src", "dst"} {
		ranges := []HashRange{}
		if id == "src" {
			ranges = append(ranges, FullRange)
		}
		srv, err := NewServer(cluster, id, WithThreads(1),
			WithIndexBuckets(1<<10), WithMemoryBudget(12, 16, 8),
			WithOwnership(ranges...), WithSampleDuration(10*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
	}
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		cl.SetAsync(k(i), val(i))
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	if err := NewAdmin(cluster).Migrate(ctx, "src", "dst",
		HashRange{Start: 0, End: 1 << 63}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(cluster.PendingMigrations("src")) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("migration never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every key still readable after the ownership change.
	for i := 0; i < 500; i++ {
		v, err := cl.Get(ctx, k(i))
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d after migration: %q, %v", i, v, err)
		}
	}
	if v, err := cluster.View("dst"); err != nil || len(v.Ranges) == 0 {
		t.Fatalf("target view after migration: %+v, %v", v, err)
	}
}

// TestDiscover: a fresh cluster handle adopts an out-of-process-style server
// purely through the Stats handshake.
func TestDiscover(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.Set(ctx, []byte("shared"), []byte("state")); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// A second cluster handle shares only the transport — its metadata
	// store starts empty, like a separate process would.
	fresh := NewCluster(WithTransport(cluster.tr))
	st, err := fresh.Discover(ctx, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ServerID != "s1" {
		t.Fatalf("discovered %q", st.ServerID)
	}
	cl2, err := Dial(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	v, err := cl2.Get(ctx, []byte("shared"))
	if err != nil || !bytes.Equal(v, []byte("state")) {
		t.Fatalf("read through discovered cluster: %q, %v", v, err)
	}
}

// addrRefuser is a metadata store whose SetServerAddr fails, as a remote
// provider's does when the metadata endpoint goes away mid-handshake.
type addrRefuser struct{ *metadata.Store }

func (addrRefuser) SetServerAddr(id, addr string) error {
	return errors.New("metadata endpoint unavailable")
}

// TestAddressRegistrationFailureIsReported: a server whose address did not
// reach the metadata store is registered but unroutable, so neither the
// discovery handshake nor NewServer may report success for it.
func TestAddressRegistrationFailureIsReported(t *testing.T) {
	cluster, _ := testCluster(t)
	broken := NewCluster(WithTransport(cluster.tr))
	broken.meta = addrRefuser{metadata.NewStore()}
	if st, err := broken.Discover(context.Background(), "s1"); err == nil {
		t.Fatalf("Discover reported %+v although the address was never recorded", st)
	}
	if srv, err := NewServer(broken, "s2", WithThreads(1)); err == nil {
		srv.Close()
		t.Fatal("NewServer succeeded although its address was never recorded")
	}
}

// TestBalancerOptionsCommute: WithAutoScale and WithScaleIn each fill their
// own fields of the one balancer configuration, so the order they are given
// in does not matter.
func TestBalancerOptionsCommute(t *testing.T) {
	auto := WithAutoScale(AutoScaleConfig{Every: time.Second, Imbalance: 2, Cooldown: time.Minute,
		MinOpsPerSec: 100, MaxConcurrent: 3})
	in := WithScaleIn(ScaleInConfig{BelowOpsPerSec: 10, AfterPasses: 4, MinServers: 3})
	var a, b serverConfig
	auto(&a)
	in(&a)
	in(&b)
	auto(&b)
	if !reflect.DeepEqual(a.cfg, b.cfg) {
		t.Fatalf("option order changed the configuration:\n auto,in: %+v\n in,auto: %+v", a.cfg.Balancer, b.cfg.Balancer)
	}
	bc := a.cfg.Balancer
	if !a.cfg.AutoScale || !bc.ScaleIn || bc.Every != time.Second || bc.Imbalance != 2 ||
		bc.Cooldown != time.Minute || bc.MinOpsPerSec != 100 || bc.MaxConcurrent != 3 ||
		bc.ScaleInBelowOps != 10 || bc.ScaleInAfterPasses != 4 || bc.MinServers != 3 {
		t.Fatalf("options did not reach the balancer configuration: %+v", bc)
	}
}
