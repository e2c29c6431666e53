package repro_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/shadowfax"
)

// TestSmokeEndToEnd is the root sanity check: a tiny put/get workload
// through the full client→transport→server→FASTER stack. It is deliberately
// small — the real coverage lives in the internal packages; this guards the
// public assembly the examples and benchmarks rely on.
func TestSmokeEndToEnd(t *testing.T) {
	meta := metadata.NewStore()
	tr := transport.NewInMem(transport.Free)
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()

	srv, err := core.NewServer(core.ServerConfig{
		ID: "smoke", Addr: "smoke", Threads: 2,
		Transport: tr, Meta: meta,
		Store: faster.Config{
			IndexBuckets: 1 << 10,
			Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
				Device: dev, LogID: "smoke"},
		},
	}, metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	meta.SetServerAddr("smoke", srv.Addr())

	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	const n = 64
	for i := 0; i < n; i++ {
		ct.Upsert([]byte(fmt.Sprintf("smoke-%02d", i)), []byte(fmt.Sprintf("v%02d", i)), nil)
	}
	got := make([]string, n)
	status := make([]wire.ResultStatus, n)
	for i := 0; i < n; i++ {
		i := i
		status[i] = 255
		ct.Read([]byte(fmt.Sprintf("smoke-%02d", i)), func(st wire.ResultStatus, v []byte) {
			status[i] = st
			got[i] = string(v)
		})
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatalf("drain timed out with %d outstanding", ct.Outstanding())
	}
	for i := 0; i < n; i++ {
		if status[i] != wire.StatusOK || got[i] != fmt.Sprintf("v%02d", i) {
			t.Fatalf("key %d: status %v value %q", i, status[i], got[i])
		}
	}
	if ops := srv.Stats().OpsCompleted.Load(); ops < n*2 {
		t.Fatalf("server completed %d ops, want >= %d", ops, n*2)
	}
}

// TestPublicAPISmoke is TestSmokeEndToEnd through the public shadowfax
// package: the supported surface (cluster, functional options, futures,
// typed errors) assembled exactly the way cmd/ and examples/ use it.
func TestPublicAPISmoke(t *testing.T) {
	cluster := shadowfax.NewCluster()
	srv, err := shadowfax.NewServer(cluster, "smoke",
		shadowfax.WithThreads(2),
		shadowfax.WithIndexBuckets(1<<10),
		shadowfax.WithMemoryBudget(12, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := shadowfax.Dial(cluster, shadowfax.WithBatchOps(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const n = 64
	for i := 0; i < n; i++ {
		cl.SetAsync([]byte(fmt.Sprintf("smoke-%02d", i)),
			[]byte(fmt.Sprintf("v%02d", i))).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := cl.Get(ctx, []byte(fmt.Sprintf("smoke-%02d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%02d", i) {
			t.Fatalf("key %d: %q, %v", i, v, err)
		}
	}
	if _, err := cl.Get(ctx, []byte("absent")); !errors.Is(err, shadowfax.ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if ops := srv.Stats().OpsCompleted; ops < n*2 {
		t.Fatalf("server completed %d ops, want >= %d", ops, n*2)
	}
}
