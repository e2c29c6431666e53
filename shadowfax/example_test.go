package shadowfax_test

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/shadowfax"
)

// ExampleClient boots a server in-process, connects a client, and runs the
// four data-plane operations synchronously.
func ExampleClient() {
	cluster := shadowfax.NewCluster()
	srv, err := shadowfax.NewServer(cluster, "server-1")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Set(ctx, []byte("greeting"), []byte("hello, shadowfax")); err != nil {
		log.Fatal(err)
	}
	v, err := cl.Get(ctx, []byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greeting = %q\n", v)

	// Read-modify-write: values are 8-byte little-endian counters by
	// default; inputs are deltas.
	one := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	for i := 0; i < 3; i++ {
		if err := cl.RMW(ctx, []byte("clicks"), one); err != nil {
			log.Fatal(err)
		}
	}
	v, _ = cl.Get(ctx, []byte("clicks"))
	fmt.Printf("clicks = %d\n", v[0])

	if err := cl.Delete(ctx, []byte("greeting")); err != nil {
		log.Fatal(err)
	}
	_, err = cl.Get(ctx, []byte("greeting"))
	fmt.Printf("after delete: not found = %v\n", errors.Is(err, shadowfax.ErrNotFound))

	// Output:
	// greeting = "hello, shadowfax"
	// clicks = 3
	// after delete: not found = true
}

// ExampleClient_async pipelines a burst of writes through pooled Futures and
// settles them with one Drain.
func ExampleClient_async() {
	cluster := shadowfax.NewCluster()
	srv, err := shadowfax.NewServer(cluster, "server-1")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cl, err := shadowfax.Dial(cluster, shadowfax.WithBatchOps(64))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user-%04d", i)
		cl.SetAsync([]byte(key), []byte("profile")).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		log.Fatal(err)
	}

	f := cl.GetAsync([]byte("user-0042"))
	cl.Flush()
	v, err := f.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("user-0042 = %q\n", v)
	f.Release()

	// Output:
	// user-0042 = "profile"
}

// ExampleNewServer carves the hash space across two servers; the client
// routes by ownership.
func ExampleNewServer() {
	cluster := shadowfax.NewCluster()
	half := ^uint64(0) / 2
	for i, rng := range []shadowfax.HashRange{
		{Start: 0, End: half},
		{Start: half, End: ^uint64(0)},
	} {
		srv, err := shadowfax.NewServer(cluster, fmt.Sprintf("node-%d", i+1),
			shadowfax.WithThreads(1),
			shadowfax.WithOwnership(rng),
			shadowfax.WithMemoryBudget(14, 32, 16))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
	}

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("servers: %v\n", cluster.Servers())

	// Output:
	// servers: [node-1 node-2]
}

// ExampleAdmin drives the control plane: a durable checkpoint and a stats
// snapshot over the wire.
func ExampleAdmin() {
	cluster := shadowfax.NewCluster()
	ckptDev := shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 2)
	defer ckptDev.Close()
	srv, err := shadowfax.NewServer(cluster, "server-1",
		shadowfax.WithCheckpointDevice(ckptDev))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	cl, err := shadowfax.Dial(cluster)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Set(ctx, []byte("durable"), []byte("yes")); err != nil {
		log.Fatal(err)
	}

	admin := shadowfax.NewAdmin(cluster)
	info, err := admin.Checkpoint(ctx, "server-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint version %d committed\n", info.Version)

	st, err := admin.Stats(ctx, "server-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server %s: checkpoints=%d\n", st.ServerID, st.Checkpoints)

	// Output:
	// checkpoint version 1 committed
	// server server-1: checkpoints=1
}
