// Quickstart: boot a Shadowfax server in-process, connect through the
// public shadowfax package, and run reads, upserts, read-modify-writes and
// deletes — synchronously with contexts, and asynchronously with futures.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"

	"repro/shadowfax"
)

func main() {
	// A Cluster bundles the deployment-wide fixtures: the metadata store
	// (ZooKeeper's stand-in) and the transport (in-process by default).
	cluster := shadowfax.NewCluster()

	tier := shadowfax.NewSharedTier(shadowfax.LatencyModel{})
	srv, err := shadowfax.NewServer(cluster, "server-1",
		shadowfax.WithThreads(2),
		shadowfax.WithIndexBuckets(1<<12),
		shadowfax.WithSharedTier(tier))
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

	// Blind write, then read back — synchronous, context-aware.
	if err := cl.Set(ctx, []byte("greeting"), []byte("hello, shadowfax")); err != nil {
		log.Fatal(err)
	}
	v, err := cl.Get(ctx, []byte("greeting"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greeting = %q\n", v)

	// Read-modify-write: 8-byte little-endian counters (YCSB-F's op),
	// pipelined asynchronously and settled with one Drain.
	delta := make([]byte, 8)
	binary.LittleEndian.PutUint64(delta, 1)
	for i := 0; i < 42; i++ {
		cl.RMWAsync([]byte("clicks"), delta).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	v, err = cl.Get(ctx, []byte("clicks"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clicks = %d\n", binary.LittleEndian.Uint64(v))

	// Delete; a subsequent read reports ErrNotFound.
	if err := cl.Delete(ctx, []byte("greeting")); err != nil {
		log.Fatal(err)
	}
	_, err = cl.Get(ctx, []byte("greeting"))
	fmt.Printf("after delete: %v (is ErrNotFound: %v)\n",
		err, errors.Is(err, shadowfax.ErrNotFound))

	fmt.Printf("server completed %d operations\n", srv.Stats().OpsCompleted)
}
