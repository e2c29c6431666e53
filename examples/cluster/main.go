// Cluster: a hash-partitioned multi-server deployment. Four servers each
// own a quarter of the hash space; the client library routes every
// operation by its cached ownership mappings, and batches are validated
// with a single view-number comparison at each server (§3.2).
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"repro/internal/ycsb"
	"repro/shadowfax"
)

const (
	servers = 4
	keys    = 40_000
)

func main() {
	cluster := shadowfax.NewCluster()

	// Carve the hash space into equal quarters.
	width := ^uint64(0) / servers
	var nodes []*shadowfax.Server
	for i := 0; i < servers; i++ {
		start := uint64(i) * width
		end := start + width
		if i == servers-1 {
			end = ^uint64(0)
		}
		id := fmt.Sprintf("node-%d", i+1)
		srv, err := shadowfax.NewServer(cluster, id,
			shadowfax.WithThreads(1),
			shadowfax.WithIndexBuckets(1<<12),
			shadowfax.WithOwnership(shadowfax.HashRange{Start: start, End: end}))
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		nodes = append(nodes, srv)
	}

	// The client hashes each key and routes it to its owner; WithMaxOutstanding
	// is the flow control the old callback API made callers hand-roll.
	cl, err := shadowfax.Dial(cluster, shadowfax.WithMaxOutstanding(2048))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	start := time.Now()
	for i := uint64(0); i < keys; i++ {
		cl.RMWAsync(ycsb.KeyBytes(i), one).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d keys in %v\n", keys, time.Since(start).Round(time.Millisecond))

	for _, n := range nodes {
		st := n.Stats()
		v := n.CurrentView()
		fmt.Printf("  %-8s view #%d served %7d ops for %s\n",
			n.ID(), st.ViewNumber, st.OpsCompleted, v.Ranges[0])
	}

	// Spot-check a few keys land with the right counters.
	bad := 0
	for i := uint64(0); i < 100; i++ {
		v, err := cl.Get(ctx, ycsb.KeyBytes(i))
		if err != nil || binary.LittleEndian.Uint64(v) != 1 {
			bad++
		}
	}
	fmt.Printf("verification: %d/100 keys wrong\n", bad)
}
