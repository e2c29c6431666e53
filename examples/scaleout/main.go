// Scaleout: the paper's headline elasticity demo (§3.3). Two servers, all
// data initially on the source; under live YCSB-F load, 10% of the hash
// space is migrated to the idle target through the Admin Migrate RPC with
// the five-phase protocol, and the migration's phases, throughput and
// report are printed.
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

const keys = 50_000

func newServer(cluster *shadowfax.Cluster, tier *shadowfax.SharedTier,
	id string, ranges ...shadowfax.HashRange) *shadowfax.Server {
	srv, err := shadowfax.NewServer(cluster, id,
		shadowfax.WithThreads(2),
		shadowfax.WithIndexBuckets(1<<14),
		shadowfax.WithMemoryBudget(16, 128, 64),
		shadowfax.WithSharedTier(tier),
		shadowfax.WithSampleDuration(200*time.Millisecond),
		shadowfax.WithOwnership(ranges...))
	if err != nil {
		log.Fatal(err)
	}
	return srv
}

func main() {
	cluster := shadowfax.NewCluster()
	tier := shadowfax.NewSharedTier(shadowfax.LatencyModel{})
	src := newServer(cluster, tier, "source", shadowfax.FullRange)
	defer src.Close()
	tgt := newServer(cluster, tier, "target")
	defer tgt.Close()
	ctx := context.Background()

	// Load.
	cl, err := shadowfax.Dial(cluster, shadowfax.WithMaxOutstanding(2048))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	one := make([]byte, 8)
	binary.LittleEndian.PutUint64(one, 1)
	for i := uint64(0); i < keys; i++ {
		cl.RMWAsync(ycsb.KeyBytes(i), one).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d keys on %s\n", keys, src.ID())

	// Live load in the background: its own client, Zipfian keys.
	stop := make(chan struct{})
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		wc, err := shadowfax.Dial(cluster, shadowfax.WithMaxOutstanding(2048))
		if err != nil {
			return
		}
		defer wc.Close()
		z := ycsb.NewZipfian(keys, ycsb.DefaultTheta, 7)
		for {
			select {
			case <-stop:
				dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				wc.Drain(dctx)
				cancel()
				return
			default:
			}
			for i := 0; i < 128; i++ {
				wc.RMWAsync(ycsb.KeyBytes(z.Next()), one).Release()
			}
			wc.Flush()
		}
	}()
	time.Sleep(time.Second)

	// Migrate 10% of the hash space while serving, via the admin RPC.
	tenPct := shadowfax.HashRange{Start: 0, End: ^uint64(0) / 10}
	fmt.Printf("migrating %s from %s to %s...\n", tenPct, src.ID(), tgt.ID())
	if err := shadowfax.NewAdmin(cluster).Migrate(ctx, "source", "target", tenPct); err != nil {
		log.Fatal(err)
	}

	// Watch until both sides mark the dependency done.
	for {
		time.Sleep(250 * time.Millisecond)
		pend := len(cluster.PendingMigrations("source")) +
			len(cluster.PendingMigrations("target"))
		fmt.Printf("  source=%-9d target=%-9d pending-deps=%d\n",
			src.Stats().OpsCompleted, tgt.Stats().OpsCompleted, pend)
		if pend == 0 {
			break
		}
	}
	close(stop)
	<-loadDone

	rep := src.LastMigrationReport()
	fmt.Printf("migration done: %d records (%d sampled hot, %d indirections), "+
		"%d bytes from memory, ownership moved in %v, total %v\n",
		rep.RecordsSent, rep.SampledRecords, rep.IndirectionsSent,
		rep.BytesFromMemory,
		rep.OwnershipAt.Sub(rep.Started).Round(time.Millisecond),
		rep.Finished.Sub(rep.Started).Round(time.Millisecond))

	// Both servers now serve their shares.
	sv, _ := cluster.View("source")
	tv, _ := cluster.View("target")
	fmt.Printf("views: source #%d owns %d ranges; target #%d owns %d ranges\n",
		sv.Number, len(sv.Ranges), tv.Number, len(tv.Ranges))
}
