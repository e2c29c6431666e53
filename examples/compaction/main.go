// Compaction: the space-management subsystem (§3.3.3) under a sustained
// overwrite workload. A small working set is overwritten again and again, so
// the HybridLog grows with dead record versions; without compaction the
// disk-resident prefix grows without bound. The background compaction
// service watches the disk watermark, copies the few live records forward,
// advances the begin address, and punches the dead prefix out of the device
// — the footprint plateaus while foreground operations keep completing.
//
// Checkpoints interleave with compaction throughout, demonstrating the
// clamp: the device is never truncated below the begin address of the latest
// committed checkpoint image, so crash recovery stays possible at any time.
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
	liveKeys  = 2_000 // working set: ~176 KiB of live records
	overwrite = 30    // rounds of full-set overwrites
)

func main() {
	cluster := shadowfax.NewCluster()
	dev := shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 4)
	defer dev.Close()
	ckptDev := shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 2)
	defer ckptDev.Close()

	srv, err := shadowfax.NewServer(cluster, "server-1",
		shadowfax.WithThreads(2),
		shadowfax.WithIndexBuckets(1<<12),
		shadowfax.WithMemoryBudget(14, 16, 8), // 256 KiB budget
		shadowfax.WithLogDevice(dev),
		shadowfax.WithCheckpointDevice(ckptDev),
		shadowfax.WithCheckpointEvery(300*time.Millisecond),
		shadowfax.WithCompaction(100*time.Millisecond, 1<<20)) // ~1 MiB watermark
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	cl, err := shadowfax.Dial(cluster, shadowfax.WithMaxOutstanding(1024))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	fmt.Println("round  log-span(KiB)  disk-resident(KiB)  device-alloc(KiB)  begin")
	val := make([]byte, 64)
	for round := 0; round < overwrite; round++ {
		for i := uint64(0); i < liveKeys; i++ {
			binary.LittleEndian.PutUint64(val, uint64(round))
			cl.SetAsync(ycsb.KeyBytes(i), val).Release()
		}
		if err := cl.Drain(ctx); err != nil {
			log.Fatal(err)
		}
		// Pace the rounds: this demo is about a *sustained* overwrite
		// workload coexisting with the background services, not a burst
		// that outruns their polling periods.
		time.Sleep(50 * time.Millisecond)
		if round%5 == 4 {
			lg := srv.LogStats()
			fmt.Printf("%5d  %13d  %18d  %17d  %#x\n", round+1,
				(lg.TailAddress-lg.BeginAddress)>>10,
				lg.DiskResidentBytes>>10, dev.AllocatedBytes()>>10,
				lg.BeginAddress)
		}
	}

	// Let the service catch up with the final round, then sum up.
	time.Sleep(500 * time.Millisecond)
	st := srv.Stats()
	last := srv.LastCompaction()
	lg := srv.LogStats()
	fmt.Printf("\ncompaction passes: %d (failures %d)\n",
		st.Compactions, st.CompactionFailures)
	fmt.Printf("reclaimed %d KiB of storage in total; last pass scanned %d, kept %d, dropped %d\n",
		st.CompactReclaimedBytes>>10, last.Scanned, last.Kept, last.Dropped)
	fmt.Printf("log: begin=%#x tail=%#x — live span %d KiB for a %d KiB working set\n",
		lg.BeginAddress, lg.TailAddress,
		(lg.TailAddress-lg.BeginAddress)>>10, liveKeys*88>>10)
	fmt.Printf("device: %d KiB allocated, %d KiB trimmed over the run\n",
		dev.AllocatedBytes()>>10, dev.Stats().TrimmedBytes>>10)

	// Every live key must still be served with its final value.
	bad := 0
	for i := uint64(0); i < liveKeys; i++ {
		v, err := cl.Get(ctx, ycsb.KeyBytes(i))
		if err != nil || len(v) < 8 || binary.LittleEndian.Uint64(v) != overwrite-1 {
			bad++
		}
	}
	if bad != 0 {
		log.Fatalf("%d keys lost or stale after compaction", bad)
	}
	fmt.Printf("verified: all %d live keys intact after %d compaction passes\n",
		liveKeys, st.Compactions)
}
