// Largerthanmemory: a dataset several times the server's in-memory budget.
// The HybridLog transparently spills cold pages to the device (an in-memory
// stand-in for the SSD) and mirrors them to the shared tier; reads of cold
// keys take the asynchronous pending-I/O path and still complete, exactly as
// §2.2 describes.
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

const keys = 60_000 // * ~88B records ≈ 5 MiB, vs a 1 MiB memory budget

func main() {
	cluster := shadowfax.NewCluster()
	tier := shadowfax.NewSharedTier(shadowfax.LatencyModel{})
	// The local "SSD": an in-memory device with 8 I/O workers.
	dev := shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 8)
	defer dev.Close()

	srv, err := shadowfax.NewServer(cluster, "server-1",
		shadowfax.WithThreads(2),
		shadowfax.WithIndexBuckets(1<<14),
		shadowfax.WithMemoryBudget(14, 64, 32), // 1 MiB budget
		shadowfax.WithLogDevice(dev),
		shadowfax.WithSharedTier(tier))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	cl, err := shadowfax.Dial(cluster, shadowfax.WithMaxOutstanding(2048))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Ingest way past the memory budget.
	val := make([]byte, 64)
	for i := uint64(0); i < keys; i++ {
		binary.LittleEndian.PutUint64(val, i)
		cl.SetAsync(ycsb.KeyBytes(i), val).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	lg := srv.LogStats()
	fmt.Printf("ingested %d keys: log tail=%d, in-memory head=%d, flushed=%d bytes\n",
		keys, lg.TailAddress, lg.HeadAddress, lg.FlushedUntilAddress)
	fmt.Printf("shared tier holds %d bytes of server-1's log\n",
		tier.UploadedBytes("server-1"))

	// Cold reads: the oldest keys are on "SSD" now.
	start := time.Now()
	var coldOK int
	for i := uint64(0); i < 500; i++ {
		v, err := cl.Get(ctx, ycsb.KeyBytes(i))
		if err == nil && binary.LittleEndian.Uint64(v) == i {
			coldOK++
		}
	}
	fmt.Printf("cold reads: %d/500 correct in %v (served via async pending I/O)\n",
		coldOK, time.Since(start).Round(time.Millisecond))
	fmt.Printf("store issued %d pending storage reads\n",
		srv.Stats().StorePendingReads)

	// Hot reads: recent keys stay in the mutable region.
	start = time.Now()
	var hotOK int
	for i := uint64(keys - 500); i < keys; i++ {
		v, err := cl.Get(ctx, ycsb.KeyBytes(i))
		if err == nil && binary.LittleEndian.Uint64(v) == i {
			hotOK++
		}
	}
	fmt.Printf("hot reads:  %d/500 correct in %v (all in memory)\n",
		hotOK, time.Since(start).Round(time.Millisecond))
}
