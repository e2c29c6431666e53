// Telemetry: the paper's §1 motivating workload. A fleet of simulated
// sensors streams heartbeat events into Shadowfax as read-modify-write
// increments (each event bumps its device's counter), while an analytics
// client concurrently samples hot devices — ingest and query on the same
// store, no stalls.
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
	devices   = 50_000
	ingesters = 2
	runFor    = 3 * time.Second
)

func deviceKey(id uint64) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint64(k, id)
	return k
}

func main() {
	cluster := shadowfax.NewCluster()
	srv, err := shadowfax.NewServer(cluster, "ingest-1",
		shadowfax.WithThreads(2),
		shadowfax.WithIndexBuckets(1<<14),
		shadowfax.WithMemoryBudget(16, 128, 64))
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	// Ingest clients: Zipfian device activity (a few chatty sensors, a
	// long tail), one async RMW increment per heartbeat; WithMaxOutstanding
	// provides the flow control.
	stop := make(chan struct{})
	done := make(chan uint64, ingesters)
	for t := 0; t < ingesters; t++ {
		go func(seed uint64) {
			ct, err := shadowfax.Dial(cluster, shadowfax.WithMaxOutstanding(2048))
			if err != nil {
				done <- 0
				return
			}
			defer ct.Close()
			z := ycsb.NewZipfian(devices, ycsb.DefaultTheta, seed)
			one := make([]byte, 8)
			binary.LittleEndian.PutUint64(one, 1)
			var sent uint64
			for {
				select {
				case <-stop:
					dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
					ct.Drain(dctx)
					cancel()
					done <- sent
					return
				default:
				}
				for i := 0; i < 128; i++ {
					ct.RMWAsync(deviceKey(z.Next()), one).Release()
					sent++
				}
				ct.Flush()
			}
		}(uint64(t + 1))
	}

	// Analytics: periodically sample a handful of devices' heartbeat
	// totals while ingest continues.
	qc, err := shadowfax.Dial(cluster)
	if err != nil {
		log.Fatal(err)
	}
	defer qc.Close()
	deadline := time.Now().Add(runFor)
	for time.Now().Before(deadline) {
		time.Sleep(500 * time.Millisecond)
		var total uint64
		var found int
		for d := uint64(0); d < 16; d++ {
			qctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			v, err := qc.Get(qctx, deviceKey(d))
			cancel()
			if err == nil && len(v) >= 8 {
				total += binary.LittleEndian.Uint64(v)
				found++
			}
		}
		fmt.Printf("t=%-6s sampled %2d devices, %8d heartbeats among them\n",
			time.Until(deadline).Round(time.Second), found, total)
	}
	close(stop)
	var ingested uint64
	for t := 0; t < ingesters; t++ {
		ingested += <-done
	}
	fmt.Printf("ingested ~%d heartbeats across %d devices (%.2f Mops/s)\n",
		ingested, devices, float64(ingested)/runFor.Seconds()/1e6)
}
