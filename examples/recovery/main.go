// Recovery: the full durability loop in one process — load a server, take a
// checkpoint through the Admin RPC, crash the server (process state gone;
// the log and checkpoint devices survive, standing in for local SSD),
// recover a new server from the latest image, and resume the client session
// with replay of the operations that were in flight at the crash (§2.1 CPR +
// §3.3.1 client-assisted recovery).
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/shadowfax"
)

func main() {
	cluster := shadowfax.NewCluster()

	// These two devices are the durable substrate: they outlive the server
	// instance, exactly like an SSD outlives a crashed process.
	logDev := shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 2)
	defer ckptDev.Close()

	newServer := func(recover bool) (*shadowfax.Server, error) {
		opts := []shadowfax.ServerOption{
			shadowfax.WithThreads(2),
			shadowfax.WithIndexBuckets(1 << 12),
			shadowfax.WithMemoryBudget(12, 32, 16),
			shadowfax.WithLogDevice(logDev),
			shadowfax.WithCheckpointDevice(ckptDev),
		}
		if recover {
			opts = append(opts, shadowfax.WithRecovery())
		}
		return shadowfax.NewServer(cluster, "server-1", opts...)
	}

	srv, err := newServer(false)
	if err != nil {
		log.Fatal(err)
	}

	cl, err := shadowfax.Dial(cluster, shadowfax.WithBatchOps(64))
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Phase 1: durable data — 10k keys plus a counter, then a checkpoint.
	const durable = 10_000
	for i := 0; i < durable; i++ {
		cl.SetAsync(key(i), val(i)).Release()
	}
	for i := 0; i < 8; i++ {
		cl.RMWAsync([]byte("counter"), delta(1)).Release()
	}
	if err := cl.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	info, err := shadowfax.NewAdmin(cluster).Checkpoint(ctx, "server-1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint committed: version %d, log prefix %#x\n",
		info.Version, info.LogTail)

	// Phase 2: operations still in flight when the server dies. CPR rolls
	// the store back to the checkpoint; the client replays these afterwards.
	const inflight = 100
	futs := make([]*shadowfax.Future, 0, inflight+4)
	for i := 0; i < inflight; i++ {
		futs = append(futs, cl.SetAsync(key(durable+i), val(durable+i)))
	}
	for i := 0; i < 4; i++ {
		futs = append(futs, cl.RMWAsync([]byte("counter"), delta(1)))
	}
	cl.Flush()
	fmt.Printf("crashing with %d operations in flight\n", cl.Outstanding())
	srv.Close() // the crash: memory, sessions, dispatchers — all gone

	// An in-flight future against the dead server diagnoses the breakage.
	probeCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if _, err := futs[0].Wait(probeCtx); errors.Is(err, shadowfax.ErrSessionBroken) {
		fmt.Printf("sessions broken: %d awaiting recovery\n", cl.BrokenSessions())
	}
	cancel()

	// Recovery: a new server instance rebuilds itself from the image.
	start := time.Now()
	srv2, err := newServer(true)
	if err != nil {
		log.Fatal(err)
	}
	defer srv2.Close()
	fmt.Printf("server recovered in %v (view %d restored)\n",
		time.Since(start).Round(time.Microsecond), srv2.CurrentView().Number)

	// Client-assisted session recovery: learn the durable prefix, replay
	// past it, and drain the replayed operations. Every stranded future
	// settles exactly once.
	rctx, rcancel := context.WithTimeout(ctx, 30*time.Second)
	defer rcancel()
	if err := cl.RecoverSessions(rctx); err != nil {
		log.Fatal(err)
	}
	if err := cl.Drain(rctx); err != nil {
		log.Fatal(err)
	}
	for _, f := range futs {
		if _, err := f.Wait(rctx); err != nil {
			log.Fatalf("replayed operation failed: %v", err)
		}
		f.Release()
	}

	// Verify: every key — checkpointed and replayed — plus the exact counter.
	bad := 0
	for i := 0; i < durable+inflight; i++ {
		v, err := cl.Get(rctx, key(i))
		if err != nil || string(v) != string(val(i)) {
			bad++
		}
	}
	var counter uint64
	if v, err := cl.Get(rctx, []byte("counter")); err == nil && len(v) == 8 {
		counter = binary.LittleEndian.Uint64(v)
	}
	fmt.Printf("verified %d keys after recovery (%d bad), counter = %d (want 12)\n",
		durable+inflight, bad, counter)
	if bad != 0 || counter != 12 {
		log.Fatal("recovery verification FAILED")
	}
	fmt.Println("recovery verification PASSED: durable prefix served, session replayed exactly once")
}

func key(i int) []byte { return []byte(fmt.Sprintf("user-%07d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("profile-%07d", i)) }

func delta(n uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, n)
	return b
}
