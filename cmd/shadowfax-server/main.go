// Command shadowfax-server runs a single Shadowfax server over real TCP,
// built entirely on the public repro/shadowfax package.
//
// Clustering: every server answers metadata RPCs against its own metadata
// provider, so the first server of a deployment (run without -meta) is the
// cluster's designated metadata endpoint — the state of record for
// ownership views. Additional servers join from other processes with
// -meta <endpoint-addr>: they register themselves in the shared store,
// initially owning no hash ranges, and receive load when a migration (manual
// `shadowfax-cli migrate`, or the automatic balancer) splits a hot range
// onto them. shadowfax-cli routes across the whole cluster with the same
// -meta flag.
//
// Elasticity: -autoscale hosts the load-aware balancer on this server
// (exactly one server per deployment should pass it). The balancer polls
// every server's stats; when the hottest server's ops/sec exceeds the
// coolest's by -autoscale-imbalance it splits the hot server's sampled hash
// distribution at the load median and migrates the hot half — no operator
// involved. Inspect with `shadowfax-cli balance-status`, force a pass with
// `shadowfax-cli rebalance`.
//
// Durability: with -data the server keeps its HybridLog in <dir>/hlog.dat
// and checkpoint images in <dir>/checkpoints.dat. Checkpoints are taken
// periodically (-checkpoint-every) and on demand (`shadowfax-cli
// checkpoint`). After a crash, restart with -recover-from <dir> to rebuild
// the store from the latest committed image: every key durable at the
// checkpoint is served again and client sessions resume past their
// recovered prefix.
//
// Space management: -compact-every starts the background compaction service,
// which runs a log-compaction pass (§3.3.3) whenever the disk-resident log
// prefix exceeds -compact-watermark bytes, then punches the compacted prefix
// out of hlog.dat (never below the latest committed checkpoint image's begin
// address, so -recover-from keeps working). `shadowfax-cli compact` runs a
// pass on demand.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"repro/shadowfax"
)

func main() {
	id := flag.String("id", "server-1", "server identity in the metadata store (unique per cluster)")
	addr := flag.String("addr", "127.0.0.1:7777", "listen address")
	threads := flag.Int("threads", 2, "dispatcher threads (vCPUs)")
	meta := flag.String("meta", "",
		"join an existing cluster through the metadata endpoint at this address "+
			"(the first server's -addr); the server starts owning no hash ranges")
	dir := flag.String("data", "", "data directory (empty = in-memory devices, no durability)")
	pageBits := flag.Uint("page-bits", 16, "log2 page size")
	memPages := flag.Int("mem-pages", 256, "in-memory page frames")
	ckptEvery := flag.Duration("checkpoint-every", 0,
		"periodic checkpoint interval (0 = on demand only)")
	recoverFrom := flag.String("recover-from", "",
		"recover from the latest checkpoint image in this data directory (implies -data)")
	compactEvery := flag.Duration("compact-every", 0,
		"compaction service polling period (0 = on demand only, via `shadowfax-cli compact`)")
	compactWatermark := flag.Uint64("compact-watermark", 64<<20,
		"stable-prefix log bytes above which the compaction service runs a pass")
	autoscale := flag.Bool("autoscale", false,
		"host the load-aware balancer on this server (one per cluster)")
	autoscaleEvery := flag.Duration("autoscale-every", time.Second,
		"balancer planning-pass period")
	autoscaleImbalance := flag.Float64("autoscale-imbalance", 3.0,
		"hottest/coolest ops-rate ratio that triggers a split")
	autoscaleCooldown := flag.Duration("autoscale-cooldown", 10*time.Second,
		"hold-off after a triggered migration")
	autoscaleMinRate := flag.Float64("autoscale-min-rate", 500,
		"ops/sec floor below which the cluster is considered idle")
	scaleIn := flag.Bool("scale-in", false,
		"let the hosted balancer drain and retire chronically cold servers (needs -autoscale)")
	scaleInBelow := flag.Float64("scale-in-below", 50,
		"ops/sec low-water mark a server must stay under to be drained")
	scaleInPasses := flag.Int("scale-in-passes", 5,
		"consecutive cold planning passes that arm a drain")
	scaleInMin := flag.Int("scale-in-min-servers", 2,
		"server-count floor the balancer never drains below")
	replicaOf := flag.String("replica-of", "",
		"run as a hot standby for the named primary (requires -meta; promotes itself on primary failure)")
	heartbeatEvery := flag.Duration("heartbeat-every", 100*time.Millisecond,
		"replication stream keepalive period")
	failoverAfter := flag.Duration("failover-after", time.Second,
		"replication stream silence after which the standby probes the primary and promotes")
	readCache := flag.Bool("read-cache", false,
		"enable the second-chance read cache (copies twice-read disk-resident records back into memory)")
	readHint := flag.Int("read-hint-bytes", 0,
		"first device read size for a pending (disk-resident) record (0 = default 256)")
	flag.Parse()

	if *recoverFrom != "" {
		*dir = *recoverFrom
	}
	if *replicaOf != "" {
		if *meta == "" {
			log.Fatal("shadowfax-server: -replica-of requires -meta (the standby reaches its primary through the shared metadata endpoint)")
		}
		if *recoverFrom != "" {
			log.Fatal("shadowfax-server: -replica-of and -recover-from are mutually exclusive (a standby re-syncs from its primary)")
		}
	}

	// The kernel's TCP stack is the network (NetFree is the only profile).
	clusterOpts := []shadowfax.ClusterOption{
		shadowfax.WithTCPNetwork(shadowfax.NetFree),
	}
	if *meta != "" {
		clusterOpts = append(clusterOpts, shadowfax.WithRemoteMetadata(*meta))
	}
	cluster := shadowfax.NewCluster(clusterOpts...)
	defer cluster.Close()

	if *meta != "" && *recoverFrom == "" && *replicaOf == "" {
		// Re-registering an id that already owns ranges would reset its view
		// and orphan those ranges cluster-wide (no server would own them, and
		// migration needs an owner to move them back). A joiner that crashed
		// after acquiring ranges must come back via -recover-from (which
		// restores its checkpointed view) or under a fresh -id.
		if v, err := cluster.View(*id); err == nil && len(v.Ranges) > 0 {
			log.Fatalf("shadowfax-server: %q is already registered owning %d range(s) (view #%d); "+
				"restart it with -recover-from, or join with a different -id",
				*id, len(v.Ranges), v.Number)
		}
	}

	opts := []shadowfax.ServerOption{
		shadowfax.WithListenAddr(*addr),
		shadowfax.WithThreads(*threads),
		shadowfax.WithIndexBuckets(1 << 16),
		shadowfax.WithMemoryBudget(*pageBits, *memPages, *memPages/2),
	}
	if *readCache {
		opts = append(opts, shadowfax.WithReadCache(true))
	}
	if *readHint > 0 {
		opts = append(opts, shadowfax.WithReadHintBytes(*readHint))
	}
	if *meta != "" {
		// Joining servers own nothing until a migration (manual or
		// balancer-driven) moves a range onto them.
		opts = append(opts, shadowfax.WithOwnership())
	}
	if *autoscale {
		opts = append(opts, shadowfax.WithAutoScale(shadowfax.AutoScaleConfig{
			Every:        *autoscaleEvery,
			Imbalance:    *autoscaleImbalance,
			Cooldown:     *autoscaleCooldown,
			MinOpsPerSec: *autoscaleMinRate,
		}))
		if *scaleIn {
			opts = append(opts, shadowfax.WithScaleIn(shadowfax.ScaleInConfig{
				BelowOpsPerSec: *scaleInBelow,
				AfterPasses:    *scaleInPasses,
				MinServers:     *scaleInMin,
			}))
		}
	}
	if *replicaOf != "" {
		opts = append(opts, shadowfax.WithReplication(shadowfax.ReplicationConfig{
			ReplicaOf:      *replicaOf,
			HeartbeatEvery: *heartbeatEvery,
			FailoverAfter:  *failoverAfter,
		}))
	}

	if *dir == "" {
		if *ckptEvery > 0 {
			// Durability onto a memory device is pointless; catch the
			// misconfiguration instead of silently "checkpointing".
			log.Fatal("shadowfax-server: -checkpoint-every requires -data")
		}
		// No -data: the server keeps its log on a private in-memory device
		// (the NewServer default).
	} else {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			log.Fatal(err)
		}
		logDev, err := shadowfax.NewFileDevice(filepath.Join(*dir, "hlog.dat"),
			shadowfax.LatencyModel{}, 4)
		if err != nil {
			log.Fatal(err)
		}
		defer logDev.Close()
		ckptDev, err := shadowfax.NewFileDevice(filepath.Join(*dir, "checkpoints.dat"),
			shadowfax.LatencyModel{}, 2)
		if err != nil {
			log.Fatal(err)
		}
		defer ckptDev.Close()
		opts = append(opts,
			shadowfax.WithLogDevice(logDev),
			shadowfax.WithCheckpointDevice(ckptDev),
			shadowfax.WithCheckpointEvery(*ckptEvery))
	}
	if *compactEvery > 0 {
		opts = append(opts, shadowfax.WithCompaction(*compactEvery, *compactWatermark))
	}
	if *recoverFrom != "" {
		opts = append(opts, shadowfax.WithRecovery())
	}

	srv, err := shadowfax.NewServer(cluster, *id, opts...)
	if err != nil {
		log.Fatal(err)
	}
	mode := "fresh"
	switch {
	case *replicaOf != "":
		mode = fmt.Sprintf("hot standby for %s", *replicaOf)
	case *recoverFrom != "":
		mode = fmt.Sprintf("recovered from %s", *recoverFrom)
	case *meta != "":
		mode = fmt.Sprintf("joined cluster via metadata endpoint %s", *meta)
	}
	role := ""
	if *meta == "" {
		role = ", metadata endpoint"
	}
	if *autoscale {
		role += ", balancer"
	}
	fmt.Printf("shadowfax-server %s listening on %s (%d threads, %s%s)\n",
		*id, srv.Addr(), *threads, mode, role)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down")
	srv.Close()
}
