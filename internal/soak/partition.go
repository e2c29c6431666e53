package soak

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/transport"
	"repro/shadowfax"
)

// The partition soak drives a replicated primary through a chaos.Network and
// scripts three network-fault phases under continuous load, with the same
// per-key linearizability ledger as the other soaks:
//
//   - Phase A — primary ⇹ standby partition, metadata reachable. The standby
//     loses the stream and probes, but the primary's liveness lease is still
//     being renewed, so promotion MUST be refused (a partition is not a
//     death). The primary detaches the silent backup, confirms the detach
//     against the metadata store, and releases its held responses; batches
//     past the per-connection backlog bound are shed with a retryable
//     status, and the clients requeue them after a backoff pause. On heal
//     the standby re-attaches and re-syncs (TimeToHeal).
//   - Phase B — primary ⇹ metadata partition. The primary's remote metadata
//     provider degrades to its cached snapshot; the soak observes
//     DegradedFor over the public balance-status surface, heals, and
//     requires the provider to converge back to healthy.
//   - Phase C — the primary dies. Exactly one promotion must happen
//     (PromotedIn), and the balancer's SpawnStandby hook must then provision
//     a fresh standby for the promoted primary automatically; the soak waits
//     for it to attach and finish its base sync (TimeToReReplicate).
//
// After the phases the load drains and a final sweep asserts
// acked ≤ value ≤ issued for every key: no acked write may be lost to any
// partition, shed, detach or failover, and no recovery replay may apply
// twice.

// PartitionConfig sizes one partition soak. Zero fields take the documented
// defaults (Load: 3 clients, 512 keys, 96 ops per batch — with the clients'
// 16-op wire batches each round pipelines several batches, so the primary's
// backlog bound genuinely engages during phase A).
type PartitionConfig struct {
	Load
	// Warmup is the clean-load interval before and between fault phases
	// (default 300ms).
	Warmup time.Duration
	// PartitionFor is how long phase A holds the primary⇹standby cut —
	// must exceed the replication ack timeout so the detach fires
	// (default 900ms).
	PartitionFor time.Duration
}

// PartitionResult is one partition soak's outcome.
type PartitionResult struct {
	Outcome

	// TimeToHeal is phase A's recovery: from the heal instant until the
	// standby is re-attached and fully re-synced.
	TimeToHeal time.Duration
	// DegradedObserved is the largest DegradedFor phase B saw over the
	// balance-status surface while the metadata link was cut.
	DegradedObserved time.Duration
	// PromotedIn is phase C's failover latency: from the primary's death to
	// the standby serving as primary.
	PromotedIn time.Duration
	// TimeToReReplicate is phase C's self-healing latency: from the
	// promotion until the automatically spawned replacement standby
	// finished its base sync.
	TimeToReReplicate time.Duration

	// BatchesShed counts batches the servers turned away under overload
	// (client-observed); ShedRate is that over all batches sent.
	BatchesShed uint64
	ShedRate    float64
}

// Chaos-node names (partitions are cut between these); listen addresses are
// the server ids as usual.
const (
	pnMeta     = "meta"
	pnPrimary  = "primary"
	pnStandby  = "standby"
	pnStandby2 = "standby2"
	pnClient   = "client"

	ppMetaID     = "meta0"
	ppStandby2ID = "p0-standby2"

	ppAckTimeout = 300 * time.Millisecond
	ppBacklog    = 4 // MaxConnBacklog: small, so phase A genuinely sheds
)

type partitionSoak struct {
	*harness
	cfg PartitionConfig
	net *chaos.Network

	// metaCluster carries the in-process state-of-record store; the other
	// clusters reach it remotely through the chaos network.
	metaCluster *shadowfax.Cluster
	admin       *shadowfax.Admin

	// spawn is the slot the balancer's SpawnStandby hook starts (phase C's
	// self-healing re-replication); it exists up front so the hook boots the
	// replacement standby without allocating shared fixtures mid-phase.
	primary, standby, spawn *node
}

// RunPartition executes one partition soak: boot the chaos topology, preload,
// load, run phases A/B/C without pausing the load, drain, final sweep.
// Harness failures (a topology that cannot boot) come back as the error;
// correctness breaches land in Result.Violations.
func RunPartition(cfg PartitionConfig) (PartitionResult, error) {
	cfg.Load.withDefaults(3, 512, 96)
	if cfg.Warmup <= 0 {
		cfg.Warmup = 300 * time.Millisecond
	}
	if cfg.PartitionFor <= 0 {
		cfg.PartitionFor = 900 * time.Millisecond
	}
	s := &partitionSoak{harness: newHarness(cfg.Load, 10*time.Second), cfg: cfg}
	s.net = chaos.NewNetwork(transport.NewInMem(transport.Free), uint64(cfg.Seed))
	defer s.close()

	if err := s.boot(); err != nil {
		return PartitionResult{}, err
	}
	if err := s.preload(s.clients[0]); err != nil {
		return PartitionResult{}, err
	}

	res := PartitionResult{}
	s.drive(func() {
		time.Sleep(cfg.Warmup)
		s.phaseAPartitionStandby(&res)
		time.Sleep(cfg.Warmup)
		s.phaseBPartitionMeta(&res)
		time.Sleep(cfg.Warmup)
		s.phaseCKillPrimary(&res)
		time.Sleep(cfg.Warmup) // load the promoted primary + fresh standby
	})
	s.finalChecks()

	var sent uint64
	for _, cl := range s.clients {
		st := cl.Stats()
		res.BatchesShed += st.BatchesShed
		sent += st.BatchesSent
	}
	if sent > 0 {
		res.ShedRate = float64(res.BatchesShed) / float64(sent)
	}
	res.Outcome = s.finish(fmt.Sprintf("promoted_in=%v time_to_heal=%v time_to_rereplicate=%v shed=%d",
		res.PromotedIn, res.TimeToHeal, res.TimeToReReplicate, res.BatchesShed))
	return res, nil
}

// boot builds the chaos topology: the metadata endpoint (in-process store,
// hosting the self-healing balancer), the replicated primary/standby pair on
// their own chaos nodes, the replacement standby's slot, and the client
// workers — every inter-node frame crosses the chaos network.
func (s *partitionSoak) boot() error {
	s.metaCluster = s.addCluster(shadowfax.WithTransport(s.net.Node(pnMeta)))
	remote := func(chaosNode string) *shadowfax.Cluster {
		return s.addCluster(shadowfax.WithTransport(s.net.Node(chaosNode)),
			shadowfax.WithRemoteMetadata(ppMetaID))
	}
	meta := s.addNode(s.metaCluster, ppMetaID, false,
		shadowfax.WithThreads(1),
		shadowfax.WithOwnership(), // owns no ranges: pure metadata/balancer host
		shadowfax.WithAutoScale(shadowfax.AutoScaleConfig{
			Every:        50 * time.Millisecond,
			MinOpsPerSec: 1e12, // never split on load; this balancer only re-replicates
			SpawnStandby: s.spawnStandby,
		}))
	s.primary = s.addNode(remote(pnPrimary), primaryID, false,
		shadowfax.WithMaxConnBacklog(ppBacklog),
		shadowfax.WithLeaseTTL(ppAckTimeout))
	s.standby = s.addNode(remote(pnStandby), standbyID, false,
		shadowfax.WithMaxConnBacklog(ppBacklog),
		shadowfax.WithLeaseTTL(ppAckTimeout),
		replicaOf(ppAckTimeout))
	for _, nd := range []*node{meta, s.primary, s.standby} {
		if err := nd.start(); err != nil {
			return err
		}
	}
	if !waitSynced(s.metaCluster, time.Minute) {
		return errors.New("soak: standby never finished its base sync")
	}
	s.spawn = s.addNode(remote(pnStandby2), ppStandby2ID, false, replicaOf(ppAckTimeout))

	clientCluster := remote(pnClient)
	s.admin = shadowfax.NewAdmin(clientCluster)
	return s.dial(clientCluster, shadowfax.WithBatchOps(16))
}

// spawnStandby is the balancer's self-healing hook: called (rate-limited, by
// the one balancer goroutine) when a promoted primary is observed serving
// with no registered replica.
func (s *partitionSoak) spawnStandby(promoted string) error {
	if s.spawn.server() != nil || s.stop.Load() {
		return nil
	}
	if promoted != primaryID {
		return fmt.Errorf("soak: spawn hook called for unexpected primary %q", promoted)
	}
	if err := s.spawn.start(); err != nil {
		return err
	}
	s.cfg.Logf("soak: balancer spawned replacement standby for %s", promoted)
	return nil
}

// ---- fault phases --------------------------------------------------------

// phaseAPartitionStandby cuts primary⇹standby while the metadata endpoint
// stays reachable from both. The lease fence must refuse the standby's
// promotion (the primary is alive — it keeps renewing); the primary must
// detach the silent backup, confirm the detach against the store, and keep
// serving (shedding past the backlog bound rather than queueing without
// limit). On heal the standby must re-attach and re-sync.
func (s *partitionSoak) phaseAPartitionStandby(res *PartitionResult) {
	s.cfg.Logf("soak: phase A — partitioning primary ⇹ standby for %v", s.cfg.PartitionFor)
	s.net.Partition(pnPrimary, pnStandby)

	// Monitor for the forbidden promotion for the whole cut.
	cut := time.Now()
	cutUntil := cut.Add(s.cfg.PartitionFor)
	registered := func() bool {
		_, ok := s.metaCluster.Replicas()[primaryID]
		return ok
	}
	detached := false
	for time.Now().Before(cutUntil) {
		if !s.standby.server().IsStandby() {
			s.violate("standby promoted itself during a primary⇹standby partition (primary alive, lease held)")
			break
		}
		if !detached && !registered() {
			detached = true
			s.cfg.Logf("soak: primary detached the silent standby %v into the cut",
				time.Since(cut).Round(time.Millisecond))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !detached && registered() {
		s.violate("primary never detached its unreachable standby (ack timeout %v, cut %v)",
			ppAckTimeout, s.cfg.PartitionFor)
	}

	healed := time.Now()
	s.net.Heal(pnPrimary, pnStandby)
	if !waitSynced(s.metaCluster, 15*time.Second) {
		s.violate("standby never re-attached and re-synced after the partition healed")
		return
	}
	if !s.standby.server().IsStandby() {
		s.violate("standby is not a standby after re-attaching")
	}
	res.TimeToHeal = time.Since(healed)
	s.cfg.Logf("soak: phase A healed; standby re-synced in %v", res.TimeToHeal.Round(time.Millisecond))
}

// phaseBPartitionMeta cuts primary⇹metadata (and resets the cached
// connections so the provider notices immediately rather than after an RPC
// timeout). The primary must degrade to its cached snapshot and keep
// serving; the degradation must be visible over the public balance-status
// surface; and a heal must converge back to healthy.
func (s *partitionSoak) phaseBPartitionMeta(res *PartitionResult) {
	s.cfg.Logf("soak: phase B — partitioning primary ⇹ metadata")
	s.net.Partition(pnPrimary, pnMeta)
	s.net.ResetConns(pnPrimary, pnMeta)

	var ok bool
	if res.DegradedObserved, ok = s.awaitDegraded(true); !ok {
		s.violate("primary never reported a degraded metadata provider during the metadata partition")
	}

	s.net.Heal(pnPrimary, pnMeta)
	if _, ok = s.awaitDegraded(false); !ok {
		s.violate("metadata provider never converged back to healthy after the partition healed")
	}
	s.cfg.Logf("soak: phase B healed; provider recovered (peak degraded %v)",
		res.DegradedObserved.Round(time.Millisecond))
}

// awaitDegraded polls the primary's balance-status surface until its
// metadata provider reports itself degraded (or, for false, healthy again)
// and returns the DegradedFor that satisfied the wait.
func (s *partitionSoak) awaitDegraded(degraded bool) (seen time.Duration, ok bool) {
	ok = poll(10*time.Second, 20*time.Millisecond, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		bs, err := s.admin.BalanceStatus(ctx, primaryID)
		seen = bs.DegradedFor
		return err == nil && (seen > 0) == degraded
	})
	return seen, ok
}

// phaseCKillPrimary kills the primary under live load. The standby must win
// exactly one promotion, and the balancer must then notice the promoted
// primary serving un-replicated and spawn a replacement standby through its
// SpawnStandby hook.
func (s *partitionSoak) phaseCKillPrimary(res *PartitionResult) {
	s.cfg.Logf("soak: phase C — killing primary")
	killed := time.Now()
	s.primary.kill()
	var ok bool
	if res.PromotedIn, ok = s.awaitPromotion(s.standby, killed); !ok {
		return
	}
	promoted := time.Now()

	// Self-healing: the balancer must provision a fresh standby and that
	// standby must reach synced without any harness intervention.
	if !waitSynced(s.metaCluster, 30*time.Second) {
		s.violate("no replacement standby re-attached after the failover (SpawnStandby never healed)")
		return
	}
	if s.spawn.server() == nil {
		s.violate("a replica attached after the failover but not through the SpawnStandby hook")
		return
	}
	res.TimeToReReplicate = time.Since(promoted)
	s.cfg.Logf("soak: replacement standby synced %v after the promotion",
		res.TimeToReReplicate.Round(time.Millisecond))
}

// finalChecks asserts the terminal topology: exactly one promotion happened
// and the replacement standby is still an unpromoted standby.
func (s *partitionSoak) finalChecks() {
	proms := s.metaCluster.PromotedServers()
	if len(proms) != 1 || proms[0] != primaryID {
		s.violate("promoted-server set is %v, want exactly [%s]", proms, primaryID)
	}
	if sp := s.spawn.server(); sp != nil && !sp.IsStandby() {
		s.violate("replacement standby promoted itself with its primary alive")
	}
}
