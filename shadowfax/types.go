package shadowfax

import (
	"time"

	"repro/internal/core"
	"repro/internal/metadata"
	"repro/internal/wire"
)

// Re-exported metadata types. These are aliases, not copies: values returned
// by this package interoperate with values a program builds itself.
type (
	// HashRange is a half-open interval [Start, End) of 64-bit key hashes.
	HashRange = metadata.HashRange
	// View is a server's ownership view: a strictly-increasing number plus
	// the hash ranges owned at that number (§3.2).
	View = metadata.View
	// MigrationState is one in-flight migration's fault-tolerance record in
	// the metadata store (§3.3.1).
	MigrationState = metadata.MigrationState
	// MigrationReport summarizes a finished (or running) migration on the
	// source server.
	MigrationReport = core.MigrationReport
	// ReplicaState describes one attached backup in the metadata store:
	// which primary it shadows, where it listens, and whether its base sync
	// completed (only a synced backup may promote).
	ReplicaState = metadata.ReplicaState
)

// FullRange covers the entire hash space.
var FullRange = metadata.FullRange

// ServerStats is a point-in-time snapshot of a server's identity, ownership
// view number and operational counters. The same snapshot shape is returned
// by Server.Stats (in-process) and Admin.Stats (over the wire).
type ServerStats struct {
	ServerID   string
	ViewNumber uint64

	OpsCompleted    uint64
	BatchesAccepted uint64
	BatchesRejected uint64
	// BatchesShed counts batches refused by admission control (per-connection
	// held-response backlog at the MaxConnBacklog bound).
	BatchesShed   uint64
	DecodeErrors  uint64
	PendingOps    int64 // target-side pending set during migration (Fig. 12)
	RemoteFetches uint64
	ViewRefreshes uint64

	Checkpoints        uint64
	CheckpointFailures uint64

	Compactions           uint64
	CompactionFailures    uint64
	CompactRelocated      uint64
	CompactReclaimedBytes uint64

	// StorePendingReads counts the pending storage I/Os the FASTER store
	// has issued (cold reads served off the SSD path).
	StorePendingReads uint64
	// PendingCoalesced counts pending reads that shared another pending
	// read's in-flight device I/O instead of issuing their own.
	PendingCoalesced uint64
	// ReadCacheHits counts in-memory read hits on keys the second-chance
	// read cache promoted back into the mutable region (tag-based, so
	// approximate); ReadCacheCopies counts the promotions themselves.
	ReadCacheHits   uint64
	ReadCacheCopies uint64
	// DeviceBatchReads counts batched device read submissions by the
	// pending-read pipeline.
	DeviceBatchReads uint64

	// LogBytes is the server's HybridLog footprint (tail − begin address).
	LogBytes uint64

	// BalancePasses / BalanceMigrations report the hosted auto-scale
	// balancer (zero unless the server was built WithAutoScale): planning
	// passes run and migrations triggered.
	BalancePasses     uint64
	BalanceMigrations uint64
}

func serverStatsFromWire(r wire.StatsResp) ServerStats {
	return ServerStats{
		ServerID:   r.ServerID,
		ViewNumber: r.ViewNumber,

		OpsCompleted:    r.OpsCompleted,
		BatchesAccepted: r.BatchesAccepted,
		BatchesRejected: r.BatchesRejected,
		BatchesShed:     r.BatchesShed,
		DecodeErrors:    r.DecodeErrors,
		PendingOps:      r.PendingOps,
		RemoteFetches:   r.RemoteFetches,
		ViewRefreshes:   r.ViewRefreshes,

		Checkpoints:        r.Checkpoints,
		CheckpointFailures: r.CheckpointFailures,

		Compactions:           r.Compactions,
		CompactionFailures:    r.CompactionFailures,
		CompactRelocated:      r.CompactRelocated,
		CompactReclaimedBytes: r.CompactReclaimedBytes,

		StorePendingReads: r.StorePendingReads,
		PendingCoalesced:  r.PendingCoalesced,
		ReadCacheHits:     r.ReadCacheHits,
		ReadCacheCopies:   r.ReadCacheCopies,
		DeviceBatchReads:  r.DeviceBatchReads,

		LogBytes:          r.LogBytes,
		BalancePasses:     r.BalancePasses,
		BalanceMigrations: r.BalanceMigrations,
	}
}

// RebalanceDecision is one balancer planning pass's outcome. When Acted is
// false, Reason explains why the pass held off (priming, cooldown, balanced
// load, too few samples, ...).
type RebalanceDecision struct {
	Acted  bool
	Source string
	Target string
	Range  HashRange
	Reason string
}

func rebalanceDecisionFromWire(r wire.RebalanceResp) RebalanceDecision {
	return RebalanceDecision{
		Acted: r.Acted, Source: r.Source, Target: r.Target,
		Range:  HashRange{Start: r.RangeStart, End: r.RangeEnd},
		Reason: r.Reason,
	}
}

// BalancerStatus is a balancer-enabled server's control-plane snapshot.
type BalancerStatus struct {
	// Enabled is false when the queried server hosts no balancer.
	Enabled bool
	// Passes / Migrations count planning passes and triggered migrations.
	Passes     uint64
	Migrations uint64
	// Cooldown is the remaining hold-off after the last triggered
	// migration (0 = armed).
	Cooldown time.Duration
	// Last is the most recent planning decision.
	Last RebalanceDecision
	// Rates is the last pass's observed per-server load (ops/sec).
	Rates map[string]float64
	// InFlight is the cluster's current set of in-flight migrations with
	// their ranges and epochs. Every server reports it (it is metadata
	// state, not balancer state), even when Enabled is false.
	InFlight []MigrationState
	// DegradedFor is how long the server's metadata provider has been
	// answering from its cached snapshot because the metadata endpoint is
	// unreachable (zero when healthy, and always zero for servers using the
	// in-process store).
	DegradedFor time.Duration
}

func balancerStatusFromWire(r wire.BalanceStatusResp) BalancerStatus {
	st := BalancerStatus{
		Enabled:     r.Enabled,
		Passes:      r.Passes,
		Migrations:  r.Triggered,
		Cooldown:    time.Duration(r.CooldownMs) * time.Millisecond,
		Last:        rebalanceDecisionFromWire(r.Last),
		DegradedFor: time.Duration(r.DegradedMs) * time.Millisecond,
		InFlight:    r.InFlight,
	}
	if len(r.Rates) > 0 {
		st.Rates = make(map[string]float64, len(r.Rates))
		for _, sr := range r.Rates {
			st.Rates[sr.ID] = float64(sr.MilliOps) / 1000
		}
	}
	return st
}

// LogStats is a snapshot of a server's HybridLog geometry (§2.2): addresses
// grow monotonically; [BeginAddress, TailAddress) is the live span,
// [BeginAddress, HeadAddress) lives on storage, and DiskResidentBytes is the
// portion a compaction pass could reclaim from.
type LogStats struct {
	BeginAddress        uint64
	HeadAddress         uint64
	FlushedUntilAddress uint64
	TailAddress         uint64
	DiskResidentBytes   uint64
}

// CheckpointInfo describes a committed durable checkpoint.
type CheckpointInfo struct {
	// Version is the sealed CPR version.
	Version uint32
	// LogTail is the log prefix the image covers.
	LogTail uint64
}

// CompactionStats reports one log-compaction pass (§3.3.3).
type CompactionStats struct {
	Scanned   uint64 // records examined in the stable prefix
	Kept      uint64 // live records copied forward to the tail
	Dropped   uint64 // superseded versions, tombstones, indirection records
	Relocated uint64 // disowned records shipped to their current owner

	Begin          uint64 // log begin address after the pass
	ReclaimedBytes uint64 // local device bytes freed
	TierReclaimed  uint64 // shared-tier bytes freed

	// Took is the pass's wall-clock duration; zero when the pass was
	// observed over the wire (the RPC does not carry it).
	Took time.Duration
}

func compactionStatsFromCore(st core.CompactStats) CompactionStats {
	return CompactionStats{
		Scanned:   uint64(st.Scanned),
		Kept:      uint64(st.Kept),
		Dropped:   uint64(st.Dropped),
		Relocated: uint64(st.Relocated),

		Begin:          uint64(st.Begin),
		ReclaimedBytes: st.ReclaimedBytes,
		TierReclaimed:  st.TierReclaimed,

		Took: st.Took,
	}
}

func compactionStatsFromWire(r wire.CompactResp) CompactionStats {
	return CompactionStats{
		Scanned:   r.Scanned,
		Kept:      r.Kept,
		Dropped:   r.Dropped,
		Relocated: r.Relocated,

		Begin:          r.Begin,
		ReclaimedBytes: r.ReclaimedBytes,
		TierReclaimed:  r.TierReclaimed,
	}
}

// DrainResult reports a completed scale-in drain: how many ranges were
// migrated away and whether the server was retired from the metadata store.
type DrainResult struct {
	Moved   int
	Retired bool
}

// ClientStats aggregates a client's counters across its threads.
type ClientStats struct {
	OpsIssued       uint64
	OpsCompleted    uint64
	BatchesSent     uint64
	BatchesRejected uint64
	// BatchesShed counts batches servers turned away under overload; their
	// operations were requeued after a backoff pause.
	BatchesShed uint64
	Refreshes   uint64
}
