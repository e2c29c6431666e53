package shadowfax

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// Server is a running Shadowfax server node: partitioned dispatchers over a
// shared FASTER instance with view-validated batches (§3.1–3.2), plus the
// durability, space-management and migration subsystems behind them.
type Server struct {
	core     *core.Server
	ownedDev Device // log device created by default options; closed with the server
}

type serverConfig struct {
	cfg    core.ServerConfig
	ranges []HashRange
}

// ServerOption configures NewServer. Unset options fall back to small,
// functional defaults (two dispatcher threads, an in-memory log device, a
// 4 MiB memory budget); config evolution adds options, never breaks
// signatures.
type ServerOption func(*serverConfig)

// WithListenAddr sets the transport listen address. The default is the
// server id itself, which is what the in-process transport expects; TCP
// deployments pass a host:port here.
func WithListenAddr(addr string) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Addr = addr }
}

// WithThreads sets the number of dispatcher goroutines ("vCPUs", §3.1).
func WithThreads(n int) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Threads = n }
}

// WithOwnership sets the hash ranges the server initially owns. The default
// is the full hash space; pass it explicitly in multi-server deployments.
// Ignored when recovering (the checkpointed view wins).
func WithOwnership(ranges ...HashRange) ServerOption {
	return func(sc *serverConfig) { sc.ranges = ranges }
}

// WithIndexBuckets sets the store's main hash-bucket count (a power of two).
func WithIndexBuckets(n int) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Store.IndexBuckets = n }
}

// WithLogDevice installs the device backing the HybridLog's stable region.
// The default is a fresh in-memory device owned (and closed) by the server;
// a caller-provided device is the caller's to close — which is what lets it
// survive a Server.Close and back a recovered instance.
func WithLogDevice(dev Device) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Store.Log.Device = dev }
}

// WithMemoryBudget shapes the HybridLog's in-memory region: page size
// (1<<pageBits bytes), total in-memory page frames, and how many trailing
// frames allow in-place updates (§2.2). The default is 64 KiB pages, 64
// frames, 32 mutable.
func WithMemoryBudget(pageBits uint, memPages, mutablePages int) ServerOption {
	return func(sc *serverConfig) {
		sc.cfg.Store.Log.PageBits = pageBits
		sc.cfg.Store.Log.MemPages = memPages
		sc.cfg.Store.Log.MutablePages = mutablePages
	}
}

// WithReadHintBytes sizes the first device read of a pending (disk-resident)
// operation: records at most this large complete in a single I/O, longer
// ones read the remainder in one continuation that reuses the prefix. The
// default is 256; size it to the workload's typical record footprint.
func WithReadHintBytes(n int) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Store.ReadHintBytes = n }
}

// WithReadCache enables the second-chance read cache: records read from the
// device are (probabilistically, on their second touch) copied back into the
// mutable log region so subsequent reads hit memory. Worth it for skewed
// read-heavy workloads whose hot set outgrows the memory budget; off by
// default because the copies consume log space and flush bandwidth.
func WithReadCache(enabled bool) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Store.ReadCache = enabled }
}

// WithSharedTier mirrors every flushed page to the shared remote tier,
// enabling indirection records during migration (§3.3.2).
func WithSharedTier(tier *SharedTier) ServerOption {
	return func(sc *serverConfig) { sc.cfg.Store.Log.Tier = tier }
}

// WithCheckpointDevice enables durable checkpoints onto dev (§3.3.1 + CPR).
// Without it the server is memory-only and checkpoint requests fail.
func WithCheckpointDevice(dev Device) ServerOption {
	return func(sc *serverConfig) { sc.cfg.CheckpointDevice = dev }
}

// WithCheckpointEvery takes a checkpoint on this period (0 = on demand only).
func WithCheckpointEvery(d time.Duration) ServerOption {
	return func(sc *serverConfig) { sc.cfg.CheckpointEvery = d }
}

// WithRecovery rebuilds the server from the latest committed image on the
// checkpoint device instead of starting empty; the log device must be the
// same device the image was checkpointed against. Ownership passed via
// WithOwnership is ignored — the checkpointed view is restored.
func WithRecovery() ServerOption {
	return func(sc *serverConfig) { sc.cfg.Recover = true }
}

// WithCompaction starts the background space-management service (§3.3.3): a
// log-compaction pass runs whenever the stable prefix exceeds watermark
// bytes, checked every period.
func WithCompaction(every time.Duration, watermark uint64) ServerOption {
	return func(sc *serverConfig) {
		sc.cfg.CompactEvery = every
		sc.cfg.CompactWatermark = watermark
	}
}

// AutoScaleConfig tunes the hosted load balancer (WithAutoScale). Zero
// fields take the documented defaults.
type AutoScaleConfig struct {
	// Every is the planning-pass period (default 1s).
	Every time.Duration
	// Imbalance is the hottest/coolest ops-rate ratio that arms a split
	// (default 3.0).
	Imbalance float64
	// Cooldown is the hold-off after a triggered migration (default 10s).
	Cooldown time.Duration
	// MinOpsPerSec is the load floor below which the cluster is considered
	// idle and never split (default 500).
	MinOpsPerSec float64
	// MaxConcurrent caps how many migrations one planning pass may start
	// concurrently over disjoint hash ranges: the top-K hottest servers
	// each split toward a distinct cool server (default 4). Set 1 to
	// restore strictly serial migrations.
	MaxConcurrent int
	// SpawnStandby lets the balancer self-heal replication: when a promoted
	// primary is observed serving with no registered replica, the hook is
	// called (rate-limited per primary) to provision a fresh standby — e.g.
	// boot a NewServer(WithReplication(...)) for it. Runs on the balancer
	// goroutine; errors are retried on later passes. Nil disables healing.
	SpawnStandby func(primaryID string) error
}

// WithAutoScale hosts the elastic control plane's load balancer on this
// server. The balancer polls every registered server's stats, and when load
// is imbalanced past cfg.Imbalance it splits up to cfg.MaxConcurrent of the
// hottest servers' sampled hash distributions at their load medians and
// migrates the hot halves to the coolest servers in parallel — the paper's
// scale-out (§3.3), triggered automatically. One balancer host per
// deployment is the normal topology; additional hosts are safe (the
// metadata store rejects overlapping migration starts) but plan redundant
// passes. Inspect and drive it with Admin.BalanceStatus / Admin.Rebalance.
func WithAutoScale(cfg AutoScaleConfig) ServerOption {
	return func(sc *serverConfig) {
		sc.cfg.AutoScale = true
		b := &sc.cfg.Balancer
		b.Every = cfg.Every
		b.Imbalance = cfg.Imbalance
		b.Cooldown = cfg.Cooldown
		b.MinOpsPerSec = cfg.MinOpsPerSec
		b.MaxConcurrent = cfg.MaxConcurrent
		b.SpawnStandby = cfg.SpawnStandby
	}
}

// WithMaxConnBacklog bounds how many batches a single client connection may
// have parked on the replication ack gate before the server sheds new ones
// with a retryable overload status (default 256; n < 0 disables shedding).
// Shedding keeps a lagging backup or an unconfirmed detach from growing the
// held-response queue without limit while clients keep pipelining.
func WithMaxConnBacklog(n int) ServerOption {
	if n < 0 {
		n = -1
	}
	return func(sc *serverConfig) { sc.cfg.MaxConnBacklog = n }
}

// WithLeaseTTL sets the primary liveness lease period (default: the
// replication ack timeout). Once a server has accepted a replica it renews a
// metadata lease every TTL/3; while the lease is live a standby that merely
// lost its stream — a partition, not a primary death — cannot promote
// (the metadata store refuses with ErrPrimaryAlive). A clean Close releases
// the lease immediately, so ordinary failover pays no TTL latency.
func WithLeaseTTL(ttl time.Duration) ServerOption {
	return func(sc *serverConfig) { sc.cfg.LeaseTTL = ttl }
}

// WithSampleDuration sets how long the migration Sampling phase collects hot
// records before ownership transfer (§3.3).
func WithSampleDuration(d time.Duration) ServerOption {
	return func(sc *serverConfig) { sc.cfg.SampleDuration = d }
}

// ReplicationConfig tunes a hot standby (WithReplication). Zero durations
// take the documented defaults.
type ReplicationConfig struct {
	// ReplicaOf names the primary this server shadows. Required.
	ReplicaOf string
	// HeartbeatEvery is the primary's keepalive period on an idle
	// replication stream (default 100ms).
	HeartbeatEvery time.Duration
	// FailoverAfter is how long the standby tolerates stream silence before
	// probing the primary and, if it is dead, promoting itself (default 1s).
	FailoverAfter time.Duration
	// AckTimeout is how long the primary tolerates acknowledgment silence
	// before detaching the standby and releasing held responses (default 2s).
	AckTimeout time.Duration
}

// WithReplication boots this server as a hot standby for cfg.ReplicaOf: it
// adopts the primary's metadata identity, attaches over the cluster
// transport, receives the primary's sealed base state (a checkpoint-style
// version scan shipped as migration-record frames) followed by the live
// write stream, and acknowledges cumulatively — the primary reveals no
// response before the standby holds it. When the stream goes silent past
// cfg.FailoverAfter and the primary does not answer a direct probe, the
// standby promotes itself through the metadata store's single linearization
// point: the view is bumped, the address repoints here, clients replay their
// sessions through the §3.3.1 recovery path, and the deposed primary's
// eventual restart is refused. Until promotion the standby rejects client
// batches and registers nothing. Mutually exclusive with WithRecovery.
func WithReplication(cfg ReplicationConfig) ServerOption {
	return func(sc *serverConfig) {
		sc.cfg.ReplicaOf = cfg.ReplicaOf
		sc.cfg.ReplicaHeartbeatEvery = cfg.HeartbeatEvery
		sc.cfg.ReplicaFailoverAfter = cfg.FailoverAfter
		sc.cfg.ReplicaAckTimeout = cfg.AckTimeout
	}
}

// ScaleInConfig tunes the balancer's low-water drain policy (WithScaleIn).
// Zero fields take the documented defaults.
type ScaleInConfig struct {
	// BelowOpsPerSec is the ops/sec low-water mark; a server must stay
	// below it to be considered cold (default 50).
	BelowOpsPerSec float64
	// AfterPasses is how many consecutive cold planning passes arm a drain
	// (default 5).
	AfterPasses int
	// MinServers is the floor the cluster never drains below (default 2).
	MinServers int
}

// WithScaleIn enables scale-in on the hosted balancer (requires
// WithAutoScale): when a server's observed load stays below
// cfg.BelowOpsPerSec for cfg.AfterPasses consecutive planning passes and the
// cluster would keep at least cfg.MinServers servers, the balancer drains
// the cold server's ranges into the survivors via ordinary migrations and
// retires it from the metadata store. The balancer never drains itself, a
// busy server, or anything while migrations are in flight; a drain
// interrupted by a failure is retried safely (retiring twice is a no-op).
// Manual equivalent: Admin.Drain.
func WithScaleIn(cfg ScaleInConfig) ServerOption {
	return func(sc *serverConfig) {
		b := &sc.cfg.Balancer
		b.ScaleIn = true
		b.ScaleInBelowOps = cfg.BelowOpsPerSec
		b.ScaleInAfterPasses = cfg.AfterPasses
		b.MinServers = cfg.MinServers
	}
}

// NewServer boots a server named id on the cluster, registers its address in
// the metadata store, and starts its dispatchers. By default it owns the
// full hash space, listens on its own id over the cluster transport, and
// keeps its log on a private in-memory device.
func NewServer(cluster *Cluster, id string, opts ...ServerOption) (*Server, error) {
	sc := serverConfig{
		cfg: core.ServerConfig{
			ID: id, Addr: id, Threads: 2,
			Transport: cluster.tr, Meta: cluster.meta,
			Store: faster.Config{
				IndexBuckets: 1 << 14,
				Log: hlog.Config{
					PageBits: 16, MemPages: 64, MutablePages: 32, LogID: id,
				},
			},
		},
		ranges: []HashRange{FullRange},
	}
	for _, o := range opts {
		o(&sc)
	}
	var owned Device
	if sc.cfg.Store.Log.Device == nil {
		owned = storage.NewMemDevice(storage.LatencyModel{}, 4)
		sc.cfg.Store.Log.Device = owned
	}
	srv, err := core.NewServer(sc.cfg, sc.ranges...)
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, err
	}
	s := &Server{core: srv, ownedDev: owned}
	if sc.cfg.ReplicaOf != "" {
		// A standby adopts its primary's metadata identity; registering its
		// own address here would repoint the primary's entry at the standby
		// before promotion. The promotion path repoints it atomically.
		return s, nil
	}
	// A registered-but-unroutable server would break admin RPCs and the
	// balancer with no symptom at the server itself.
	if err := cluster.meta.SetServerAddr(id, srv.Addr()); err != nil {
		s.Close()
		return nil, fmt.Errorf("shadowfax: registering %s's address in the metadata store: %w", id, err)
	}
	return s, nil
}

// ID returns the server's identity in the metadata store.
func (s *Server) ID() string { return s.core.ID() }

// Addr returns the server's transport listen address.
func (s *Server) Addr() string { return s.core.Addr() }

// Close stops the dispatchers and background services and shuts the store
// down. Devices installed with WithLogDevice/WithCheckpointDevice survive
// (they may back a recovered instance); the default in-memory device is
// closed with the server.
func (s *Server) Close() error {
	err := s.core.Close()
	if s.ownedDev != nil {
		s.ownedDev.Close()
	}
	return err
}

// CurrentView returns the server's active ownership view.
func (s *Server) CurrentView() View { return s.core.CurrentView() }

// Stats returns a snapshot of the server's counters — the same shape
// Admin.Stats reports over the wire.
func (s *Server) Stats() ServerStats { return serverStatsFromWire(s.core.StatsSnapshot()) }

// LogStats returns a snapshot of the server's HybridLog geometry.
func (s *Server) LogStats() LogStats {
	lg := s.core.Store().Log()
	return LogStats{
		BeginAddress:        uint64(lg.BeginAddress()),
		HeadAddress:         uint64(lg.HeadAddress()),
		FlushedUntilAddress: uint64(lg.FlushedUntilAddress()),
		TailAddress:         uint64(lg.TailAddress()),
		DiskResidentBytes:   lg.DiskResidentBytes(),
	}
}

// Checkpoint takes a durable checkpoint now and returns once the image is
// committed. Requires WithCheckpointDevice; fails with ErrRejected
// otherwise. Remote equivalent: Admin.Checkpoint.
func (s *Server) Checkpoint() (CheckpointInfo, error) {
	res, err := s.core.Checkpoint()
	if err != nil {
		return CheckpointInfo{}, rejectionError(err)
	}
	return CheckpointInfo{Version: res.Info.Version, LogTail: uint64(res.Info.Tail)}, nil
}

// Compact runs one log-compaction pass now and returns its statistics.
// Remote equivalent: Admin.Compact.
func (s *Server) Compact() (CompactionStats, error) {
	st, err := s.core.Compact()
	if err != nil {
		return CompactionStats{}, rejectionError(err)
	}
	return compactionStatsFromCore(st), nil
}

// LastCompaction returns the most recent completed pass's statistics.
func (s *Server) LastCompaction() CompactionStats {
	return compactionStatsFromCore(s.core.LastCompaction())
}

// StartMigration begins migrating [rng.Start, rng.End) to the server named
// target with the five-phase protocol (§3.3) and returns once the migration
// is registered; it proceeds in the background while both servers keep
// serving. Remote equivalent: Admin.Migrate.
func (s *Server) StartMigration(target string, rng HashRange) error {
	_, err := s.core.StartMigration(target, rng)
	return err
}

// LastMigrationReport returns the most recent source-side migration report.
func (s *Server) LastMigrationReport() MigrationReport {
	return s.core.LastMigrationReport()
}

// Drain migrates every range this server owns to the surviving servers via
// ordinary migrations and retires the server from the metadata store
// (scale-in). The server keeps serving until each range's ownership
// transfers. Refused on a standby, while a replica is attached, or when the
// drain would leave a range unowned (no other server registered). A drain
// interrupted by a failure may be retried: it re-plans from the current view
// and retiring twice is a no-op. Close the server afterwards. Remote
// equivalent: Admin.Drain.
func (s *Server) Drain() (DrainResult, error) {
	rep, err := s.core.Drain()
	if err != nil {
		return DrainResult{}, rejectionError(err)
	}
	return DrainResult{Moved: rep.Moved, Retired: rep.Retired}, nil
}

// IsStandby reports whether the server is an unpromoted hot standby
// (WithReplication): mirroring its primary and rejecting client batches.
// It turns false at promotion.
func (s *Server) IsStandby() bool { return s.core.IsStandby() }

// Replicating reports whether a synced-or-syncing backup is currently
// attached to this primary.
func (s *Server) Replicating() bool { return s.core.Replicating() }
