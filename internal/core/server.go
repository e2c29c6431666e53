// Package core implements the Shadowfax server (§3): partitioned dispatch
// over a shared FASTER instance, O(1)-per-batch view validation, ownership
// transfer over asynchronous global cuts, and the five-phase low-coordination
// migration protocol with sampled hot records and indirection records.
//
// Each server runs one dispatcher goroutine per configured "vCPU". A
// dispatcher owns a private FASTER session and a private set of client
// connections; it polls its connections for request batches, validates each
// batch with a single view-number comparison, executes the operations
// directly against the shared store, and replies on the same connection.
// Nothing is ever handed to another thread (Figure 4).
package core

//lint:file-ignore SA2001 Server.Close drains in-flight checkpoint/compaction passes with a deliberate Lock();Unlock() handshake — the empty critical section is the point.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/faster"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ServerConfig describes a Shadowfax server.
type ServerConfig struct {
	// ID is the server's name in the metadata store.
	ID string
	// Addr is the transport address to listen on.
	Addr string
	// Threads is the number of dispatcher goroutines ("vCPUs").
	Threads int
	// Transport carries sessions: in-process channels or real TCP.
	Transport transport.Transport
	// Meta is the external metadata provider (ZooKeeper stand-in): the
	// in-process store, or a remote provider against a designated metadata
	// endpoint for multi-process deployments.
	Meta metadata.Provider
	// Store configures the server's FASTER instance.
	Store faster.Config

	// Durability (checkpoint/recovery subsystem).

	// CheckpointDevice, when set, holds the server's checkpoint images
	// (ownership view + client session table + FASTER CPR image). Without
	// it the server runs memory-only: Checkpoint returns
	// ErrNoCheckpointDevice and MsgCheckpoint admin requests fail.
	CheckpointDevice storage.Device
	// CheckpointEvery takes a checkpoint on this period (0 = on demand
	// only, via Server.Checkpoint or the MsgCheckpoint admin message).
	CheckpointEvery time.Duration
	// Recover rebuilds the server from the latest committed image on
	// CheckpointDevice instead of starting empty. Store.Log.Device must be
	// the same device (or a copy of it) the image was checkpointed against.
	// The server's ownership view is restored into Meta and its client
	// session table is reinstated for session recovery.
	Recover bool

	// Space management (log-compaction subsystem, §3.3.3).

	// CompactEvery is the background compaction service's polling period
	// (0 = no service; passes run on demand via Server.Compact or the
	// MsgCompact admin message).
	CompactEvery time.Duration
	// CompactWatermark is the stable-prefix byte threshold ([BeginAddress,
	// SafeHead) — the span a pass can actually scan) above which the service
	// considers a pass; defaults to 64 MiB when CompactEvery is set.
	CompactWatermark uint64

	// Elastic control plane (automatic scale-out, the balancer in
	// internal/ctlplane).

	// AutoScale hosts the load-aware balancer on this server: it polls
	// every server's stats, and when the hottest server's ops/sec exceeds
	// the coolest's by Balancer.Imbalance it splits the hot server's
	// sampled hash distribution at the load median and drives the ordinary
	// Migrate() RPC — no operator involved. One server per deployment
	// should host it.
	AutoScale bool
	// Balancer is the hosted balancer's policy: split thresholds, the
	// scale-in low-water drain and the SpawnStandby healing hook. The server
	// fills in Self, Meta and Transport; zero fields take
	// ctlplane.BalancerConfig's defaults, the one home of balancer tuning.
	Balancer ctlplane.BalancerConfig

	// Primary→backup replication (replication.go).

	// ReplicaOf boots this server as a hot standby for the named primary: it
	// adopts the primary's metadata identity, attaches to it, mirrors its
	// state (base sync + live batch stream), and promotes itself when the
	// primary stops answering. A standby registers nothing in the metadata
	// store and rejects client batches until promotion. Mutually exclusive
	// with Recover.
	ReplicaOf string
	// ReplicaHeartbeatEvery is the primary's keepalive period on an idle
	// replication stream (default 100ms). The backup requests it at attach.
	ReplicaHeartbeatEvery time.Duration
	// ReplicaFailoverAfter is how long the backup tolerates stream silence
	// before probing the primary and, if it is dead, promoting (default 1s).
	ReplicaFailoverAfter time.Duration
	// ReplicaAckTimeout is how long the primary tolerates ack silence before
	// detaching the backup and releasing held responses (default 2s).
	ReplicaAckTimeout time.Duration
	// LeaseTTL is the primary liveness lease period (default =
	// ReplicaAckTimeout). Once a server has accepted a replica it renews a
	// metadata lease every TTL/3; while the lease is live PromoteReplica is
	// fenced (ErrPrimaryAlive), so a standby partitioned from its primary —
	// but not from metadata — cannot seize ownership from a healthy primary.
	// A clean Close releases the lease immediately.
	LeaseTTL time.Duration

	// Overload shedding (admission control).

	// MaxConnBacklog bounds how many response-held batches a single client
	// connection may have parked on the replication ack gate. Past the bound
	// new batches from that connection are shed with a retryable status
	// instead of growing the held queue without limit while the backup lags
	// (or a detach awaits confirmation). 0 disables shedding (default 256).
	MaxConnBacklog int

	// Migration tuning.

	// SampleDuration is how long the Sampling phase lets accesses
	// accumulate hot records before ownership transfer.
	SampleDuration time.Duration
}

func (c *ServerConfig) applyDefaults() error {
	if c.ID == "" || c.Addr == "" {
		return errors.New("core: server ID and Addr required")
	}
	if c.Transport == nil || c.Meta == nil {
		return errors.New("core: Transport and Meta required")
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.SampleDuration == 0 {
		c.SampleDuration = 50 * time.Millisecond
	}
	if c.CompactEvery > 0 && c.CompactWatermark == 0 {
		c.CompactWatermark = 64 << 20
	}
	if c.ReplicaOf != "" && c.Recover {
		return errors.New("core: ReplicaOf and Recover are mutually exclusive (a standby re-syncs from its primary)")
	}
	if c.ReplicaHeartbeatEvery <= 0 {
		c.ReplicaHeartbeatEvery = 100 * time.Millisecond
	}
	if c.ReplicaFailoverAfter <= 0 {
		c.ReplicaFailoverAfter = time.Second
	}
	if c.ReplicaAckTimeout <= 0 {
		c.ReplicaAckTimeout = 2 * time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = c.ReplicaAckTimeout
	}
	if c.MaxConnBacklog == 0 {
		c.MaxConnBacklog = 256
	}
	return nil
}

// cachePad separates hot atomic counters onto their own cache lines so
// per-op updates from different dispatcher cores do not false-share.
type cachePad [56]byte

// ServerStats exposes the counters the benchmark harness samples. The
// dispatcher-written hot counters are cache-line padded apart from each
// other and from the background-subsystem counters.
type ServerStats struct {
	// OpsCompleted counts client operations answered (including those that
	// completed after pending I/O).
	OpsCompleted atomic.Uint64
	_            cachePad
	// BatchesAccepted / BatchesRejected count view validation outcomes;
	// BatchesShed counts batches refused by admission control (per-conn
	// held-response backlog over MaxConnBacklog).
	BatchesAccepted atomic.Uint64
	BatchesRejected atomic.Uint64
	BatchesShed     atomic.Uint64
	_               cachePad
	// DecodeErrors counts inbound frames dropped because they failed to
	// decode (corrupt, truncated, or hostile); without this counter such
	// drops are invisible to operators.
	DecodeErrors atomic.Uint64
	_            cachePad
	// PendingOps is the target-side pending set (Figure 12).
	PendingOps atomic.Int64
	_          cachePad
	// RemoteFetches counts indirection resolutions from the shared tier.
	RemoteFetches atomic.Uint64
	// ViewRefreshes counts metadata refreshes.
	ViewRefreshes atomic.Uint64
	// Checkpoints / CheckpointFailures count durable checkpoint outcomes.
	Checkpoints        atomic.Uint64
	CheckpointFailures atomic.Uint64
	// Compactions / CompactionFailures count compaction pass outcomes;
	// CompactRelocated counts disowned records shipped to their current
	// owner and CompactReclaimedBytes the storage (device + shared tier)
	// freed by post-pass truncation.
	Compactions           atomic.Uint64
	CompactionFailures    atomic.Uint64
	CompactRelocated      atomic.Uint64
	CompactReclaimedBytes atomic.Uint64
}

// Server is a Shadowfax server node.
type Server struct {
	cfg   ServerConfig
	store *faster.Store
	meta  metadata.Provider

	view atomic.Pointer[metadata.View]

	listener transport.Listener
	threads  []*dispatcher
	stopping atomic.Bool
	wg       sync.WaitGroup

	// migMu guards the migration registries below. Dispatchers take it on
	// every batch (refreshView) and must never wait on a provider call or
	// I/O under it — holders only read/update the in-memory maps, so it is
	// safe inside an epoch section.
	//
	//shadowfax:epochsafe
	migMu  sync.Mutex
	source *sourceMigration
	// targets holds the inbound migrations by migration id: a server may be
	// the target of several concurrent disjoint-range migrations at once.
	targets map[uint64]*targetMigration
	// targetsRetired remembers inbound migrations this server already
	// finished (or observed cancelled/collected), so a stale metadata
	// snapshot or a duplicate control frame can never resurrect one.
	// Re-creating a finished inbound migration would lay a fresh ownership
	// fence at the *current* log tail — on top of the live records the
	// migration delivered — silently killing them. One uint64 per inbound
	// migration ever targeted at this server; never pruned (a stale
	// PendingMigrationsFor snapshot may resurface an id long after it was
	// collected).
	targetsRetired map[uint64]struct{}
	lastReport     MigrationReport
	// compactPass (under migMu) marks an in-flight compaction pass;
	// StartMigration refuses while it is set (see Server.Compact).
	compactPass bool

	// fetchMu dedups in-flight shared-tier fetches by key. Held only to
	// check/insert a map entry; the fetch itself runs in a spawned
	// goroutine outside the lock, so epoch-protected probes may take it.
	//
	//shadowfax:epochsafe
	fetchMu  sync.Mutex
	fetching map[string]struct{}

	// fetchAux is the store session of the migration slow paths (shared-tier
	// installs, the sampled-record scan).
	fetchAux auxSession

	// Durability state (see checkpoint.go).
	images  *storage.ImageStore
	sessTab *sessionTable
	ckptMu  sync.Mutex    // serializes checkpoint image writes
	bgQuit  chan struct{} // stops the checkpoint and compaction loops

	// Elastic control plane: the hosted balancer (nil unless AutoScale).
	// Atomic: a promoted standby starts it long after boot, racing readers.
	balancer atomic.Pointer[ctlplane.Balancer]

	// Replication state (see replication.go). repl is the primary-side
	// attached backup; standby marks an unpromoted backup; bgStarted gates
	// the background loops a standby defers until promotion.
	repl      atomic.Pointer[replState]
	standby   atomic.Bool
	bgStarted atomic.Bool
	// deposed marks an incarnation whose backup promoted while it was still
	// running (set when the lease fence reports ErrDeposed). A deposed server
	// stops adopting views and rejects every batch — it must not serve state
	// the promoted replica now owns. leaseOnce starts the lease renewal loop
	// on the first replica attach.
	deposed   atomic.Bool
	leaseOnce sync.Once

	// Space-management state (see compaction.go).
	compactMu      sync.Mutex    // serializes compaction passes
	compactAux     auxSession    // exclusive to the running pass, as Session.Compact requires
	committedBegin atomic.Uint64 // begin address of the latest committed image
	prevPassBegin  atomic.Uint64 // begin after the previous pass (reclaim grace)
	liveFrac       atomic.Uint64 // last pass's live fraction, per-mille
	lastPassDisk   atomic.Uint64 // scannable stable-prefix bytes after that pass
	lastCompactMu  sync.Mutex
	lastCompact    CompactStats

	stats ServerStats
}

// auxSession is a store session for a background task, parked between uses:
// an idle registered epoch guard would stall every global cut (view changes,
// flushes, checkpoints) forever.
type auxSession struct {
	mu   sync.Mutex // serializes the session's users
	sess *faster.Session
}

// acquire locks the session, creating it on first use, and resumes its guard.
// It adopts the current CPR version: the session sits suspended across
// checkpoints, and its appends must not carry a stale stamp.
func (a *auxSession) acquire(st *faster.Store) *faster.Session {
	a.mu.Lock()
	if a.sess == nil {
		a.sess = st.NewSession()
	} else {
		a.sess.Guard().Resume()
	}
	a.sess.Refresh()
	return a.sess
}

// release finishes the session's pending I/O and parks it again.
func (a *auxSession) release() {
	a.sess.CompletePending(true)
	a.sess.Guard().Suspend()
	a.mu.Unlock()
}

// NewServer builds a Shadowfax server, registers it in the metadata store
// with the given initial ranges, and starts its dispatchers.
//
// With cfg.Recover set the server instead rebuilds itself from the latest
// checkpoint image on cfg.CheckpointDevice: the FASTER store is recovered
// against the (surviving) log device, the checkpointed ownership view is
// restored into the metadata store, and the client session table is
// reinstated so reconnecting clients can replay past their durable prefix
// (client-assisted recovery, §3.3.1). initial ranges are ignored on recovery.
func NewServer(cfg ServerConfig, initial ...metadata.HashRange) (*Server, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.Store.Log.LogID == "" {
		cfg.Store.Log.LogID = cfg.ID
	}

	var images *storage.ImageStore
	if cfg.CheckpointDevice != nil {
		var err error
		if images, err = storage.OpenImageStore(cfg.CheckpointDevice); err != nil {
			return nil, err
		}
	}

	s := &Server{
		cfg:      cfg,
		meta:     cfg.Meta,
		fetching: make(map[string]struct{}),
		images:   images,
		sessTab:  newSessionTable(cfg.Threads),
		bgQuit:   make(chan struct{}),
	}

	if cfg.Recover {
		if images == nil {
			return nil, ErrNoCheckpointDevice
		}
		img, _, err := images.Latest()
		if err != nil {
			return nil, fmt.Errorf("core: recovering %s: %w", cfg.ID, err)
		}
		view, sessions, fences, err := readServerSection(img)
		if err != nil {
			return nil, err
		}
		st, err := faster.Recover(cfg.Store, img)
		if err != nil {
			return nil, fmt.Errorf("core: recovering %s: %w", cfg.ID, err)
		}
		st.RestoreFences(fences)
		s.store = st
		s.sessTab.restore(sessions, st.CurrentVersion()-1)
		// The recovered image's begin address is the reclaim clamp until the
		// next checkpoint commits (recovery needs every byte above it); it
		// also seeds the reclaim grace point — bytes below it are gone.
		s.committedBegin.Store(uint64(st.Log().BeginAddress()))
		s.prevPassBegin.Store(uint64(st.Log().BeginAddress()))
		v, err := cfg.Meta.RestoreServer(cfg.ID, view)
		if err != nil {
			// ErrDeposed: a promoted (or promotable) replica superseded this
			// incarnation — the restarted primary must not serve.
			s.store.Close()
			return nil, fmt.Errorf("core: %s: restore refused: %w", cfg.ID, err)
		}
		s.view.Store(&v)
	} else if cfg.ReplicaOf != "" {
		if images != nil && images.Generation() > 0 {
			return nil, fmt.Errorf("core: %s: checkpoint device holds committed image (generation %d); "+
				"a standby re-syncs from its primary and needs clean devices", cfg.ID, images.Generation())
		}
		st, err := faster.NewStore(cfg.Store)
		if err != nil {
			return nil, err
		}
		s.store = st
		// A standby adopts the primary's metadata identity: on promotion it
		// answers GetView/ServerAddr/session-recovery lookups for that id.
		// (The original cfg.ID still names the standby's own log devices —
		// LogID was derived above, before the override.)
		s.cfg.ID = cfg.ReplicaOf
		s.standby.Store(true)
		v := metadata.View{}
		s.view.Store(&v)
	} else {
		if images != nil && images.Generation() > 0 {
			// Starting fresh would append the new log over the one the
			// committed image still references — a crash before the first
			// new checkpoint would then "recover" garbage. Make the
			// operator choose explicitly.
			return nil, fmt.Errorf("core: %s: checkpoint device holds committed image (generation %d); "+
				"recover from it or point at clean devices", cfg.ID, images.Generation())
		}
		st, err := faster.NewStore(cfg.Store)
		if err != nil {
			return nil, err
		}
		s.store = st
		v, err := cfg.Meta.RegisterServer(cfg.ID, initial...)
		if err != nil {
			// Fail startup rather than run unregistered.
			s.store.Close()
			return nil, fmt.Errorf("core: %s: registration failed: %w", cfg.ID, err)
		}
		s.view.Store(&v)
	}

	l, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		s.store.Close()
		return nil, err
	}
	s.listener = l

	s.threads = make([]*dispatcher, cfg.Threads)
	for i := range s.threads {
		s.threads[i] = newDispatcher(s, i)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	for _, d := range s.threads {
		s.wg.Add(1)
		go d.run()
	}
	if cfg.ReplicaOf != "" {
		// A standby defers the background services (checkpoints, compaction,
		// the balancer) until promotion; its one job is mirroring the
		// primary.
		s.wg.Add(1)
		go s.replicaLoop()
	} else {
		s.startBackground()
	}
	return s, nil
}

// startBackground starts the periodic services (checkpoints, compaction, the
// hosted balancer). Called at boot for ordinary servers and at promotion for
// standbys; idempotent.
func (s *Server) startBackground() {
	if s.stopping.Load() || s.bgStarted.Swap(true) {
		return
	}
	cfg := &s.cfg
	if cfg.CheckpointEvery > 0 && s.images != nil {
		s.wg.Add(1)
		go s.checkpointLoop(cfg.CheckpointEvery)
	}
	if cfg.CompactEvery > 0 {
		s.wg.Add(1)
		go s.compactLoop(cfg.CompactEvery, cfg.CompactWatermark)
	}
	if cfg.AutoScale {
		bc := cfg.Balancer
		bc.Self, bc.Meta, bc.Transport = cfg.ID, cfg.Meta, cfg.Transport
		b := ctlplane.NewBalancer(bc)
		s.balancer.Store(b)
		b.Run()
		if s.stopping.Load() {
			// Close may have raced past its balancer check before the Store
			// above; Stop is idempotent, so stop it from here too.
			b.Stop()
		}
	}
}

// Stats returns the server's counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// StatsSnapshot captures the server's identity, current ownership view and
// counters as one wire-level value. It backs both the MsgStats admin RPC and
// the public API's Server.Stats, so in-process and remote observers see the
// same shape.
func (s *Server) StatsSnapshot() wire.StatsResp {
	view := s.view.Load()
	resp := wire.StatsResp{
		ServerID:   s.cfg.ID,
		ViewNumber: view.Number,
		Ranges:     view.Ranges,

		OpsCompleted:    s.stats.OpsCompleted.Load(),
		BatchesAccepted: s.stats.BatchesAccepted.Load(),
		BatchesRejected: s.stats.BatchesRejected.Load(),
		BatchesShed:     s.stats.BatchesShed.Load(),
		DecodeErrors:    s.stats.DecodeErrors.Load(),
		PendingOps:      s.stats.PendingOps.Load(),
		RemoteFetches:   s.stats.RemoteFetches.Load(),
		ViewRefreshes:   s.stats.ViewRefreshes.Load(),

		Checkpoints:        s.stats.Checkpoints.Load(),
		CheckpointFailures: s.stats.CheckpointFailures.Load(),

		Compactions:           s.stats.Compactions.Load(),
		CompactionFailures:    s.stats.CompactionFailures.Load(),
		CompactRelocated:      s.stats.CompactRelocated.Load(),
		CompactReclaimedBytes: s.stats.CompactReclaimedBytes.Load(),

		StorePendingReads: s.store.Stats().PendingIssued.Load(),
		PendingCoalesced:  s.store.Stats().PendingCoalesced.Load(),
		ReadCacheHits:     s.store.Stats().ReadCacheHits.Load(),
		ReadCacheCopies:   s.store.Stats().ReadCacheCopies.Load(),
		DeviceBatchReads:  s.store.Stats().DeviceBatchReads.Load(),

		LogBytes:   uint64(s.store.Log().TailAddress()) - uint64(s.store.Log().BeginAddress()),
		HashSample: s.sampleLoad(1024),
	}
	if b := s.balancer.Load(); b != nil {
		resp.BalancePasses = b.Passes()
		resp.BalanceMigrations = b.Triggered()
	}
	return resp
}

// handleStatsReq serves the MsgStats admin message.
func (s *Server) handleStatsReq(c transport.Conn) {
	c.Send(wire.EncodeStatsResp(s.StatsSnapshot())) //nolint:errcheck // conn errors surface on the next poll
}

// Store exposes the underlying FASTER instance (examples embed servers).
func (s *Server) Store() *faster.Store { return s.store }

// ID returns the server's metadata identity.
func (s *Server) ID() string { return s.cfg.ID }

// Addr returns the listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// CurrentView returns the server's active ownership view.
func (s *Server) CurrentView() metadata.View { return s.view.Load().Clone() }

// Close stops dispatchers and shuts the store down.
func (s *Server) Close() error {
	if s.stopping.Swap(true) {
		return nil
	}
	if b := s.balancer.Load(); b != nil {
		// Stop planning (and its RPCs against this very server) before the
		// listener goes away.
		b.Stop()
	}
	close(s.bgQuit)
	s.listener.Close()
	s.wg.Wait()
	// Wait out any in-flight admin-triggered checkpoint or compaction pass
	// before closing the store they serialize against.
	s.ckptMu.Lock()
	s.ckptMu.Unlock() // empty critical section is the point (see the SA2001 file-ignore)
	s.compactMu.Lock()
	s.compactMu.Unlock() // empty critical section is the point (see the SA2001 file-ignore)
	return s.store.Close()
}

// acceptLoop distributes inbound connections round-robin across dispatcher
// threads, so every client session is pinned to one server thread (§3.1).
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	next := 0
	for {
		c, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.threads[next%len(s.threads)].newConns <- c
		next++
	}
}

// refreshView reloads the server's view from the metadata store; it also
// discovers migrations this server is the target of (§3.3: "servers observe
// this view change when they refresh their local caches").
//
// While this server is the *source* of a migration that has not reached the
// Transfer phase, the new view is deliberately not adopted: the source keeps
// servicing requests in the old ownership view until the transfer cut
// (§3.3 Sampling: "both the source and the target continue to temporarily
// operate in the old ownership view").
func (s *Server) refreshView() metadata.View {
	if s.standby.Load() {
		// A standby's metadata identity is its primary's: refreshing would
		// adopt the *primary's* live view and start accepting its batches.
		return s.view.Load().Clone()
	}
	if s.deposed.Load() {
		// A promoted replica owns this identity now; its views are not ours
		// to adopt (and every batch is rejected anyway).
		return s.view.Load().Clone()
	}
	snap, err := s.meta.Snapshot()
	if err != nil {
		return s.view.Load().Clone()
	}
	v, err := snap.GetView(s.cfg.ID)
	if err != nil {
		return s.view.Load().Clone()
	}
	s.stats.ViewRefreshes.Add(1)
	// Discover inbound migrations — creating their state and laying their
	// ownership fences — strictly BEFORE adopting the new view, and from the
	// SAME snapshot the view came from. StartMigration registers the
	// migration record and the view change at one linearization point, so a
	// snapshot whose view grants this server a new range also holds the
	// pending migration for it. Adopting the view first would open a window
	// where another dispatcher accepts a batch under the new view with no
	// covering migration state: a miss in the new range would read as
	// authoritative NotFound (an RMW would ack a fresh initial value), and
	// the fence laid moments later — at a tail above that write — would
	// kill it.
	s.discoverTargetMigration(snap)
	if sm := s.sourceState(); sm == nil || migPhase(sm.phase.Load()) >= phaseTransfer {
		if v.Number > s.view.Load().Number {
			s.view.Store(&v) // the snapshot's ranges are immutable; no copy
		}
	}
	return v
}

// dispatcher is one server thread (§3.1): a pinned loop with a private
// FASTER session and private connections.
//
// The normal-operation path is allocation-free: per-op state for operations
// that leave the inline path lives in a pooled slot array (ops/freeOps, see
// srvOp), inline read values are copied into a per-batch arena (valArena),
// and every request/response buffer is reused.
type dispatcher struct {
	s        *Server
	idx      int
	sess     *faster.Session
	newConns chan transport.Conn
	conns    []transport.Conn

	reqBatch wire.RequestBatch
	respBuf  []byte
	results  []wire.Result
	// assembling is true while the dispatcher builds a batch response;
	// completions arriving outside that window are deferred.
	assembling bool

	// valArena backs inline read results until they are serialized into
	// the response frame; reset at the start of every batch. Growth keeps
	// earlier slices valid (they alias the previous backing array, which is
	// never written again), so a plain append arena suffices.
	valArena []byte

	// ops is the pooled per-op state of every client Read/RMW in flight;
	// freeOps holds the recycled slot indices and waiting the tokens parked
	// on a migration or a shared-tier fetch (§3.3; each dispatcher retries
	// its own, keeping everything thread-local). The slot index is the
	// completion token handed to the store session. Life cycle: see srvOp.
	ops     []srvOp
	freeOps []uint32
	waiting []uint32

	// dirty tracks the coalescing conns (transport.BatchedSender) that
	// buffered frames this poll iteration; only these are flushed, so idle
	// conns cost nothing on the flush sweep.
	dirty []transport.BatchedSender

	// deferred collects results that completed after their batch was
	// answered (pending I/O, migration pends); flushed each loop.
	deferred map[transport.Conn][]wire.Result

	// tmSnap is the reused per-batch snapshot of inbound migrations, so the
	// hot path never allocates to consult them.
	tmSnap []*targetMigration

	// Outbound migration state (see migrationBatch). migOut and migConn are
	// set up per migration (migConnID says which — ids start at 1).
	// migAckID and migDoneID record which migration this dispatcher already
	// crossed the transfer boundary for (ackTransfer) and finished
	// collecting for, so a later outbound migration starts with a clean
	// slate instead of inheriting a stale flag.
	migOut    recordBatch
	migConn   transport.Conn
	migConnID uint64
	migAckID  uint64
	migDoneID uint64

	// Load accounting: a ring of sampled op hashes (see ctlplane.go).
	// loadN is dispatcher-private; the ring slots are read by the balancer.
	loadN    uint64
	loadRing [loadRingSlots]atomic.Uint64

	// Replication (see replication.go): rs/fwd snapshot the attached backup
	// once per poll iteration (fwd is true once this dispatcher's session
	// crossed the replication cut — its write batches stream live); held
	// parks serialized responses until the backup's cumulative ack covers
	// them.
	rs   *replState
	fwd  bool
	held []heldResp
	// heldPerConn counts parked responses per client connection; admission
	// control sheds new batches from a connection past MaxConnBacklog.
	heldPerConn map[transport.Conn]int
}

// srvOp is the dispatcher-side state of one client Read or RMW, from the
// claim in execOp until its result is emitted — the only place such an
// operation lives when it cannot finish inline. Slots are pooled and their
// buffers reused, so parking an operation allocates nothing at steady state.
//
// A slot is in exactly one of four states:
//
//   - free: its index is on freeOps.
//   - running: the dispatcher is inside startOp/stepOp for it, because
//     execOp just claimed it, targetMigrationStep took it off the wait list,
//     or the session's CompletionHandler delivered it. Only here may
//     key/input still alias the batch frame.
//   - stored: the store answered StatusPending and holds the slot's token
//     until its I/O finishes; only the CompletionHandler moves it on.
//   - waiting: its token is on dispatcher.waiting, counted in
//     Stats().PendingOps: ownership of its range has not transferred yet,
//     its record has not arrived, or a shared-tier fetch is in flight. Only
//     targetMigrationStep moves it on.
//
// startOp issues the slot's store operation and stepOp alone decides, from
// the status that comes back, which state follows running. A slot is never
// in two states, so nothing can run an operation a second time while an
// earlier issue of it is still in the store. Refer to slots by token: claimOp
// may grow the pool, so never hold a *srvOp across a claim.
type srvOp struct {
	c    transport.Conn
	seq  uint32
	kind wire.OpKind
	hash uint64
	// inMig: the current store op was issued while an inbound migration
	// covered hash, so a miss is not authoritative. probe: that store op is
	// the presence Read of an RMW, not the RMW itself.
	inMig, probe bool
	// key/input alias the batch frame until the op first parks (owned), then
	// keyBuf/inputBuf — the inline path never copies them.
	owned            bool
	key, input       []byte
	keyBuf, inputBuf []byte
}

func newDispatcher(s *Server, idx int) *dispatcher {
	d := &dispatcher{
		s:        s,
		idx:      idx,
		sess:     s.store.NewSession(),
		newConns: make(chan transport.Conn, 64),
		deferred: make(map[transport.Conn][]wire.Result),
	}
	// One handler closure per dispatcher, for the lifetime of the session —
	// the per-op completion state travels as a pooled-slot token instead.
	// Completions run on the dispatcher goroutine inside CompletePending,
	// after the issuing batch was answered, so their results are deferred.
	d.sess.SetCompletionHandler(d.stepOp)
	// The dispatcher refreshes once per loop iteration (a batch boundary);
	// mid-batch guard crossings would let a replication/checkpoint cut
	// drain while this session still stamps the sealed version, racing the
	// base scan against its appends and session-table advances.
	d.sess.SetManualRefresh(true)
	return d
}

// claimOp takes a free slot for op (hash h) and returns its token.
func (d *dispatcher) claimOp(c transport.Conn, op *wire.Op, h uint64) uint64 {
	var idx uint32
	if n := len(d.freeOps); n > 0 {
		idx = d.freeOps[n-1]
		d.freeOps = d.freeOps[:n-1]
	} else {
		d.ops = append(d.ops, srvOp{})
		idx = uint32(len(d.ops) - 1)
	}
	so := &d.ops[idx]
	so.c, so.seq, so.kind, so.hash = c, op.Seq, op.Kind, h
	so.key, so.input, so.owned = op.Key, op.Value, false
	return uint64(idx)
}

// captureOp moves the slot's key and input off the batch frame into its
// reused buffers; called while the frame is still live, the first time the
// op leaves the running state without finishing.
func (so *srvOp) captureOp() {
	if so.owned {
		return
	}
	so.keyBuf = append(so.keyBuf[:0], so.key...)
	so.inputBuf = append(so.inputBuf[:0], so.input...)
	so.key, so.input, so.owned = so.keyBuf, so.inputBuf, true
}

// srvOpBufKeep is the largest key/input capacity a recycled slot retains
// (one op with a huge payload should not pin its footprint in the pool for
// the server's lifetime).
const srvOpBufKeep = 8 << 10

func (d *dispatcher) releaseOp(tok uint64) {
	so := &d.ops[tok]
	so.c, so.key, so.input = nil, nil, nil
	if cap(so.keyBuf) > srvOpBufKeep {
		so.keyBuf = nil
	}
	if cap(so.inputBuf) > srvOpBufKeep {
		so.inputBuf = nil
	}
	d.freeOps = append(d.freeOps, uint32(tok))
}

// waitOp puts a running slot on the wait list.
func (d *dispatcher) waitOp(tok uint64) {
	d.ops[tok].captureOp()
	d.waiting = append(d.waiting, uint32(tok))
	d.s.stats.PendingOps.Add(1)
}

// startOp issues a running slot's store operation — the first time from
// execOp, every retry from targetMigrationStep — and hands the outcome to
// stepOp. Reads and RMWs can observe not-yet-migrated state during an
// inbound migration (§3.3): before ownership transfer they wait outright;
// after it a miss in the migrating range waits until the record arrives, so
// an RMW there probes for presence first — blindly applying the initial
// value would race the record still in flight from the source. In-flight
// ranges are disjoint, so at most one migration in d.tmSnap covers the hash.
func (d *dispatcher) startOp(tok uint64) {
	so := &d.ops[tok]
	tm := coveringTarget(d.tmSnap, so.hash)
	if tm != nil && !tm.serving.Load() {
		d.waitOp(tok)
		return
	}
	so.inMig = tm != nil
	so.probe = so.inMig && so.kind == wire.OpRMW
	var st faster.Status
	var v []byte
	if so.kind == wire.OpRMW && !so.probe {
		st, v = d.sess.RMWHash(so.key, so.input, so.hash, tok)
	} else {
		st, v = d.sess.ReadHash(so.key, so.hash, tok)
	}
	d.stepOp(tok, st, v)
}

// stepOp decides a running slot's next state (see srvOp) from the status the
// store reported for its current store operation: inline, from startOp, or
// once its storage I/O finished, as the session's CompletionHandler.
func (d *dispatcher) stepOp(tok uint64, st faster.Status, v []byte) {
	so := &d.ops[tok]
	switch st {
	case faster.StatusPending:
		// Stored: the completion re-enters here.
		so.captureOp()
		return
	case faster.StatusIndirection:
		// The key's chain continues in another server's shared-tier log
		// (§3.3.2): fetch asynchronously and wait for the record to land.
		d.s.fetchFromSharedTier(so.key, v)
		d.waitOp(tok)
		return
	case faster.StatusNotFound:
		if so.inMig {
			// The record may not have arrived yet — or arrived while this
			// read was on the device, even if the migration has completed
			// since. The retry re-reads and re-judges inMig.
			d.waitOp(tok)
			return
		}
	case faster.StatusOK:
		if so.probe {
			so.probe = false
			st, v = d.sess.RMWHash(so.key, so.input, so.hash, tok)
			d.stepOp(tok, st, v)
			return
		}
	}
	d.emit(so.c, so.seq, st, v)
	d.releaseOp(tok)
}

// run is the dispatcher loop. It holds an epoch guard from start to exit:
// everything reachable from here executes inside a protected section, and a
// dispatcher that parks stalls every global cut in the process (checkpoints,
// migration phase transitions, view changes). See the PR 5 balancer
// deadlock.
//
//shadowfax:epoch
func (d *dispatcher) run() {
	defer d.s.wg.Done()
	defer d.sess.Close()
	idle := 0
	for !d.s.stopping.Load() {
		progress := false

		// Snapshot the replication stream for this iteration.
		d.rs = d.s.repl.Load()
		d.fwd = d.rs != nil && !d.rs.detached.Load() && d.sess.Version() > d.rs.baseVer.Load()

		// Cut barrier (post-cut side): while a freshly sealed cut is still
		// draining, a dispatcher that already crossed it must not execute
		// operations. Its post-cut appends would land at the chain heads
		// where a dispatcher still running under the sealed version can
		// copy-on-write on top of them, folding post-cut effects into a
		// record stamped below the cut — the base scan or checkpoint image
		// would then carry operations the live replication stream (or client
		// replay) applies a second time. Stall batch intake and migration
		// work; the bottom-of-loop Refresh keeps this session's epoch guard
		// moving so the cut drains (the stall lasts at most the other
		// dispatchers' current iteration).
		stalled := d.s.store.CutPending()

		// Adopt new connections.
		for {
			select {
			case c := <-d.newConns:
				d.conns = append(d.conns, c)
				progress = true
				continue
			default:
			}
			break
		}

		if !stalled {
			// Poll sessions for request batches.
			for i := 0; i < len(d.conns); i++ {
				c := d.conns[i]
				frame, ok, err := c.TryRecv()
				if err != nil {
					c.Close()
					d.conns = append(d.conns[:i], d.conns[i+1:]...)
					i--
					continue
				}
				if !ok {
					continue
				}
				progress = true
				d.handleFrame(c, frame)
			}

			// Interleave one unit of migration work (§3.3: "threads
			// interleave processing normal requests with sending batches").
			if d.s.sourceMigrationStep(d) {
				progress = true
			}
			if d.s.targetMigrationStep(d) {
				progress = true
			}
		}

		// Finish pending I/O and push deferred results out.
		if d.sess.CompletePending(false) > 0 {
			progress = true
		}
		d.flushDeferred()
		if d.flushHeld() {
			progress = true
		}
		d.flushConns()

		// Replication-cut barrier: if a cut was just sealed and this session
		// has not crossed it yet, finish every parked pre-cut operation
		// before Refresh carries the session into the new version — the base
		// scan starts once all sessions cross, and it must see these writes
		// stamped pre-cut.
		if rs := d.rs; rs != nil && !rs.detached.Load() &&
			d.sess.Version() <= rs.baseVer.Load() && d.s.store.CurrentVersion() > rs.baseVer.Load() {
			for d.sess.Pending() > 0 {
				d.sess.CompletePending(true)
			}
		}

		d.sess.Refresh()
		if !progress {
			idle++
			if idle > 64 {
				// Nothing to do: yield without holding up global cuts.
				// Resume via Session.Refresh, not Guard().Resume(): a
				// checkpoint cut may complete during the sleep, and the next
				// batch must be stamped (and table-tagged) with the post-cut
				// version.
				d.sess.Guard().Suspend()
				time.Sleep(50 * time.Microsecond) //shadowfax:ignore epochblock the guard is suspended on the line above, so the sleep holds up no cut or reclamation
				d.sess.Refresh()
			} else {
				runtime.Gosched()
			}
		} else {
			idle = 0
		}
	}
	for _, c := range d.conns {
		c.Close()
	}
}

// handleFrame routes one inbound frame. Undecodable frames are dropped (a
// malformed frame has no session/seq to answer on) but always counted in
// Stats().DecodeErrors so the drops are observable.
func (d *dispatcher) handleFrame(c transport.Conn, frame []byte) {
	t, err := wire.PeekType(frame)
	if err != nil {
		d.s.stats.DecodeErrors.Add(1)
		return
	}
	switch t {
	case wire.MsgRequestBatch:
		d.handleRequestBatch(c, frame)
	case wire.MsgMigrate:
		cmd, err := wire.DecodeMigrate(frame)
		if err != nil {
			d.s.stats.DecodeErrors.Add(1)
			return
		}
		go d.s.StartMigration(cmd.Target, metadata.HashRange{Start: cmd.RangeStart, End: cmd.RangeEnd})
		ack := wire.MigrationMsg{Type: wire.MsgAck}
		c.Send(wire.EncodeMigrationMsg(&ack))
	case wire.MsgPrepForTransfer, wire.MsgTransferOwnership,
		wire.MsgMigrationRecords, wire.MsgCompleteMigration, wire.MsgCompacted:
		m, err := wire.DecodeMigrationMsg(frame)
		if err != nil {
			d.s.stats.DecodeErrors.Add(1)
			return
		}
		d.handleMigrationMsg(c, &m)
	case wire.MsgCheckpoint:
		d.s.handleCheckpointReq(c)
	case wire.MsgCompact:
		d.s.handleCompactReq(c)
	case wire.MsgStats:
		d.s.handleStatsReq(c)
	case wire.MsgMetaReq:
		d.s.handleMetaReq(c, frame)
	case wire.MsgRebalance:
		d.s.handleRebalanceReq(c)
	case wire.MsgBalanceStatus:
		d.s.handleBalanceStatusReq(c)
	case wire.MsgSessionRecover:
		d.handleSessionRecover(c, frame)
	case wire.MsgReplAttach:
		d.s.handleReplAttach(c, frame)
	case wire.MsgReplAck:
		a, err := wire.DecodeReplAck(frame)
		if err != nil {
			d.s.stats.DecodeErrors.Add(1)
			return
		}
		if rs := d.s.repl.Load(); rs != nil {
			rs.noteAck(a.Seq)
		}
	case wire.MsgDrain:
		d.s.handleDrainReq(c)
	case wire.MsgAck:
		// Acks are informational; the protocol is fully asynchronous.
	}
}

// handleRequestBatch is the normal-operation hot path. At steady state it
// performs no per-op heap allocation when every op is served from memory:
// the batch decodes into reused buffers, each op's hash is computed once
// and shared between the ownership/migration checks and the store, results
// land in a reused slice with values backed by the per-batch arena, and the
// response is serialized into a reused buffer and coalesced onto the conn.
//
//shadowfax:noalloc
func (d *dispatcher) handleRequestBatch(c transport.Conn, frame []byte) {
	if err := wire.DecodeRequestBatch(frame, &d.reqBatch); err != nil {
		d.s.stats.DecodeErrors.Add(1)
		return
	}
	b := &d.reqBatch
	if d.s.standby.Load() {
		// An unpromoted standby owns nothing; reject so the client
		// re-resolves ownership from the metadata store.
		d.reject(c, b, 0)
		return
	}
	if d.s.deposed.Load() {
		// A promoted replica owns this identity now; rejecting makes the
		// client re-resolve ownership (which points at the new primary).
		d.reject(c, b, 0)
		return
	}
	// Admission control: a connection whose responses are piling up on the
	// replication ack gate (lagging backup, detach awaiting confirmation) is
	// shed with a retryable status instead of parking unbounded copies.
	if max := d.s.cfg.MaxConnBacklog; max > 0 && d.heldPerConn[c] >= max {
		d.shed(c, b)
		return
	}
	view := d.s.view.Load()
	if b.View != view.Number {
		// The Shadowfax check: one integer comparison per batch (§3.2).
		// On mismatch the server refreshes its own view from the metadata
		// store (it may itself be behind) and rejects the batch.
		if b.View > view.Number {
			d.s.refreshView()
			view = d.s.view.Load()
		}
		if b.View != view.Number {
			d.reject(c, b, view.Number)
			return
		}
	}
	d.s.stats.BatchesAccepted.Add(1)

	// Forward accepted write batches to the attached backup BEFORE executing
	// anything: once an op applies locally its effect is observable through
	// reads, so it must already be on the wire to the backup. (The backup may
	// hold a few extra never-acknowledged ops if the primary dies mid-batch;
	// since nothing was acknowledged or revealed for them, that only ever
	// advances state.)
	var fseq uint64
	if d.fwd && batchHasWrites(b) {
		fseq = d.rs.forward(frame)
	}

	d.results = d.results[:0]
	d.valArena = d.valArena[:0]
	d.assembling = true
	d.tmSnap = d.s.targetSnapshot(d.tmSnap)
	for i := range b.Ops {
		d.execOp(c, &b.Ops[i])
	}
	d.assembling = false
	// Record the session's high-water sequence before acknowledging, tagged
	// with the CPR version this batch's appends were stamped under (the
	// session's thread-local version, constant across the batch). A
	// checkpoint sealing version S snapshots exactly the entries with
	// version <= S, matching the records its version-filtered image keeps.
	// (Operations parked for pending I/O or migration are counted here too;
	// an op whose I/O completes on the far side of a cut is the residual
	// fuzziness this reproduction accepts relative to full CPR.)
	if len(b.Ops) > 0 {
		maxSeq := b.Ops[0].Seq
		for i := 1; i < len(b.Ops); i++ {
			if b.Ops[i].Seq > maxSeq {
				maxSeq = b.Ops[i].Seq
			}
		}
		d.s.sessTab.advance(d.idx, b.SessionID, maxSeq, d.sess.Version())
	}
	resp := wire.ResponseBatch{SessionID: b.SessionID, ServerView: view.Number,
		Results: d.results}
	d.respBuf = wire.AppendResponseBatch(d.respBuf[:0], &resp)
	// With a backup attached, nothing is revealed before the backup's
	// cumulative ack covers it (write acks and read results alike); see
	// gateResponse.
	if gate, hold := d.gateResponse(fseq); hold {
		d.holdResponse(c, d.respBuf, gate)
	} else {
		d.send(c, d.respBuf)
	}
	d.s.stats.OpsCompleted.Add(uint64(len(d.results)))
}

func (d *dispatcher) reject(c transport.Conn, b *wire.RequestBatch, serverView uint64) {
	d.s.stats.BatchesRejected.Add(1)
	// Echo the rejected operations' sequence numbers so the client can
	// requeue exactly this batch (an RMW requeued twice would double-apply).
	// d.results is free here: a rejected batch executes nothing.
	d.results = d.results[:0]
	for i := range b.Ops {
		d.results = append(d.results, wire.Result{Seq: b.Ops[i].Seq})
	}
	resp := wire.ResponseBatch{SessionID: b.SessionID, Rejected: true,
		ServerView: serverView, Results: d.results}
	d.respBuf = wire.AppendResponseBatch(d.respBuf[:0], &resp)
	d.send(c, d.respBuf)
}

// shed refuses a batch under overload (per-conn held-response backlog at the
// MaxConnBacklog bound). Like reject it executes nothing and echoes the ops'
// sequence numbers so the client requeues exactly this batch — but the Shed
// flag tells the client the view was fine: back off and retry here, don't
// re-resolve ownership. The response bypasses the ack gate (it reveals no
// state).
func (d *dispatcher) shed(c transport.Conn, b *wire.RequestBatch) {
	d.s.stats.BatchesShed.Add(1)
	d.results = d.results[:0]
	for i := range b.Ops {
		d.results = append(d.results, wire.Result{Seq: b.Ops[i].Seq})
	}
	resp := wire.ResponseBatch{SessionID: b.SessionID, Shed: true,
		ServerView: d.s.view.Load().Number, Results: d.results}
	d.respBuf = wire.AppendResponseBatch(d.respBuf[:0], &resp)
	d.send(c, d.respBuf)
}

// send ships a frame on c, coalescing onto the conn's write buffer when the
// transport supports it; dirty conns are flushed once per poll iteration
// (flushConns), so back-to-back batch responses and deferred results in one
// iteration cost one wire write per conn.
func (d *dispatcher) send(c transport.Conn, frame []byte) {
	if bs, ok := c.(transport.BatchedSender); ok {
		bs.SendNoFlush(frame)          //nolint:errcheck // conn errors surface on the next poll
		for _, seen := range d.dirty { // few conns answer per iteration
			if seen == bs {
				return
			}
		}
		d.dirty = append(d.dirty, bs)
		return
	}
	c.Send(frame) //nolint:errcheck // conn errors surface on the next poll
}

// flushConns pushes the dirty conns' buffered frames to the wire; called
// once per poll iteration.
func (d *dispatcher) flushConns() {
	for i, bs := range d.dirty {
		bs.Flush() //nolint:errcheck // conn errors surface on the next poll
		d.dirty[i] = nil
	}
	d.dirty = d.dirty[:0]
}

// execOp runs one client operation against the shared store. Results that
// complete inline land in d.results (values backed by the batch arena);
// operations that park (see srvOp) are answered in later response frames
// keyed by Seq.
//
// The key's hash is computed exactly once, here, and shared between the
// migration-range check and the store's hash entry points. Nothing is
// copied on the inline path: keys alias the batch frame, which outlives the
// batch; only operations that park promote their key/input into owned
// buffers. Upserts and deletes never park.
func (d *dispatcher) execOp(c transport.Conn, op *wire.Op) {
	h := faster.HashOf(op.Key)
	d.recordLoad(h)
	switch op.Kind {
	case wire.OpUpsert:
		d.emitInline(op.Seq, d.sess.UpsertHash(op.Key, op.Value, h), nil)
	case wire.OpDelete:
		d.emitInline(op.Seq, d.sess.DeleteHash(op.Key, h), nil)
	default:
		d.startOp(d.claimOp(c, op, h))
	}
}

// emitInline appends an inline result to the in-flight batch response. Read
// values are copied into the per-batch arena (they must survive until the
// response is serialized; the store's value buffer is reused per op).
func (d *dispatcher) emitInline(seq uint32, st faster.Status, v []byte) {
	res := wire.Result{Seq: seq, Status: toWireStatus(st)}
	if st == faster.StatusOK && v != nil {
		n := len(d.valArena)
		d.valArena = append(d.valArena, v...)
		res.Value = d.valArena[n : n+len(v) : n+len(v)]
	}
	d.results = append(d.results, res)
}

// emit queues a final result: into the in-flight batch response when still
// assembling it, otherwise onto the connection's deferred results (with an
// owned value copy — deferred results outlive the batch and its arena).
func (d *dispatcher) emit(c transport.Conn, seq uint32, st faster.Status, v []byte) {
	if d.assembling {
		d.emitInline(seq, st, v)
		return
	}
	res := wire.Result{Seq: seq, Status: toWireStatus(st)}
	if st == faster.StatusOK && v != nil {
		res.Value = append([]byte(nil), v...)
	}
	d.deferred[c] = append(d.deferred[c], res)
}

func (d *dispatcher) flushDeferred() {
	for c, results := range d.deferred {
		if len(results) == 0 {
			continue
		}
		resp := wire.ResponseBatch{ServerView: d.s.view.Load().Number, Results: results}
		d.respBuf = wire.AppendResponseBatch(d.respBuf[:0], &resp)
		// Deferred results may carry late write acks or reads of writes the
		// backup has not acknowledged; gate them on the current send
		// watermark like any other response.
		if gate, hold := d.gateResponse(0); hold {
			d.holdResponse(c, d.respBuf, gate)
		} else {
			d.send(c, d.respBuf)
		}
		d.s.stats.OpsCompleted.Add(uint64(len(results)))
		delete(d.deferred, c)
	}
}

func toWireStatus(st faster.Status) wire.ResultStatus {
	switch st {
	case faster.StatusOK:
		return wire.StatusOK
	case faster.StatusNotFound:
		return wire.StatusNotFound
	default:
		return wire.StatusErr
	}
}
