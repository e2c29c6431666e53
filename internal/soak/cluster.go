package soak

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/metadata"
	"repro/shadowfax"
)

// Config sizes the cluster, the workload and the fault schedule. Zero
// fields take the documented defaults (Load: 4 clients, 2048 keys, 64 ops
// per batch).
type Config struct {
	Load

	// Servers is the in-process cluster size (default 8, minimum 4: the
	// fault schedule needs two disjoint idle pairs).
	Servers int
	// Duration bounds the loaded phase of the run (default 5s). Faults are
	// spread evenly across it.
	Duration time.Duration

	// Kills is the number of kill → checkpoint-backed restart → recover
	// cycles to attempt (default 2).
	Kills int
	// Cancels is the number of migration-cancellation faults (default 2).
	// Cancels target empty hash ranges only: cancelling a range that holds
	// acked data would require replication this system does not claim.
	Cancels int
	// ConcurrentPairs is the number of forced concurrent-migration events:
	// two disjoint empty-range migrations started back-to-back on disjoint
	// server pairs, observed via Admin.BalanceStatus (default 2).
	ConcurrentPairs int
	// OverlapAttempts is the number of live overlapping StartMigration
	// attempts, each expected to fail with ErrMigrationOverlap (default 2).
	OverlapAttempts int

	// ReadCache runs every server with the second-chance read cache enabled
	// under a deliberately small memory budget, so cold reads, promotions to
	// the tail and the fault schedule (fences, migrations, checkpoints,
	// recovery) all interleave.
	ReadCache bool
}

// Result is one cluster soak's outcome.
type Result struct {
	Outcome
	Servers int

	// MaxConcurrentMigrations is the largest in-flight migration count the
	// harness observed via Admin.BalanceStatus / the metadata store.
	MaxConcurrentMigrations int
	// MigrationsSeen counts distinct migration IDs observed in flight
	// (fault-injected and balancer-triggered).
	MigrationsSeen int

	// Fault-schedule accounting: events that actually executed.
	Kills             int
	Cancels           int
	OverlapRejections int
}

func (c *Config) withDefaults() {
	c.Load.withDefaults(4, 2048, 64)
	if c.Servers <= 0 {
		c.Servers = 8
	}
	if c.Servers < 4 {
		c.Servers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Kills < 0 {
		c.Kills = 0
	} else if c.Kills == 0 {
		c.Kills = 2
	}
	if c.Cancels == 0 {
		c.Cancels = 2
	}
	if c.ConcurrentPairs == 0 {
		c.ConcurrentPairs = 2
	}
	if c.OverlapAttempts == 0 {
		c.OverlapAttempts = 2
	}
}

type clusterSoak struct {
	*harness
	cfg     Config
	cluster *shadowfax.Cluster
	admin   *shadowfax.Admin
	hashes  []uint64 // sorted key hashes, for empty-range discovery

	migMu   sync.Mutex
	migSeen map[uint64]bool
	migMax  int

	// injRng belongs to the fault injector alone (one goroutine).
	injRng *rand.Rand

	kills, cancels, overlaps int
}

const balancerEvery = 150 * time.Millisecond

// Run executes one cluster soak: boot, preload, load + faults, drain, final
// sweep. Kills pause and drain the load first (the harness gate); every
// other fault lands under live traffic. The error return covers harness
// failures (a server that cannot restart); correctness breaches land in
// Result.Violations instead. The Result also reports aggregate throughput
// and the peak migration concurrency the metadata store tracked.
func Run(cfg Config) (Result, error) {
	cfg.withDefaults()
	s := &clusterSoak{
		// A minute per batch: nothing in the schedule may wedge an op that
		// long, so the workers report a timeout as a liveness violation.
		harness: newHarness(cfg.Load, time.Minute),
		cfg:     cfg, migSeen: map[uint64]bool{},
		injRng: rand.New(rand.NewSource(cfg.Seed ^ 0x50a4)),
	}
	s.shift, s.opFailed = s.hotspotShift, s.stuckOp
	defer s.close()

	if err := s.boot(); err != nil {
		return Result{}, err
	}
	if err := s.preload(s.clients[0]); err != nil {
		return Result{}, err
	}
	pollDone := make(chan struct{})
	go s.pollMigrations(pollDone)
	var err error
	s.drive(func() { err = s.injectFaults() })
	close(pollDone)
	if err != nil {
		return Result{}, err
	}
	s.waitMigrationsSettled(30 * time.Second)

	res := Result{
		Servers: cfg.Servers,
		Kills:   s.kills, Cancels: s.cancels, OverlapRejections: s.overlaps,
	}
	s.migMu.Lock()
	res.MaxConcurrentMigrations = s.migMax
	res.MigrationsSeen = len(s.migSeen)
	s.migMu.Unlock()
	res.Outcome = s.finish(fmt.Sprintf("servers=%d kills=%d cancels=%d overlap_rejections=%d migrations=%d max_concurrent=%d",
		res.Servers, res.Kills, res.Cancels, res.OverlapRejections,
		res.MigrationsSeen, res.MaxConcurrentMigrations))
	return res, nil
}

// boot partitions the hash space evenly, starts every server on persistent
// devices (so kill/restart cycles recover from them), hosts balancers on the
// first two nodes, and dials the client workers.
func (s *clusterSoak) boot() error {
	s.cluster = s.addCluster()
	n := s.cfg.Servers
	step := ^uint64(0) / uint64(n)
	for i := 0; i < n; i++ {
		start := uint64(i) * step
		end := start + step
		if i == n-1 {
			end = ^uint64(0)
		}
		nd := s.addNode(s.cluster, fmt.Sprintf("s%02d", i), true, s.serverOpts(i < 2)...)
		if err := nd.start(shadowfax.WithOwnership(shadowfax.HashRange{Start: start, End: end})); err != nil {
			return err
		}
	}
	if err := s.dial(s.cluster); err != nil {
		return err
	}
	s.admin = shadowfax.NewAdmin(s.cluster)

	s.hashes = make([]uint64, len(s.keys))
	for i, key := range s.keys {
		s.hashes[i] = faster.HashOf(key)
	}
	sort.Slice(s.hashes, func(a, b int) bool { return s.hashes[a] < s.hashes[b] })
	return nil
}

// serverOpts is what a slot passes on boot and on every restart-after-kill
// (a balancer host re-arms its balancer).
func (s *clusterSoak) serverOpts(balance bool) []shadowfax.ServerOption {
	var opts []shadowfax.ServerOption
	if s.cfg.ReadCache {
		// A small budget (4 KiB pages, 16 frames) forces part of the
		// keyspace onto storage so the cache actually promotes.
		opts = append(opts,
			shadowfax.WithMemoryBudget(12, 16, 8),
			shadowfax.WithReadCache(true))
	}
	if balance {
		opts = append(opts, shadowfax.WithAutoScale(shadowfax.AutoScaleConfig{
			Every:         balancerEvery,
			Imbalance:     2.0,
			Cooldown:      1500 * time.Millisecond,
			MinOpsPerSec:  200,
			MaxConcurrent: 4,
		}))
	}
	return opts
}

// observeInFlight folds one in-flight snapshot into the concurrency ledger.
func (s *clusterSoak) observeInFlight(migs []shadowfax.MigrationState) {
	live := 0
	s.migMu.Lock()
	for _, m := range migs {
		if !m.InFlight() {
			continue
		}
		live++
		if !s.migSeen[m.ID] {
			s.cfg.Logf("mig %d epoch %d %s->%s %s", m.ID, m.Epoch, m.Source, m.Target, m.Range)
		}
		s.migSeen[m.ID] = true
	}
	if live > s.migMax {
		s.migMax = live
	}
	s.migMu.Unlock()
}

// pollMigrations samples the metadata store's in-flight set continuously so
// balancer-triggered concurrency is captured too, not just forced pairs.
func (s *clusterSoak) pollMigrations(done <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			s.observeInFlight(s.cluster.Migrations())
		}
	}
}

// hotspotShift rotates the zipf hotspot through the keyspace over the run,
// so the balancer sees load move between servers.
func (s *clusterSoak) hotspotShift() uint64 {
	period := s.cfg.Duration / 6
	if period <= 0 {
		period = time.Second
	}
	steps := uint64(time.Since(s.start) / period)
	return steps * uint64(s.cfg.Keys) / 7
}

// stuckOp is the cluster soak's verdict on a failed op. Kills happen behind
// the gate and the injector repairs every session itself, so workers never
// do; a timeout is a liveness violation, anything else is transient (view
// churn mid-recovery) and leaves the RMW unacked under the issued bound.
func (s *clusterSoak) stuckOp(worker, key int, read bool, err error) bool {
	if errors.Is(err, context.DeadlineExceeded) {
		s.violate("worker %d key %d: op stuck >1m (read=%v): %v", worker, key, read, err)
	}
	return false
}

// ---- fault schedule ----------------------------------------------------

// faultKind is one of the schedule's four event kinds: n instances of fn,
// which reports whether it executed or skipped because the cluster was busy.
type faultKind struct {
	n   int
	fn  func() (ran bool, err error)
	ran int // instances that executed
}

// injectFaults runs the deterministic event schedule, spread evenly over the
// loaded phase. Event order interleaves the four fault kinds round-robin so
// kills land between concurrency events rather than clumping.
//
// An instance that skips is re-armed while its kind has never executed and
// the deadline has not passed: a skip only says the cluster was busy at that
// instant (the balancer had servers mid-migration), and the run's assertions
// need each kind's result at least once.
func (s *clusterSoak) injectFaults() error {
	overlap := &faultKind{n: s.cfg.OverlapAttempts, fn: s.overlapEvent}
	kinds := []*faultKind{
		{n: s.cfg.ConcurrentPairs, fn: s.concurrentPairEvent},
		{n: s.cfg.Kills, fn: s.killEvent},
		overlap,
		{n: s.cfg.Cancels, fn: s.cancelEvent},
	}
	var events []*faultKind
	for round := 0; ; round++ {
		added := false
		for _, k := range kinds {
			if round < k.n {
				events = append(events, k)
				added = true
			}
		}
		if !added {
			break
		}
	}
	gap := s.cfg.Duration / time.Duration(len(events)+1)
	deadline := time.Now().Add(s.cfg.Duration)
	for _, ev := range events {
		time.Sleep(gap)
		for {
			ran, err := ev.fn()
			if err != nil {
				return err
			}
			if ran {
				ev.ran++
			}
			if ev.ran > 0 || !time.Now().Before(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	time.Sleep(time.Until(deadline))
	if overlap.n > 0 && overlap.ran == 0 {
		// Zero rejections would read as "the guard let an overlap through";
		// the truth is that the guard was never put to the test.
		return fmt.Errorf("soak: none of the %d overlap events could execute before the %v deadline (see the skip reasons logged above)",
			overlap.n, s.cfg.Duration)
	}
	return nil
}

// idleServers returns node indices not party to any in-flight migration,
// shuffled by the injector's seeded RNG (injector goroutine only).
func (s *clusterSoak) idleServers(exclude map[int]bool) []int {
	busy := map[string]bool{}
	for _, m := range s.cluster.Migrations() {
		if m.InFlight() {
			busy[m.Source] = true
			busy[m.Target] = true
		}
	}
	var out []int
	for i, nd := range s.nodes {
		if !busy[nd.id] && !exclude[i] {
			out = append(out, i)
		}
	}
	s.injRng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// emptyRange finds a hash subrange owned by the node that contains no
// workload key hash: migrating or cancelling it can never lose data. It
// picks the widest gap between consecutive key hashes inside the node's
// owned ranges.
func (s *clusterSoak) emptyRange(idx int) (shadowfax.HashRange, bool) {
	view, err := s.cluster.View(s.nodes[idx].id)
	if err != nil {
		return shadowfax.HashRange{}, false
	}
	var best shadowfax.HashRange
	var bestW uint64
	consider := func(lo, hi uint64) { // candidate empty span [lo, hi)
		if hi > lo && hi-lo > bestW {
			best, bestW = shadowfax.HashRange{Start: lo, End: hi}, hi-lo
		}
	}
	for _, r := range view.Ranges {
		lo := sort.Search(len(s.hashes), func(i int) bool { return s.hashes[i] >= r.Start })
		hi := sort.Search(len(s.hashes), func(i int) bool { return s.hashes[i] >= r.End })
		prev := r.Start
		for _, kh := range s.hashes[lo:hi] {
			consider(prev, kh)
			prev = kh + 1
		}
		consider(prev, r.End)
	}
	if bestW < 16 {
		return shadowfax.HashRange{}, false
	}
	// Take the middle half so repeated events on adjacent ownership don't
	// keep colliding on identical bounds.
	q := bestW / 4
	return shadowfax.HashRange{Start: best.Start + q, End: best.End - q}, true
}

// concurrentPairEvent forces ≥2 concurrent migrations: two empty-range
// migrations on disjoint idle server pairs started back-to-back, then
// observed through Admin.BalanceStatus — the same surface an operator would
// use — and folded into the concurrency ledger.
func (s *clusterSoak) concurrentPairEvent() (bool, error) {
	free := s.idleServers(nil)
	if len(free) < 4 {
		s.cfg.Logf("soak: concurrent-pair skipped (only %d idle servers)", len(free))
		return false, nil
	}
	type move struct {
		src, tgt int
		rng      shadowfax.HashRange
	}
	var moves []move
	used := map[int]bool{}
	for i := 0; i+1 < len(free) && len(moves) < 2; i++ {
		src := free[i]
		if used[src] {
			continue
		}
		rng, ok := s.emptyRange(src)
		if !ok {
			continue
		}
		for j := i + 1; j < len(free); j++ {
			if !used[free[j]] && free[j] != src {
				moves = append(moves, move{src: src, tgt: free[j], rng: rng})
				used[src], used[free[j]] = true, true
				break
			}
		}
	}
	if len(moves) < 2 {
		s.cfg.Logf("soak: concurrent-pair skipped (no two disjoint empty ranges)")
		return false, nil
	}
	started := 0
	for _, mv := range moves {
		if err := s.nodes[mv.src].server().StartMigration(s.nodes[mv.tgt].id, mv.rng); err != nil {
			s.cfg.Logf("soak: pair migration %s->%s %v: %v",
				s.nodes[mv.src].id, s.nodes[mv.tgt].id, mv.rng, err)
			continue
		}
		started++
	}
	if started == 2 {
		// Observe through the public admin surface, like an operator.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		st, err := s.admin.BalanceStatus(ctx, s.nodes[0].id)
		cancel()
		if err == nil {
			s.observeInFlight(st.InFlight)
			epochs := map[uint64]bool{}
			for _, m := range st.InFlight {
				if m.Epoch == 0 {
					s.violate("migration %d in flight with zero epoch", m.ID)
				}
				if epochs[m.Epoch] {
					s.violate("duplicate migration epoch %d in flight", m.Epoch)
				}
				epochs[m.Epoch] = true
			}
			s.cfg.Logf("soak: concurrent pair in flight: %d migrations via balance-status", len(st.InFlight))
		}
	}
	s.waitMigrationsSettled(10 * time.Second)
	return true, nil
}

// overlapEvent checks the overlap guard under fire: with an empty-range
// migration in flight, a third server's overlapping StartMigration must be
// rejected with ErrMigrationOverlap before any state changes hands. It needs
// three idle servers, so it first lets the balancer's migrations finish —
// on a loaded host a four-server cluster rarely has three idle otherwise.
func (s *clusterSoak) overlapEvent() (bool, error) {
	s.waitMigrationsSettled(10 * time.Second)
	free := s.idleServers(nil)
	if len(free) < 3 {
		s.cfg.Logf("soak: overlap skipped (only %d idle servers)", len(free))
		return false, nil
	}
	src, tgt, third := free[0], free[1], free[2]
	rng, ok := s.emptyRange(src)
	if !ok {
		s.cfg.Logf("soak: overlap skipped (no empty range on %s)", s.nodes[src].id)
		return false, nil
	}
	if err := s.nodes[src].server().StartMigration(s.nodes[tgt].id, rng); err != nil {
		s.cfg.Logf("soak: overlap base migration failed: %v", err)
		return false, nil
	}
	sub := shadowfax.HashRange{Start: rng.Start + (rng.End-rng.Start)/4, End: rng.End}
	err := s.nodes[third].server().StartMigration(s.nodes[tgt].id, sub)
	switch {
	case err == nil:
		s.violate("overlapping StartMigration %v over in-flight %v was accepted", sub, rng)
	case errors.Is(err, metadata.ErrMigrationOverlap):
		s.overlaps++
	default:
		// The base migration can complete under us (it is empty and fast);
		// then the attempt fails on ownership instead. Not a rejection we
		// count, but not a violation either.
		s.cfg.Logf("soak: overlap attempt failed with %v (base likely completed)", err)
	}
	s.observeInFlight(s.cluster.Migrations())
	s.waitMigrationsSettled(10 * time.Second)
	return true, nil
}

// cancelEvent starts an empty-range migration and cancels it mid-flight,
// exercising §3.3.1 cancellation: ownership snaps back to the source, both
// views advance, and the target's half-built state is retired.
func (s *clusterSoak) cancelEvent() (bool, error) {
	free := s.idleServers(nil)
	if len(free) < 2 {
		s.cfg.Logf("soak: cancel skipped (only %d idle servers)", len(free))
		return false, nil
	}
	src, tgt := free[0], free[1]
	rng, ok := s.emptyRange(src)
	if !ok {
		s.cfg.Logf("soak: cancel skipped (no empty range on %s)", s.nodes[src].id)
		return false, nil
	}
	if err := s.nodes[src].server().StartMigration(s.nodes[tgt].id, rng); err != nil {
		s.cfg.Logf("soak: cancel base migration failed: %v", err)
		return false, nil
	}
	var id uint64
	found := false
	for _, m := range s.cluster.Migrations() {
		if m.InFlight() && m.Source == s.nodes[src].id && m.Range == rng {
			id, found = m.ID, true
			break
		}
	}
	if !found {
		s.cfg.Logf("soak: cancel target migration already gone")
		return false, nil
	}
	time.Sleep(sampleDuration / 2) // let it get into the protocol
	if err := s.cluster.CancelMigration(id); err != nil {
		s.cfg.Logf("soak: cancelling migration %d: %v", id, err)
		return false, nil
	}
	s.cancels++
	s.waitMigrationsSettled(10 * time.Second)
	return true, nil
}

// killEvent is the crash-recovery fault: pause and drain all load, wait for
// the victim to be clear of migrations, kick off an unrelated empty-range
// migration so the kill genuinely lands mid-migration, checkpoint the
// victim, kill it, restart it from its devices with recovery, re-establish
// every client's sessions, and resume load.
func (s *clusterSoak) killEvent() (bool, error) {
	s.gate.Lock()
	defer s.gate.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, cl := range s.clients {
		if err := cl.Drain(ctx); err != nil {
			s.violate("drain before kill failed: %v", err)
			return true, nil
		}
	}
	// Let the balancer observe a quiet interval so it won't start a new
	// migration involving the victim between our check and the kill.
	time.Sleep(2 * balancerEvery)

	victims := s.idleServers(nil)
	if len(victims) == 0 {
		s.cfg.Logf("soak: kill skipped (no migration-free server)")
		return false, nil
	}
	victim := victims[0]
	nd := s.nodes[victim]

	// Make the kill land mid-migration: start an empty-range migration
	// between two *other* servers right before taking the victim down.
	others := s.idleServers(map[int]bool{victim: true})
	if len(others) >= 2 {
		if rng, ok := s.emptyRange(others[0]); ok {
			if err := s.nodes[others[0]].server().StartMigration(s.nodes[others[1]].id, rng); err == nil {
				s.cfg.Logf("soak: kill lands during migration %s->%s %v",
					s.nodes[others[0]].id, s.nodes[others[1]].id, rng)
			}
		}
	}

	if _, err := nd.server().Checkpoint(); err != nil {
		s.violate("checkpoint before kill of %s failed: %v", nd.id, err)
		return true, nil
	}
	nd.kill()
	if err := nd.start(shadowfax.WithRecovery()); err != nil {
		return true, err
	}

	for i, cl := range s.clients {
		if err := cl.RecoverSessions(ctx); err != nil {
			s.violate("client %d session recovery after killing %s failed: %v", i, nd.id, err)
		}
	}
	s.kills++
	s.cfg.Logf("soak: killed and recovered %s", nd.id)
	s.observeInFlight(s.cluster.Migrations())
	return true, nil
}

// waitMigrationsSettled blocks until no migration is in flight (so events
// compose cleanly) or the timeout passes.
func (s *clusterSoak) waitMigrationsSettled(timeout time.Duration) {
	settled := poll(timeout, 10*time.Millisecond, func() bool {
		for _, m := range s.cluster.Migrations() {
			if m.InFlight() {
				return false
			}
		}
		return true
	})
	if !settled {
		s.cfg.Logf("soak: migrations still in flight after %v", timeout)
	}
}
