package ctlplane

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/client"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BalancerConfig tunes the automatic scale-out balancer.
type BalancerConfig struct {
	// Self is the hosting server's id (status/reporting only; the balancer
	// considers every registered server as a migration source or target).
	Self string
	// Meta is the deployment's metadata provider.
	Meta metadata.Provider
	// Transport dials servers for Stats and Migrate RPCs.
	Transport transport.Transport

	// Every is the planning-pass period (default 1s).
	Every time.Duration
	// Imbalance is the load-imbalance threshold: a pass acts only when the
	// hottest server's ops/sec exceeds the coolest's by this factor
	// (default 3.0).
	Imbalance float64
	// Cooldown is the hold-off after a triggered migration, giving views,
	// clients and the sampled load time to settle before the next decision
	// (default 10s).
	Cooldown time.Duration
	// MinOpsPerSec is the source-load floor below which the cluster is
	// considered idle and never split (default 500).
	MinOpsPerSec float64
	// MinSplitSamples is the minimum number of in-range hash samples needed
	// to pick a split point (default 16).
	MinSplitSamples int
	// RPCTimeout bounds each individual RPC a pass issues (default 2s), so
	// one hung server costs a pass at most one timeout, not the cluster.
	RPCTimeout time.Duration
	// MaxConcurrent caps how many migrations one pass may start: the top-K
	// hottest free servers each split toward a distinct cool server
	// (default 4). Servers already party to an in-flight migration sit the
	// pass out; the metadata store's overlap rejection is the correctness
	// backstop, this knob is purely a policy throttle.
	MaxConcurrent int

	// Scale-in (the low-water inverse of the split policy).

	// ScaleIn lets passes retire chronically cold servers: when a server's
	// rate stays below ScaleInBelowOps for ScaleInAfterPasses consecutive
	// passes — and no split was planned, no migration is in flight, and the
	// cluster stays at or above MinServers — the balancer sends it the Drain
	// RPC: its ranges migrate to the survivors and it leaves the metadata
	// store.
	ScaleIn bool
	// ScaleInBelowOps is the ops/sec low-water mark (default 50).
	ScaleInBelowOps float64
	// ScaleInAfterPasses is how many consecutive cold passes arm a drain
	// (default 5).
	ScaleInAfterPasses int
	// MinServers is the floor the cluster never drains below (default 2).
	MinServers int
	// DrainTimeout bounds the Drain RPC — which waits out one migration per
	// owned range, not one quick round-trip (default 60s).
	DrainTimeout time.Duration

	// Self-healing re-replication.

	// SpawnStandby, when set, lets passes heal replication: a promoted
	// primary serving with no registered replica gets a fresh standby
	// provisioned via this hook (the deployment decides what "provision"
	// means — boot a process, start an in-process server, page an operator).
	// Called on the balancer goroutine, at most once per SpawnRetry per
	// primary; errors are retried on a later pass.
	SpawnStandby func(primaryID string) error
	// SpawnRetry is the per-primary hold-off between SpawnStandby attempts
	// (default 5s) — provisioning plus base sync take a while, and a second
	// spawn racing the first would be refused by the primary anyway.
	SpawnRetry time.Duration
}

func (c BalancerConfig) withDefaults() BalancerConfig {
	if c.Every == 0 {
		c.Every = time.Second
	}
	if c.Imbalance == 0 {
		c.Imbalance = 3.0
	}
	if c.Cooldown == 0 {
		c.Cooldown = 10 * time.Second
	}
	if c.MinOpsPerSec == 0 {
		c.MinOpsPerSec = 500
	}
	if c.MinSplitSamples == 0 {
		c.MinSplitSamples = 16
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 4
	}
	if c.ScaleInBelowOps == 0 {
		c.ScaleInBelowOps = 50
	}
	if c.ScaleInAfterPasses == 0 {
		c.ScaleInAfterPasses = 5
	}
	if c.MinServers < 2 {
		c.MinServers = 2
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 60 * time.Second
	}
	if c.SpawnRetry == 0 {
		c.SpawnRetry = 5 * time.Second
	}
	return c
}

// Move is one planned (and possibly executed) migration of a pass.
type Move struct {
	Source string
	Target string
	Range  metadata.HashRange
	// Err is set when this move's Migrate RPC failed; the pass's other
	// moves are unaffected.
	Err string
}

// Decision is one planning pass's outcome. Source/Target/Range mirror the
// first successful move for single-move consumers (the wire RebalanceResp);
// Moves carries the whole multi-way plan.
type Decision struct {
	At     time.Time
	Acted  bool
	Source string
	Target string
	Range  metadata.HashRange
	Moves  []Move
	Reason string
}

// Status is a balancer snapshot for operators (the MsgBalanceStatus RPC).
type Status struct {
	Config    BalancerConfig
	Passes    uint64
	Triggered uint64
	// CooldownRemaining is how long the balancer will keep holding off
	// after the last triggered migration (0 = armed).
	CooldownRemaining time.Duration
	Last              Decision
	// Rates is the last pass's observed per-server ops/sec.
	Rates map[string]float64
}

// Balancer watches per-server load (ops/sec deltas of the MsgStats
// counters), detects sustained imbalance, picks split points from the hot
// servers' sampled hash distributions, and drives the ordinary Migrate()
// RPC — the policy layer over the paper's §3.3 mechanism. One pass may
// start up to MaxConcurrent migrations over disjoint ranges (hottest free
// servers split toward coolest free servers, each server party to at most
// one move); servers already mid-migration sit the pass out, and a cooldown
// separates consecutive acting passes.
type Balancer struct {
	cfg   BalancerConfig
	admin *client.Admin

	// passMu serializes planning passes (the periodic loop vs. RPC-driven
	// RunOnce). It is held across the pass's RPCs, so nothing a dispatcher
	// calls may ever take it: dispatchers answer the very Stats RPCs a pass
	// waits on.
	passMu sync.Mutex

	// mu guards the observed state below; it is held only for brief local
	// reads/writes, never across an RPC (Status and the stats counters must
	// stay responsive mid-pass).
	mu            sync.Mutex
	prev          map[string]counterSample
	rates         map[string]float64
	last          Decision
	cooldownUntil time.Time
	// coldStreak counts consecutive passes each server spent below the
	// scale-in low-water mark; reset the moment it warms up or goes
	// unreachable.
	coldStreak map[string]int
	// lastSpawn rate-limits SpawnStandby per primary (see SpawnRetry).
	lastSpawn map[string]time.Time

	passes    atomic.Uint64
	triggered atomic.Uint64

	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type counterSample struct {
	ops uint64
	at  time.Time
}

// NewBalancer builds a balancer; call Run to start the periodic loop, or
// drive passes manually with RunOnce.
func NewBalancer(cfg BalancerConfig) *Balancer {
	cfg = cfg.withDefaults()
	return &Balancer{
		cfg:        cfg,
		admin:      client.NewAdmin(cfg.Transport, cfg.Meta),
		prev:       make(map[string]counterSample),
		rates:      make(map[string]float64),
		coldStreak: make(map[string]int),
		lastSpawn:  make(map[string]time.Time),
		quit:       make(chan struct{}),
	}
}

// Run executes planning passes every cfg.Every until Stop.
func (b *Balancer) Run() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			// Jitter the pass period so multiple balancer hosts booted from
			// one config don't plan (and race each other's migrations) in
			// lockstep.
			select {
			case <-b.quit:
				return
			case <-time.After(backoff.Jittered(b.cfg.Every, 0.2)):
				// No overall deadline: each RPC inside the pass carries its
				// own RPCTimeout, bounding the pass at (servers+1)×timeout.
				b.RunOnce(context.Background())
			}
		}
	}()
}

// Stop terminates the Run loop.
func (b *Balancer) Stop() {
	b.once.Do(func() { close(b.quit) })
	b.wg.Wait()
}

// Status returns the balancer's current state. It never blocks on an
// in-flight pass (dispatchers serve it inline).
func (b *Balancer) Status() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := Status{
		Config:    b.cfg,
		Passes:    b.passes.Load(),
		Triggered: b.triggered.Load(),
		Last:      b.last,
		Rates:     make(map[string]float64, len(b.rates)),
	}
	if rem := time.Until(b.cooldownUntil); rem > 0 {
		st.CooldownRemaining = rem
	}
	for id, r := range b.rates {
		st.Rates[id] = r
	}
	return st
}

// Passes reports the number of planning passes run (for MsgStats; lock-free
// so the stats path can never block behind a pass).
func (b *Balancer) Passes() uint64 { return b.passes.Load() }

// Triggered reports how many migrations the balancer has started.
func (b *Balancer) Triggered() uint64 { return b.triggered.Load() }

// RunOnce executes one planning pass: refresh per-server rates, check the
// guards (cooldown, idle cluster, balance), and — when all pass — plan up
// to MaxConcurrent disjoint-range splits and trigger them in parallel. The
// returned Decision describes what happened either way. Passes on this
// balancer are serialized; state is published under b.mu between (never
// across) the pass's RPCs.
func (b *Balancer) RunOnce(ctx context.Context) Decision {
	b.passMu.Lock()
	defer b.passMu.Unlock()
	b.passes.Add(1)
	spawned := b.maybeReplicate()
	d := b.plan(ctx)
	d.At = time.Now()
	if len(spawned) > 0 {
		note := "re-replicating " + strings.Join(spawned, ", ")
		if d.Reason == "" {
			d.Reason = note
		} else {
			d.Reason = note + "; " + d.Reason
		}
	}
	b.mu.Lock()
	b.last = d
	if d.Acted {
		// Jittered so co-hosted balancers don't re-arm simultaneously.
		b.cooldownUntil = time.Now().Add(backoff.Jittered(b.cfg.Cooldown, 0.1))
	}
	b.mu.Unlock()
	if d.Acted {
		b.triggered.Add(1)
	}
	return d
}

// maybeReplicate heals replication: a promoted primary that is registered
// (serving) but has no replica attached lost its redundancy when it took
// over — its old standby IS the new primary. Provision a fresh standby via
// the SpawnStandby hook, rate-limited per primary; the standby then attaches
// and base-syncs through the ordinary replication path. Returns the primaries
// a spawn was attempted for this pass.
func (b *Balancer) maybeReplicate() []string {
	if b.cfg.SpawnStandby == nil {
		return nil
	}
	snap, _ := b.cfg.Meta.Snapshot() // a stale one still names who needs healing
	var spawned []string
	for _, id := range snap.Promoted {
		if _, err := snap.GetView(id); err != nil {
			continue // retired (or drained) since promotion; nothing to heal
		}
		if _, ok := snap.Replica(id); ok {
			continue // has a replica (possibly still base-syncing)
		}
		b.mu.Lock()
		due := time.Since(b.lastSpawn[id]) >= b.cfg.SpawnRetry
		if due {
			b.lastSpawn[id] = time.Now()
		}
		b.mu.Unlock()
		if !due {
			continue
		}
		if err := b.cfg.SpawnStandby(id); err != nil {
			continue // retried after SpawnRetry on a later pass
		}
		spawned = append(spawned, id)
	}
	return spawned
}

func (b *Balancer) plan(ctx context.Context) Decision {
	// One snapshot for the whole pass: the server list, who is busy and the
	// in-flight count all describe the same instant.
	snap, _ := b.cfg.Meta.Snapshot()
	ids := snap.ServerIDs()
	if len(ids) < 2 {
		return Decision{Reason: "need at least two servers"}
	}

	// Refresh counters and rates for every reachable server; an
	// unreachable server is skipped (and excluded as source or target)
	// rather than aborting the pass — one crashed server must not disable
	// elasticity for the rest of the cluster. Rates need two observations;
	// the first pass primes.
	stats := make(map[string]wire.StatsResp, len(ids))
	var reachable []string
	primed := true
	for _, id := range ids {
		resp, err := b.statsRPC(ctx, id)
		if err != nil {
			continue
		}
		reachable = append(reachable, id)
		now := time.Now()
		stats[id] = resp
		b.mu.Lock()
		prev, ok := b.prev[id]
		b.prev[id] = counterSample{ops: resp.OpsCompleted, at: now}
		if !ok || now.Sub(prev.at) <= 0 {
			primed = false
		} else {
			b.rates[id] = float64(resp.OpsCompleted-prev.ops) / now.Sub(prev.at).Seconds()
		}
		b.mu.Unlock()
	}
	if len(reachable) < 2 {
		return Decision{Reason: fmt.Sprintf("only %d of %d servers reachable", len(reachable), len(ids))}
	}
	if !primed {
		return Decision{Reason: "priming load counters"}
	}
	ids = reachable

	// Track scale-in cold streaks: consecutive passes below the low-water
	// mark. Unreachable servers reset — a dead server is a failover problem,
	// not a drain candidate.
	if b.cfg.ScaleIn {
		b.mu.Lock()
		seen := make(map[string]bool, len(ids))
		for _, id := range ids {
			seen[id] = true
			if b.rates[id] < b.cfg.ScaleInBelowOps {
				b.coldStreak[id]++
			} else {
				delete(b.coldStreak, id)
			}
		}
		for id := range b.coldStreak {
			if !seen[id] {
				delete(b.coldStreak, id)
			}
		}
		b.mu.Unlock()
	}

	// Servers party to an in-flight migration sit the pass out: their load
	// is mid-hand-off and a second move would race the record transfer.
	// Disjoint moves between the remaining servers proceed concurrently —
	// the store's overlap rejection is the backstop if another balancer
	// host races this pass.
	busy := make(map[string]bool)
	inFlight := 0
	for _, m := range snap.Migrations {
		if m.InFlight() {
			busy[m.Source] = true
			busy[m.Target] = true
			inFlight++
		}
	}

	b.mu.Lock()
	rem := time.Until(b.cooldownUntil)
	cands := make([]moveCandidate, 0, len(ids))
	for _, id := range ids {
		cands = append(cands, moveCandidate{
			ID: id, Rate: b.rates[id], Stats: stats[id], Busy: busy[id],
		})
	}
	b.mu.Unlock()

	moves, reason := planMoves(planRequest{
		Candidates:        cands,
		MaxMoves:          b.cfg.MaxConcurrent,
		Imbalance:         b.cfg.Imbalance,
		MinOpsPerSec:      b.cfg.MinOpsPerSec,
		MinSplitSamples:   b.cfg.MinSplitSamples,
		CooldownRemaining: rem,
	})
	if len(moves) == 0 {
		// No split to make; a chronically cold server may be drainable.
		if d, acted := b.maybeScaleIn(ctx, cands, inFlight, rem); acted {
			return d
		}
		return Decision{Reason: reason}
	}

	// Independent disjoint-range migrations start in parallel, each under
	// its own timeout; one failed or hung RPC neither delays nor cancels
	// the others.
	var wg sync.WaitGroup
	for i := range moves {
		wg.Add(1)
		go func(m *Move) {
			defer wg.Done()
			mctx, cancel := context.WithTimeout(ctx, b.cfg.RPCTimeout)
			defer cancel()
			if err := b.admin.Migrate(mctx, m.Source, m.Target, m.Range); err != nil {
				m.Err = err.Error()
			}
		}(&moves[i])
	}
	wg.Wait()

	d := Decision{Moves: moves}
	parts := make([]string, 0, len(moves))
	for _, m := range moves {
		if m.Err != "" {
			parts = append(parts, fmt.Sprintf("%s->%s %s: migrate RPC failed: %s",
				m.Source, m.Target, m.Range, m.Err))
			continue
		}
		parts = append(parts, fmt.Sprintf("%s->%s %s", m.Source, m.Target, m.Range))
		if !d.Acted {
			d.Acted, d.Source, d.Target, d.Range = true, m.Source, m.Target, m.Range
		}
	}
	if d.Acted {
		d.Reason = fmt.Sprintf("split %d hot server(s): %s", len(moves), strings.Join(parts, "; "))
	} else {
		d.Reason = strings.Join(parts, "; ")
	}
	return d
}

// moveCandidate is one reachable server's view as a planning input.
type moveCandidate struct {
	ID    string
	Rate  float64
	Stats wire.StatsResp
	// Busy marks a server party to an in-flight migration; it is excluded
	// as both source and target for this pass.
	Busy bool
}

// planRequest bundles everything planMoves consumes, making planning a pure
// function of its inputs (table-testable without a cluster).
type planRequest struct {
	Candidates        []moveCandidate
	MaxMoves          int
	Imbalance         float64
	MinOpsPerSec      float64
	MinSplitSamples   int
	CooldownRemaining time.Duration
}

// planMoves picks up to MaxMoves migrations for one pass: the hottest free
// servers split at their sampled load medians toward the coolest free
// servers, each server party to at most one move. Because every planned
// range is carved from its own source's ownership and ownership is
// disjoint, the planned ranges are disjoint by construction. Returns the
// moves, or a reason why the pass planned none.
func planMoves(req planRequest) ([]Move, string) {
	if req.CooldownRemaining > 0 {
		return nil, fmt.Sprintf("cooling down for %v", req.CooldownRemaining.Round(time.Millisecond))
	}
	free := make([]moveCandidate, 0, len(req.Candidates))
	nbusy := 0
	for _, c := range req.Candidates {
		if c.Busy {
			nbusy++
			continue
		}
		free = append(free, c)
	}
	if len(free) < 2 {
		if nbusy > 0 {
			return nil, fmt.Sprintf("%d server(s) busy with in-flight migrations, %d free", nbusy, len(free))
		}
		return nil, "need at least two servers"
	}
	// Hottest first; ties broken by id so planning is deterministic.
	sort.Slice(free, func(i, j int) bool {
		if free[i].Rate != free[j].Rate {
			return free[i].Rate > free[j].Rate
		}
		return free[i].ID < free[j].ID
	})
	maxMoves := req.MaxMoves
	if maxMoves < 1 {
		maxMoves = 1
	}
	var moves []Move
	var skipped string
	lo := len(free) - 1
	for hi := 0; hi < lo && len(moves) < maxMoves; hi++ {
		src, tgt := free[hi], free[lo]
		if src.Rate == tgt.Rate {
			if len(moves) == 0 {
				return nil, "load is uniform"
			}
			break
		}
		if src.Rate < req.MinOpsPerSec {
			if len(moves) == 0 {
				return nil, fmt.Sprintf("cluster idle (%.0f ops/s < %.0f floor)", src.Rate, req.MinOpsPerSec)
			}
			break
		}
		if src.Rate < req.Imbalance*tgt.Rate {
			if len(moves) == 0 {
				return nil, fmt.Sprintf("balanced (%.0f vs %.0f ops/s, threshold %.1fx)",
					src.Rate, tgt.Rate, req.Imbalance)
			}
			break
		}
		rng, reason := splitPoint(src.Stats, req.MinSplitSamples)
		if reason != "" {
			// No usable split on this source; try the next-hottest against
			// the same target.
			skipped = fmt.Sprintf("%s: %s", src.ID, reason)
			continue
		}
		moves = append(moves, Move{Source: src.ID, Target: tgt.ID, Range: rng})
		lo--
	}
	if len(moves) == 0 {
		if skipped != "" {
			return nil, skipped
		}
		return nil, "no usable split"
	}
	return moves, ""
}

// maybeScaleIn runs the scale-in policy when a pass planned no splits:
// drain the coldest server whose rate sat below the low-water mark for
// enough consecutive passes. Returns acted=true when a drain was attempted
// (successfully or not) so the pass reports it and arms the cooldown.
func (b *Balancer) maybeScaleIn(ctx context.Context, cands []moveCandidate, inFlight int, cooldown time.Duration) (Decision, bool) {
	if !b.cfg.ScaleIn {
		return Decision{}, false
	}
	b.mu.Lock()
	streaks := make(map[string]int, len(b.coldStreak))
	for id, n := range b.coldStreak {
		streaks[id] = n
	}
	b.mu.Unlock()
	victim, _ := planScaleIn(scaleInRequest{
		Candidates:        cands,
		Streaks:           streaks,
		Self:              b.cfg.Self,
		BelowOps:          b.cfg.ScaleInBelowOps,
		AfterPasses:       b.cfg.ScaleInAfterPasses,
		MinServers:        b.cfg.MinServers,
		InFlight:          inFlight,
		CooldownRemaining: cooldown,
	})
	if victim == "" {
		return Decision{}, false
	}
	dctx, cancel := context.WithTimeout(ctx, b.cfg.DrainTimeout)
	defer cancel()
	resp, err := b.admin.Drain(dctx, victim)
	b.mu.Lock()
	delete(b.coldStreak, victim)
	b.mu.Unlock()
	if err != nil {
		return Decision{Reason: fmt.Sprintf("scale-in: drain %s failed: %s", victim, err)}, true
	}
	return Decision{
		Acted: true, Source: victim,
		Reason: fmt.Sprintf("scale-in: drained %s (%d range(s) moved, retired=%v)",
			victim, resp.Moved, resp.Retired),
	}, true
}

// scaleInRequest bundles everything planScaleIn consumes, making the drain
// decision a pure function of its inputs (table-testable without a cluster).
type scaleInRequest struct {
	Candidates        []moveCandidate
	Streaks           map[string]int
	Self              string
	BelowOps          float64
	AfterPasses       int
	MinServers        int
	InFlight          int
	CooldownRemaining time.Duration
}

// planScaleIn picks at most one server to drain: the coldest one whose rate
// stayed below the low-water mark for AfterPasses consecutive passes. It
// never drains while any migration is in flight, during cooldown, below the
// MinServers floor, the balancer's own host (Self), or a server that is
// itself party to a migration. Returns the victim id ("" = none) and a
// reason when the policy held fire despite an armed candidate.
func planScaleIn(req scaleInRequest) (string, string) {
	if req.CooldownRemaining > 0 {
		return "", "cooling down"
	}
	if req.InFlight > 0 {
		return "", "migrations in flight"
	}
	if len(req.Candidates) <= req.MinServers {
		return "", fmt.Sprintf("at the %d-server floor", req.MinServers)
	}
	victim := ""
	var vrate float64
	for _, c := range req.Candidates {
		if c.Busy || c.ID == req.Self {
			continue
		}
		if c.Rate >= req.BelowOps || req.Streaks[c.ID] < req.AfterPasses {
			continue
		}
		if victim == "" || c.Rate < vrate || (c.Rate == vrate && c.ID < victim) {
			victim, vrate = c.ID, c.Rate
		}
	}
	return victim, ""
}

// statsRPC fetches one server's stats under the per-RPC timeout, so a hung
// server cannot consume the whole pass's budget.
func (b *Balancer) statsRPC(ctx context.Context, id string) (wire.StatsResp, error) {
	rctx, cancel := context.WithTimeout(ctx, b.cfg.RPCTimeout)
	defer cancel()
	return b.admin.Stats(rctx, id)
}

// splitPoint picks the range to migrate off an overloaded server: the owned
// range holding the most load samples, split at the sampled median so
// roughly half that range's observed load moves. Returns a non-empty reason
// when no usable split exists.
func splitPoint(st wire.StatsResp, minSamples int) (metadata.HashRange, string) {
	if len(st.Ranges) == 0 {
		return metadata.HashRange{}, "source owns no ranges"
	}
	// Bucket the samples by owned range; keep the hottest range.
	var hot metadata.HashRange
	var hotSamples []uint64
	for _, r := range st.Ranges {
		var in []uint64
		for _, h := range st.HashSample {
			if r.Contains(h) {
				in = append(in, h)
			}
		}
		if len(in) > len(hotSamples) {
			hot, hotSamples = r, in
		}
	}
	if len(hotSamples) < minSamples {
		return metadata.HashRange{}, fmt.Sprintf("only %d in-range load samples (need %d)",
			len(hotSamples), minSamples)
	}
	sort.Slice(hotSamples, func(i, j int) bool { return hotSamples[i] < hotSamples[j] })
	split := hotSamples[len(hotSamples)/2]
	if split <= hot.Start {
		// The median sits on the range's first hash; move everything above
		// the first distinct sample instead, if any.
		for _, h := range hotSamples {
			if h > hot.Start {
				split = h
				break
			}
		}
		if split <= hot.Start {
			return metadata.HashRange{}, "sampled load is a single hash; nothing to split"
		}
	}
	return metadata.HashRange{Start: split, End: hot.End}, ""
}
