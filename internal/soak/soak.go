// Package soak is the linearizability soak harness: it boots an in-process
// deployment through the public repro/shadowfax API, drives it with skewed
// load from many client workers, breaks it on a deterministic schedule, and
// checks a per-key linearizability invariant throughout. It is one harness
// and three fault scripts.
//
// The ledger (ledger.go) is the checker. The invariant rides on the RMW
// counter merge (8-byte little-endian additive): every key is a counter,
// writers only increment it, so a linearizable history must show each read
// landing between the greatest completed increment the reader could know
// about and the total number of increments ever issued. Per key the ledger
// keeps three monotonic atomics:
//
//	issued   — incremented before an RMW is handed to the client
//	acked    — incremented after the RMW's future completes OK
//	observed — CAS-max of every value a read returned
//
// A read snapshots floor = max(acked, observed) before it is issued and
// asserts floor ≤ value ≤ issued (issued re-read after completion) — a stale
// value, a lost increment, or a double-applied recovery replay all trip it.
// After the run drains, a final sweep asserts acked ≤ value ≤ issued for
// every key (all acked writes survived every fault; nothing was applied
// twice). A run that recorded violations dumps them, with the per-key
// counters, into Load.ArtifactDir.
//
// The load driver (this file) is the harness type: restartable server
// slots, the client workers (75% increments, 25% checked reads, zipf-skewed),
// session repair, the final sweep, and the run skeleton every entry point
// follows — boot, preload, drive(script), finish.
//
// A fault script is only about what breaks when. It embeds the harness,
// boots its own topology into the harness's node slots, and hands drive a
// function that runs while the workers load the system:
//
//	cluster.go   — Run: N servers; kill/restart-with-recovery cycles,
//	               migration cancels, forced concurrent migration pairs, live
//	               overlapping-start attempts
//	failover.go  — RunFailover: a replicated pair; kill the primary, the
//	               backup, or the primary racing its own restart
//	partition.go — RunPartition: a replicated pair behind a chaos network;
//	               standby partition, metadata partition, primary kill
//
// A fourth script is one more file of that shape: a config embedding Load,
// a result embedding Outcome, a boot that fills harness.nodes and dials the
// clients, and the function passed to drive. What it decides about the load
// it sets as values on the harness (batchWait, shift, opFailed, the gate);
// the worker, the checks and the dump are not forked.
package soak

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/shadowfax"
)

// Load is the part of a soak's configuration the shared driver consumes;
// every script's config embeds it. Zero fields take the script's documented
// defaults.
type Load struct {
	// Threads is each server's dispatcher count (default 1).
	Threads int
	// Clients is the number of independent client workers.
	Clients int
	// Keys is the keyspace size.
	Keys int
	// BatchOps is each worker's async ops per flush round.
	BatchOps int
	// Seed fixes the workers' RNGs and the script's fault timing.
	Seed int64
	// ArtifactDir, when set, receives violations.txt and key_history.csv
	// after a run that recorded violations (CI failure artifacts).
	ArtifactDir string
	// Logf, when set, receives progress lines (e.g. testing.T.Logf).
	Logf func(format string, args ...any)
}

func (c *Load) withDefaults(clients, keys, batchOps int) {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Clients <= 0 {
		c.Clients = clients
	}
	if c.Keys <= 0 {
		c.Keys = keys
	}
	if c.BatchOps <= 0 {
		c.BatchOps = batchOps
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Outcome is the part of a soak's result every script reports; every
// script's result embeds it. A correct run has an empty Violations.
type Outcome struct {
	// Duration is the loaded phase's wall clock.
	Duration time.Duration
	// Ops counts acked client operations (reads + RMWs); AggregateMops is
	// Ops over Duration, in millions per second.
	Ops           uint64
	AggregateMops float64
	// Violations lists every linearizability or liveness breach observed
	// (capped); empty means the history checked out.
	Violations []string
}

// sampleDuration is every server's load-sampling (and migration sampling-
// phase) interval.
const sampleDuration = 20 * time.Millisecond

// poll re-evaluates cond every interval until it holds (true) or the
// timeout passes (false).
func poll(timeout, every time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(every) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// node is one server slot; srv is swapped in place across kill/restart
// cycles while the devices (durable slots only) persist the slot's state.
type node struct {
	id      string
	cluster *shadowfax.Cluster
	// opts is what every start of this slot passes; boot-only ownership and
	// WithRecovery ride along as start's extras.
	opts            []shadowfax.ServerOption
	logDev, ckptDev *shadowfax.MemDevice

	mu  sync.Mutex
	srv *shadowfax.Server
}

func (n *node) server() *shadowfax.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

func (n *node) start(extra ...shadowfax.ServerOption) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	opts := append(append([]shadowfax.ServerOption(nil), n.opts...), extra...)
	srv, err := shadowfax.NewServer(n.cluster, n.id, opts...)
	if err != nil {
		return fmt.Errorf("soak: starting %s: %w", n.id, err)
	}
	n.srv = srv
	return nil
}

// kill closes the slot's server abruptly; a slot that is already down (or
// never started) is left alone.
func (n *node) kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.srv != nil {
		n.srv.Close()
		n.srv = nil
	}
}

// harness is the load driver and run skeleton shared by every script.
type harness struct {
	cfg Load
	*ledger

	clusters []*shadowfax.Cluster
	nodes    []*node
	clients  []*shadowfax.Client

	// What the script decides about the load, set before drive:
	//
	// batchWait bounds one batch's completion.
	batchWait time.Duration
	// shift is added to every zipf draw, sampled once per batch.
	shift func() uint64
	// opFailed sees each op error that is not itself a ledger verdict; true
	// asks the worker to repair its sessions once the batch is through.
	opFailed func(worker, key int, read bool, err error) bool

	// gate pauses the workers: they hold it R across one batch, so a script
	// that needs the deployment quiescent takes it W and knows no client op
	// is in flight. Scripts whose faults must land under live traffic never
	// touch it.
	gate sync.RWMutex
	stop atomic.Bool

	start    time.Time
	loaded   time.Duration
	opsAcked atomic.Uint64

	// recMu serializes session recovery: the first worker to hit a broken
	// session repairs it for everyone; the rest retry as instant no-ops.
	recMu sync.Mutex
}

// newHarness returns a harness whose workers keep the zipf hotspot in place
// and repair their sessions after any failed op — what a script injecting
// faults under live traffic wants.
func newHarness(cfg Load, batchWait time.Duration) *harness {
	return &harness{
		cfg: cfg, ledger: newLedger(cfg.Keys), batchWait: batchWait,
		shift:    func() uint64 { return 0 },
		opFailed: func(int, int, bool, error) bool { return true },
	}
}

func (h *harness) addCluster(opts ...shadowfax.ClusterOption) *shadowfax.Cluster {
	c := shadowfax.NewCluster(opts...)
	h.clusters = append(h.clusters, c)
	return c
}

// addNode registers a server slot without starting it. A durable slot gets
// its own log and checkpoint devices, so a later start with WithRecovery
// sees the state its previous incarnation left.
func (h *harness) addNode(c *shadowfax.Cluster, id string, durable bool, opts ...shadowfax.ServerOption) *node {
	nd := &node{id: id, cluster: c, opts: append([]shadowfax.ServerOption{
		shadowfax.WithThreads(h.cfg.Threads),
		shadowfax.WithSampleDuration(sampleDuration),
	}, opts...)}
	if durable {
		nd.logDev = shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 2)
		nd.ckptDev = shadowfax.NewMemDevice(shadowfax.LatencyModel{}, 2)
		nd.opts = append(nd.opts,
			shadowfax.WithLogDevice(nd.logDev), shadowfax.WithCheckpointDevice(nd.ckptDev))
	}
	h.nodes = append(h.nodes, nd)
	return nd
}

func (h *harness) dial(c *shadowfax.Cluster, opts ...shadowfax.DialOption) error {
	opts = append(opts, shadowfax.WithClientThreads(1))
	for i := 0; i < h.cfg.Clients; i++ {
		cl, err := shadowfax.Dial(c, opts...)
		if err != nil {
			return fmt.Errorf("soak: dialing client %d: %w", i, err)
		}
		h.clients = append(h.clients, cl)
	}
	return nil
}

// close tears the deployment down newest-first: clients, then servers (a
// standby before its primary, everything before a metadata host booted
// first), then the clusters.
func (h *harness) close() {
	for _, cl := range h.clients {
		cl.Close()
	}
	for i := len(h.nodes) - 1; i >= 0; i-- {
		nd := h.nodes[i]
		nd.kill()
		if nd.logDev != nil {
			nd.logDev.Close()
			nd.ckptDev.Close()
		}
	}
	for i := len(h.clusters) - 1; i >= 0; i-- {
		h.clusters[i].Close()
	}
}

// drive is the loaded phase: start one worker per client, run the script
// while they load the deployment, stop them and wait them out.
func (h *harness) drive(script func()) {
	h.start = time.Now()
	var wg sync.WaitGroup
	for i, cl := range h.clients {
		wg.Add(1)
		go func(idx int, cl *shadowfax.Client) {
			defer wg.Done()
			h.worker(idx, cl)
		}(i, cl)
	}
	script()
	h.stop.Store(true)
	wg.Wait()
	h.loaded = time.Since(h.start)
}

// finish runs the final sweep, fills the common result fields and dumps the
// failure artifacts; detail is the script's own part of the dump's summary
// line.
func (h *harness) finish(detail string) Outcome {
	h.finalSweep()
	out := Outcome{Duration: h.loaded, Ops: h.opsAcked.Load(), Violations: h.violations()}
	if secs := h.loaded.Seconds(); secs > 0 {
		out.AggregateMops = float64(out.Ops) / secs / 1e6
	}
	h.dump(h.cfg.ArtifactDir, fmt.Sprintf("seed=%d duration=%v ops=%d %s",
		h.cfg.Seed, out.Duration, out.Ops, detail), h.cfg.Logf)
	return out
}

// worker drives one client with zipf-skewed batches of 75% RMW increments
// and 25% checked reads until the run stops. A batch a fault broke leaves
// its RMWs indeterminate: they stay unacked, and the [acked, issued] bounds
// cover both outcomes.
func (h *harness) worker(idx int, cl *shadowfax.Client) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(idx)*7919))
	zipf := rand.NewZipf(rng, 1.2, 8, uint64(h.cfg.Keys-1))
	delta := []byte{1, 0, 0, 0, 0, 0, 0, 0}

	type pendingOp struct {
		f     *shadowfax.Future
		key   int
		read  bool
		floor uint64
	}
	pend := make([]pendingOp, 0, h.cfg.BatchOps)

	for !h.stop.Load() {
		h.gate.RLock()
		if h.stop.Load() {
			h.gate.RUnlock()
			return
		}
		shift := h.shift()
		pend = pend[:0]
		for j := 0; j < h.cfg.BatchOps; j++ {
			k := int((zipf.Uint64() + shift) % uint64(h.cfg.Keys))
			if rng.Intn(4) == 0 {
				floor := h.floor(k)
				pend = append(pend, pendingOp{f: cl.GetAsync(h.keys[k]), key: k, read: true, floor: floor})
			} else {
				h.issue(k)
				pend = append(pend, pendingOp{f: cl.RMWAsync(h.keys[k], delta), key: k})
			}
		}
		cl.Flush()
		wctx, cancel := context.WithTimeout(context.Background(), h.batchWait)
		needRecover := false
		for _, p := range pend {
			v, err := p.f.Wait(wctx)
			switch {
			case p.read && (err == nil || errors.Is(err, shadowfax.ErrNotFound)):
				if h.checkRead(p.key, p.floor, v, err) {
					h.opsAcked.Add(1)
				}
			case err == nil:
				h.ack(p.key)
				h.opsAcked.Add(1)
			default:
				if h.opFailed(idx, p.key, p.read, err) {
					needRecover = true
				}
			}
			p.f.Release()
		}
		cancel()
		h.gate.RUnlock()
		if needRecover && !h.stop.Load() {
			h.recoverClient(cl)
		}
	}
}

// recoverClient repairs a client's sessions after a fault, retrying while a
// promotion, detach or restart is still in flight. Serialized so concurrent
// workers don't stack redundant handshakes. Returns false once recovery is
// wedged (a violation has been recorded) so callers can stop retrying.
func (h *harness) recoverClient(cl *shadowfax.Client) bool {
	h.recMu.Lock()
	defer h.recMu.Unlock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := cl.RecoverSessions(ctx)
		cancel()
		if err == nil {
			return true
		}
		if time.Now().After(deadline) {
			h.violate("client session recovery wedged: %v", err)
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// finalSweep reads every key once more through the first client and hands
// each value to the ledger's final check.
func (h *harness) finalSweep() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := h.clients[0]
	// The last batch may have died with a fault and been left parked on a
	// broken session (workers skip recovery once stopped); repair before
	// draining so the parked ops replay instead of wedging the drain. A
	// wedged recovery aborts the sweep outright — retrying it per key would
	// turn one violation into hours of bounded-timeout retries.
	if !h.recoverClient(cl) {
		h.violate("final sweep aborted: client sessions unrecoverable")
		return
	}
	dctx, dcancel := context.WithTimeout(ctx, 20*time.Second)
	err := cl.Drain(dctx)
	dcancel()
	if err != nil {
		h.violate("final drain failed: %v", err)
	}
	for i, key := range h.keys {
		if ctx.Err() != nil {
			h.violate("final sweep timed out at key %d of %d", i, len(h.keys))
			return
		}
		var v []byte
		for attempt := 0; attempt < 3; attempt++ {
			if v, err = cl.Get(ctx, key); err == nil {
				break
			}
			if !h.recoverClient(cl) {
				h.violate("final sweep aborted at key %d: client sessions unrecoverable", i)
				return
			}
		}
		if err != nil {
			h.violate("final sweep: key %d unreadable: %v", i, err)
			continue
		}
		h.checkFinal(i, v)
	}
}
