package shadowfax

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// Client is a cluster-aware handle over one or more client threads
// (§3.1.1). Operations are hashed to their owning server, buffered into
// view-tagged batches, pipelined, and transparently re-routed when ownership
// moves. The synchronous methods (Get/Set/RMW/Delete) block on a context;
// the *Async variants return pooled Futures.
//
// A Client is safe for concurrent use: each underlying thread is guarded by
// a mutex, and waiters drive the thread's poll loop themselves unless a
// background pump goroutine was enabled with WithBackgroundPump.
type Client struct {
	shards []*shard
	next   atomic.Uint64 // round-robin shard picker

	maxOutstanding int
	pumpStop       chan struct{} // nil without WithBackgroundPump
	pumpDone       chan struct{}
	closed         atomic.Bool

	futures sync.Pool
}

// shard is one single-owner client thread plus the lock that serializes its
// users (issuers, waiters, the pump).
type shard struct {
	mu sync.Mutex
	t  *client.Thread
}

type dialConfig struct {
	threads        int
	maxOutstanding int
	pump           bool
	cfg            client.Config
}

// DialOption configures Dial.
type DialOption func(*dialConfig)

// WithClientThreads shards the client across n independent threads
// (round-robin); each thread owns its sessions and batches. Default 1.
func WithClientThreads(n int) DialOption {
	return func(dc *dialConfig) { dc.threads = n }
}

// WithBatchOps flushes a session's buffer at this many operations
// (default 256); a batch that reaches 32 KiB encoded flushes earlier.
func WithBatchOps(n int) DialOption {
	return func(dc *dialConfig) { dc.cfg.BatchOps = n }
}

// WithMaxOutstanding bounds issued-but-uncompleted operations per thread;
// issuing past the bound drives the poll loop until there is room
// (default 4096). This is the client-side flow control the examples used to
// hand-roll.
func WithMaxOutstanding(n int) DialOption {
	return func(dc *dialConfig) { dc.maxOutstanding = n }
}

// WithBackgroundPump starts a goroutine that continuously flushes and polls
// every shard, so fire-and-forget operations complete without anyone
// waiting on them. Without it, progress is driven by Wait/Drain/Flush
// callers (the classic poll-driven mode).
func WithBackgroundPump() DialOption {
	return func(dc *dialConfig) { dc.pump = true }
}

// Dial connects a client to the cluster. The connection to each server is
// established lazily, on the first operation routed to it.
func Dial(cluster *Cluster, opts ...DialOption) (*Client, error) {
	dc := dialConfig{threads: 1, maxOutstanding: 4096}
	for _, o := range opts {
		o(&dc)
	}
	if dc.threads < 1 {
		dc.threads = 1
	}
	if dc.maxOutstanding < 1 {
		dc.maxOutstanding = 4096
	}
	dc.cfg.Transport = cluster.tr
	dc.cfg.Meta = cluster.meta

	c := &Client{maxOutstanding: dc.maxOutstanding}
	for i := 0; i < dc.threads; i++ {
		th, err := client.NewThread(dc.cfg)
		if err != nil {
			for _, sh := range c.shards {
				sh.t.Close()
			}
			return nil, err
		}
		c.shards = append(c.shards, &shard{t: th})
	}
	if dc.pump {
		c.pumpStop = make(chan struct{})
		c.pumpDone = make(chan struct{})
		go c.pumpLoop()
	}
	return c, nil
}

// pick selects the shard for a new operation.
func (c *Client) pick() *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[c.next.Add(1)%uint64(len(c.shards))]
}

// newFuture takes a pooled Future and arms it for one completion.
func (c *Client) newFuture(sh *shard) *Future {
	f, _ := c.futures.Get().(*Future)
	if f == nil {
		f = &Future{c: c, ch: make(chan struct{}, 1)}
		f.cb = f.complete
	}
	f.sh = sh
	f.state.Store(futArmed)
	return f
}

// issue routes one operation to a shard and returns its armed Future. With
// flush set, the shard's partial batch is pushed out immediately (the
// synchronous methods are about to wait on it). ctx bounds only the
// flow-control wait; the operation itself is bounded by whatever waits on
// the Future.
func (c *Client) issue(ctx context.Context, kind wire.OpKind, key, value []byte, flush bool) *Future {
	sh := c.pick()
	f := c.newFuture(sh)
	sh.mu.Lock()
	// WithMaxOutstanding: drive the shard until there is room. Flow control is
	// advisory — when the client closes (Close settles the ops) or ctx is done
	// (a synchronous caller's deadline) the operation is issued anyway, so the
	// caller's Wait can surface the context error instead of wedging here.
	for sh.t.Outstanding() >= c.maxOutstanding && !c.closed.Load() && ctx.Err() == nil {
		sh.mu.Unlock()
		sh.drive(20 * time.Microsecond)
		sh.mu.Lock()
	}
	sh.t.Issue(kind, key, value, f.cb) //nolint:errcheck // issue failures complete f via the callback
	if flush {
		sh.t.Flush()
	}
	sh.mu.Unlock()
	return f
}

// drive is the one place a shard's thread is flushed and polled — by the
// pump, by waiters when no pump runs, by back-pressure, Drain and Flush. It
// returns the number of operations completed, after sleeping for idle if none.
func (sh *shard) drive(idle time.Duration) int {
	sh.mu.Lock()
	sh.t.Flush()
	n := sh.t.Poll()
	sh.mu.Unlock()
	if n == 0 {
		time.Sleep(idle)
	}
	return n
}

// driveAll drives every shard once.
func (c *Client) driveAll() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.drive(0)
	}
	return n
}

func (c *Client) pumpLoop() {
	defer close(c.pumpDone)
	for {
		select {
		case <-c.pumpStop:
			return
		default:
		}
		if c.driveAll() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// GetAsync issues an asynchronous read.
func (c *Client) GetAsync(key []byte) *Future {
	return c.issue(context.Background(), wire.OpRead, key, nil, false)
}

// SetAsync issues an asynchronous blind write.
func (c *Client) SetAsync(key, value []byte) *Future {
	return c.issue(context.Background(), wire.OpUpsert, key, value, false)
}

// RMWAsync issues an asynchronous read-modify-write with the given input
// (the default store semantics treat values as 8-byte little-endian
// counters and inputs as deltas).
func (c *Client) RMWAsync(key, input []byte) *Future {
	return c.issue(context.Background(), wire.OpRMW, key, input, false)
}

// DeleteAsync issues an asynchronous delete.
func (c *Client) DeleteAsync(key []byte) *Future {
	return c.issue(context.Background(), wire.OpDelete, key, nil, false)
}

// Get reads key and returns a copy of its value. A missing key returns
// ErrNotFound.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, error) {
	f := c.issue(ctx, wire.OpRead, key, nil, true)
	defer f.Release()
	v, err := f.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Set writes value under key (blind upsert).
func (c *Client) Set(ctx context.Context, key, value []byte) error {
	return c.waitRelease(ctx, c.issue(ctx, wire.OpUpsert, key, value, true))
}

// RMW applies a read-modify-write with the given input to key, initializing
// the key if absent.
func (c *Client) RMW(ctx context.Context, key, input []byte) error {
	return c.waitRelease(ctx, c.issue(ctx, wire.OpRMW, key, input, true))
}

// Delete removes key. Deleting an absent key succeeds (a tombstone is
// written).
func (c *Client) Delete(ctx context.Context, key []byte) error {
	return c.waitRelease(ctx, c.issue(ctx, wire.OpDelete, key, nil, true))
}

func (c *Client) waitRelease(ctx context.Context, f *Future) error {
	_, err := f.Wait(ctx)
	f.Release()
	return err
}

// Flush pushes every shard's partial batches to the wire.
func (c *Client) Flush() { c.driveAll() }

// Drain flushes and polls until no operations are outstanding or ctx is
// done. The context is observed every iteration, even while completions keep
// arriving.
func (c *Client) Drain(ctx context.Context) error {
	for {
		progress := c.driveAll()
		if c.Outstanding() == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return c.ctxError(err)
		}
		if progress == 0 {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// sum adds up one per-thread quantity across the shards, under their locks.
func (c *Client) sum(of func(*client.Thread) int) int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += of(sh.t)
		sh.mu.Unlock()
	}
	return n
}

// Outstanding returns the number of issued-but-uncompleted operations across
// all shards.
func (c *Client) Outstanding() int { return c.sum((*client.Thread).Outstanding) }

// BrokenSessions reports how many server connections died and await
// RecoverSessions.
func (c *Client) BrokenSessions() int { return c.sum((*client.Thread).BrokenSessions) }

// FailBrokenSessions gives up on every broken session across the client's
// shards: parked operations complete with ErrSessionBroken (their Futures
// unblock, their callbacks fire) and the sessions are dropped so later
// operations dial fresh. Use it when RecoverSessions has exhausted its
// retries — the server is gone for good or ownership moved elsewhere — and
// waiting callers must fail promptly instead of blocking forever. An
// ErrSessionBroken write may or may not have executed; exactly-once holds
// only for operations reconciled through RecoverSessions. Returns the number
// of operations failed.
func (c *Client) FailBrokenSessions() int { return c.sum((*client.Thread).FailBroken) }

// RecoverSessions reconciles every session against its (possibly restarted)
// server: operations at or below the server's durable prefix complete
// without re-execution, the rest replay in order — exactly-once update
// semantics across a server crash (§3.3.1). Call it after a crash/restart;
// it can be retried on error.
func (c *Client) RecoverSessions(ctx context.Context) error {
	for _, sh := range c.shards {
		// Cancellation is observed between shards; each shard's handshake
		// is bounded by the context's *remaining* time (recomputed every
		// iteration so N shards cannot stack N full timeouts), capped at a
		// 5s default for deadline-less contexts.
		if err := ctx.Err(); err != nil {
			return err
		}
		timeout := 5 * time.Second
		if dl, ok := ctx.Deadline(); ok {
			timeout = min(timeout, time.Until(dl))
		}
		sh.mu.Lock()
		err := sh.t.RecoverSessions(timeout)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates the client's counters across its shards.
func (c *Client) Stats() ClientStats {
	var out client.ThreadStats
	for _, sh := range c.shards {
		sh.mu.Lock()
		out.Add(sh.t.Stats())
		sh.mu.Unlock()
	}
	return ClientStats(out)
}

// Close stops the pump and tears down every session. Outstanding operations
// complete with ErrClosed — their Futures unblock and their callbacks fire;
// none are silently dropped. Operations issued after Close fail with
// ErrClosed immediately. Close is idempotent.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.pumpStop != nil {
		close(c.pumpStop)
		<-c.pumpDone
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.t.Close()
		sh.mu.Unlock()
	}
	return nil
}

// ctxError decorates a context error with ErrSessionBroken when the stall is
// explained by dead server connections.
func (c *Client) ctxError(err error) error {
	if n := c.BrokenSessions(); n > 0 {
		return &sessionBrokenError{sessions: n, cause: err}
	}
	return err
}
