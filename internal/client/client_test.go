package client_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

func fixture(t *testing.T) (*metadata.Store, *transport.InMem, *core.Server) {
	t.Helper()
	meta := metadata.NewStore()
	tr := transport.NewInMem(transport.Free)
	dev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	srv, err := core.NewServer(core.ServerConfig{
		ID: "s1", Addr: "s1", Threads: 1, Transport: tr, Meta: meta,
		Store: faster.Config{IndexBuckets: 1 << 10,
			Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
				Device: dev, LogID: "s1"}},
	}, metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	meta.SetServerAddr("s1", srv.Addr())
	t.Cleanup(func() { srv.Close(); dev.Close() })
	return meta, tr, srv
}

func TestConfigValidation(t *testing.T) {
	if _, err := client.NewThread(client.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestBatchingFlushesAtThreshold(t *testing.T) {
	meta, tr, srv := fixture(t)
	_ = srv
	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	// Three ops: below threshold, nothing sent yet.
	for i := 0; i < 3; i++ {
		ct.Upsert(ycsb.KeyBytes(uint64(i)), []byte("v"), nil)
	}
	if ct.Stats().BatchesSent != 0 {
		t.Fatal("batch sent below threshold")
	}
	// Fourth op triggers the flush.
	ct.Upsert(ycsb.KeyBytes(3), []byte("v"), nil)
	if ct.Stats().BatchesSent != 1 {
		t.Fatalf("batches sent = %d, want 1", ct.Stats().BatchesSent)
	}
	if !ct.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
}

func TestCallbacksExactlyOnce(t *testing.T) {
	meta, tr, _ := fixture(t)
	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	counts := make(map[uint64]int)
	const n = 200
	for i := uint64(0); i < n; i++ {
		i := i
		ct.RMW(ycsb.KeyBytes(i), nil, func(st wire.ResultStatus, _ []byte) {
			counts[i]++
		})
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	for i := uint64(0); i < n; i++ {
		if counts[i] != 1 {
			t.Fatalf("key %d callback ran %d times", i, counts[i])
		}
	}
}

func TestOutstandingAccounting(t *testing.T) {
	meta, tr, _ := fixture(t)
	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	for i := 0; i < 10; i++ {
		ct.Upsert(ycsb.KeyBytes(uint64(i)), []byte("v"), nil)
	}
	if got := ct.Outstanding(); got != 10 {
		t.Fatalf("outstanding = %d, want 10", got)
	}
	if !ct.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	if got := ct.Outstanding(); got != 0 {
		t.Fatalf("outstanding after drain = %d", got)
	}
}

func TestValueCopySemantics(t *testing.T) {
	// The client copies keys and values at issue time: mutating the
	// caller's buffers afterwards must not corrupt the stored data.
	meta, tr, _ := fixture(t)
	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	key := []byte("mutable-key")
	val := []byte("original")
	ct.Upsert(key, val, nil)
	copy(val, "CLOBBER!")
	var got string
	ct.Read([]byte("mutable-key"), func(st wire.ResultStatus, v []byte) {
		got = string(v)
	})
	if !ct.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	if got != "original" {
		t.Fatalf("stored %q; caller buffer mutation leaked", got)
	}
}

func TestMigrateRPC(t *testing.T) {
	meta, tr, srv := fixture(t)
	dev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer dev.Close()
	tgt, err := core.NewServer(core.ServerConfig{
		ID: "s2", Addr: "s2", Threads: 1, Transport: tr, Meta: meta,
		Store: faster.Config{IndexBuckets: 1 << 10,
			Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
				Device: dev, LogID: "s2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tgt.Close()
	meta.SetServerAddr("s2", tgt.Addr())

	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()
	// Seed a little data, then drive the Migrate() RPC through the client.
	d := make([]byte, 8)
	binary.LittleEndian.PutUint64(d, 1)
	for i := uint64(0); i < 100; i++ {
		ct.RMW(ycsb.KeyBytes(i), d, nil)
	}
	ct.Drain(10 * time.Second)

	admin := client.NewAdmin(tr, meta)
	if err := admin.Migrate(context.Background(), "s1", "s2",
		metadata.HashRange{Start: 0, End: 1 << 62}); err != nil {
		t.Fatal(err)
	}
	// Migration registered at the metadata store.
	deadline := time.Now().Add(10 * time.Second)
	pending := func() int {
		snap, _ := meta.Snapshot()
		return len(snap.PendingMigrationsFor("s1"))
	}
	for pending() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if pending() != 0 {
		t.Fatal("migration never completed")
	}
	// Operations still complete after the view change (reissue path).
	ok := 0
	for i := uint64(0); i < 100; i++ {
		ct.RMW(ycsb.KeyBytes(i), d, func(st wire.ResultStatus, _ []byte) {
			if st == wire.StatusOK {
				ok++
			}
		})
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("post-migration drain timed out")
	}
	if ok != 100 {
		t.Fatalf("%d/100 ops after migration", ok)
	}
	_ = srv
}

// trickleTransport is a deterministic fake: every Send of a request batch
// enqueues one single-result response frame per op, and TryRecv hands back at
// most one frame per Poll (it reports empty every other call), each delivery
// costing a fixed delay. A drain over N ops therefore takes ~N*delay of wall
// clock while almost every Poll makes progress — the "steady partial
// progress" schedule that used to keep Drain looping past its deadline.
type trickleTransport struct {
	delay time.Duration
}

func (tt *trickleTransport) Listen(addr string) (transport.Listener, error) {
	return nil, fmt.Errorf("trickle: listen unsupported")
}

func (tt *trickleTransport) Dial(addr string) (transport.Conn, error) {
	return &trickleConn{delay: tt.delay}, nil
}

type trickleConn struct {
	delay time.Duration
	queue [][]byte
	gate  bool
}

func (c *trickleConn) Send(frame []byte) error {
	var rb wire.RequestBatch
	if err := wire.DecodeRequestBatch(frame, &rb); err != nil {
		return nil // admin frames etc.: ignore
	}
	for i := range rb.Ops {
		resp := wire.ResponseBatch{SessionID: rb.SessionID,
			Results: []wire.Result{{Seq: rb.Ops[i].Seq, Status: wire.StatusOK}}}
		c.queue = append(c.queue, wire.AppendResponseBatch(nil, &resp))
	}
	return nil
}

func (c *trickleConn) Recv() ([]byte, error) {
	f, ok, err := c.TryRecv()
	if err != nil || !ok {
		return nil, fmt.Errorf("trickle: empty")
	}
	return f, nil
}

func (c *trickleConn) TryRecv() ([]byte, bool, error) {
	if c.gate || len(c.queue) == 0 {
		c.gate = false
		return nil, false, nil
	}
	c.gate = true
	f := c.queue[0]
	c.queue = c.queue[1:]
	time.Sleep(c.delay)
	return f, true, nil
}

func (c *trickleConn) Close() error { return nil }

// TestDrainDeadlineUnderPartialProgress: a session that keeps completing
// operations — but too slowly to ever empty the outstanding set before the
// timeout — must still stop Drain at the deadline. The deadline is checked
// every iteration, not only on idle polls.
func TestDrainDeadlineUnderPartialProgress(t *testing.T) {
	meta := metadata.NewStore()
	meta.RegisterServer("slow", metadata.FullRange)
	meta.SetServerAddr("slow", "slow")
	ct, err := client.NewThread(client.Config{
		Transport: &trickleTransport{delay: 100 * time.Microsecond},
		Meta:      meta, BatchOps: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	const n = 3000 // ~300ms of trickled completions
	for i := 0; i < n; i++ {
		ct.Upsert(ycsb.KeyBytes(uint64(i)), []byte("v"), nil)
	}
	start := time.Now()
	const timeout = 30 * time.Millisecond
	if ct.Drain(timeout) {
		t.Fatal("drain completed against a server that cannot finish in time")
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("drain overshot its deadline: ran %v with a %v timeout", elapsed, timeout)
	}
	if ct.Outstanding() == 0 {
		t.Fatal("test premise broken: nothing left outstanding")
	}
}

// TestCloseCompletesOutstanding: Close must fire every outstanding
// operation's callback with StatusClosed — buffered and in-flight alike — and
// operations issued after Close must fail the same way. An issued operation
// always gets exactly one completion.
func TestCloseCompletesOutstanding(t *testing.T) {
	meta := metadata.NewStore()
	tr := transport.NewInMem(transport.Free)
	if _, err := tr.Listen("dead"); err != nil {
		t.Fatal(err)
	}
	meta.RegisterServer("dead", metadata.FullRange)
	meta.SetServerAddr("dead", "dead")

	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10 // crosses the batch threshold: some flushed, some buffered
	status := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		ct.Upsert(ycsb.KeyBytes(uint64(i)), []byte("v"), func(st wire.ResultStatus, _ []byte) {
			status[i]++
			if st != wire.StatusClosed {
				t.Errorf("op %d completed with %v, want StatusClosed", i, st)
			}
		})
	}
	ct.Close()
	for i, c := range status {
		if c != 1 {
			t.Fatalf("op %d callback ran %d times, want exactly once", i, c)
		}
	}
	if got := ct.Outstanding(); got != 0 {
		t.Fatalf("outstanding after Close = %d, want 0", got)
	}

	// Post-Close issue: immediate StatusClosed completion plus ErrClosed.
	fired := false
	err = ct.Read([]byte("late"), func(st wire.ResultStatus, _ []byte) {
		fired = true
		if st != wire.StatusClosed {
			t.Errorf("post-close op completed with %v, want StatusClosed", st)
		}
	})
	if !errors.Is(err, client.ErrClosed) {
		t.Fatalf("post-close issue returned %v, want ErrClosed", err)
	}
	if !fired {
		t.Fatal("post-close op's callback never fired")
	}
	ct.Close() // idempotent
}

// TestOversizedKeyRefusedAtIssue: a request batch carries key lengths as u16,
// so a 65,536-byte key cannot be encoded. It must complete with StatusErr at
// issue time — before it joins a batch, where it used to corrupt the frame
// and strand every op batched with it — and leave the thread usable.
func TestOversizedKeyRefusedAtIssue(t *testing.T) {
	meta, tr, _ := fixture(t)
	ct, err := client.NewThread(client.Config{Transport: tr, Meta: meta, BatchOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Close()

	var neighbour, big wire.ResultStatus = 0xFF, 0xFF
	ct.Upsert([]byte("neighbour"), []byte("v"), func(st wire.ResultStatus, _ []byte) { neighbour = st })
	err = ct.Upsert(make([]byte, 1<<16), []byte("v"), func(st wire.ResultStatus, _ []byte) { big = st })
	if err == nil || big != wire.StatusErr {
		t.Fatalf("oversized key: err %v, callback status %d; want an error and StatusErr", err, big)
	}
	if got := ct.Outstanding(); got != 1 {
		t.Fatalf("outstanding = %d, want 1 (only the neighbour)", got)
	}
	var got string
	ct.Read([]byte("neighbour"), func(_ wire.ResultStatus, v []byte) { got = string(v) })
	if !ct.Drain(5 * time.Second) {
		t.Fatal("drain timed out: the batch the oversized key was issued into never completed")
	}
	if neighbour != wire.StatusOK || got != "v" {
		t.Fatalf("neighbour status %d, read back %q", neighbour, got)
	}
}
