package shadowfax

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// testCluster boots a one-server cluster on the in-process transport.
func testCluster(t *testing.T, serverOpts ...ServerOption) (*Cluster, *Server) {
	t.Helper()
	cluster := NewCluster()
	opts := append([]ServerOption{WithThreads(1), WithIndexBuckets(1 << 10),
		WithMemoryBudget(12, 16, 8)}, serverOpts...)
	srv, err := NewServer(cluster, "s1", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return cluster, srv
}

func TestSyncRoundTrip(t *testing.T) {
	cluster, srv := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Set(ctx, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(ctx, []byte("k1"))
	if err != nil || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := cl.Get(ctx, []byte("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := cl.Delete(ctx, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, []byte("k1")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	// RMW counters (default store semantics).
	delta := []byte{1, 0, 0, 0, 0, 0, 0, 0}
	for i := 0; i < 3; i++ {
		if err := cl.RMW(ctx, []byte("ctr"), delta); err != nil {
			t.Fatal(err)
		}
	}
	v, err = cl.Get(ctx, []byte("ctr"))
	if err != nil || len(v) != 8 || v[0] != 3 {
		t.Fatalf("counter = %v, %v", v, err)
	}
	if srv.Stats().OpsCompleted == 0 {
		t.Fatal("server counters never moved")
	}
}

func TestAsyncFuturesAndDrain(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster, WithBatchOps(16))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 500
	for i := 0; i < n; i++ {
		cl.SetAsync(k(i), val(i)).Release() // fire-and-forget via Drain
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Futures waited on individually, out of issue order.
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		futs[i] = cl.GetAsync(k(i))
	}
	cl.Flush()
	for i := n - 1; i >= 0; i-- {
		v, err := futs[i].Wait(ctx)
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("future %d: %q, %v", i, v, err)
		}
		futs[i].Release()
	}
	if got := cl.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after all waits", got)
	}
	st := cl.Stats()
	if st.OpsIssued != 2*n || st.OpsCompleted != 2*n {
		t.Fatalf("client stats: %+v", st)
	}
}

func TestBackgroundPump(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster, WithBackgroundPump(), WithBatchOps(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// Fire-and-forget: the pump must complete these without any Wait/Drain.
	for i := 0; i < 100; i++ {
		cl.SetAsync(k(i), val(i)).Release()
	}
	deadline := time.Now().Add(5 * time.Second)
	for cl.Outstanding() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pump never drained: %d outstanding", cl.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
	// Sync ops block on the pump's completions.
	v, err := cl.Get(ctx, k(42))
	if err != nil || !bytes.Equal(v, val(42)) {
		t.Fatalf("Get under pump = %q, %v", v, err)
	}
}

func TestClientThreadsSharding(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster, WithClientThreads(3))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	const n = 300
	for i := 0; i < n; i++ {
		cl.SetAsync(k(i), val(i))
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, err := cl.Get(ctx, k(i))
		if err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("key %d: %q, %v", i, v, err)
		}
	}
}

// deadCluster registers a server address that accepts connections but never
// answers: operations route and send, then hang forever.
func deadCluster(t *testing.T) *Cluster {
	t.Helper()
	cluster := NewCluster()
	if _, err := cluster.tr.Listen("dead"); err != nil {
		t.Fatal(err)
	}
	cluster.meta.RegisterServer("dead", FullRange)
	cluster.meta.SetServerAddr("dead", "dead")
	return cluster
}

func TestContextDeadlineExpiry(t *testing.T) {
	cluster := deadCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Get(ctx, []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get against dead server = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline ignored: returned after %v", elapsed)
	}
	// Same for Drain.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	if err := cl.Drain(ctx2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
}

func TestContextCancellation(t *testing.T) {
	cluster := deadCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get(ctx, []byte("k"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never unblocked the waiter")
	}
}

func TestContextCancellationUnderPump(t *testing.T) {
	cluster := deadCluster(t)
	cl, err := Dial(cluster, WithBackgroundPump())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get(ctx, []byte("k"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Get = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation never unblocked the pumped waiter")
	}
}

// TestCloseCompletesFutures: Close settles every in-flight Future with
// ErrClosed — the documented no-silent-drop guarantee — and later operations
// fail immediately with ErrClosed.
func TestCloseCompletesFutures(t *testing.T) {
	cluster := deadCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, 10)
	for i := range futs {
		futs[i] = cl.SetAsync(k(i), val(i))
	}
	cl.Flush()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i, f := range futs {
		if _, err := f.Wait(ctx); !errors.Is(err, ErrClosed) {
			t.Fatalf("future %d after Close = %v, want ErrClosed", i, err)
		}
		f.Release()
	}
	if err := cl.Set(context.Background(), []byte("late"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set after Close = %v, want ErrClosed", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
}

// TestSessionBrokenSurfaced: when the server goes away mid-session, a
// context expiry is explained with ErrSessionBroken, and RecoverSessions
// against a restarted server completes the stranded operations.
func TestSessionBrokenSurfaced(t *testing.T) {
	cluster := NewCluster()
	logDev := NewMemDevice(LatencyModel{}, 2)
	defer logDev.Close()
	ckptDev := NewMemDevice(LatencyModel{}, 2)
	defer ckptDev.Close()
	srv, err := NewServer(cluster, "s1", WithThreads(1),
		WithLogDevice(logDev), WithCheckpointDevice(ckptDev),
		WithMemoryBudget(12, 16, 8))
	if err != nil {
		t.Fatal(err)
	}

	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, []byte("pre"), []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // crash: devices survive

	// In-flight write against the dead server: deadline expiry must carry
	// the broken-session diagnosis.
	f := cl.SetAsync([]byte("during"), []byte("crash"))
	cl.Flush()
	dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if _, err := f.Wait(dctx); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("Wait against crashed server = %v, want ErrSessionBroken", err)
	}
	if cl.BrokenSessions() == 0 {
		t.Fatal("broken session not tracked")
	}

	// Restart from the image, recover the session, and the future settles.
	srv2, err := NewServer(cluster, "s1", WithThreads(1),
		WithLogDevice(logDev), WithCheckpointDevice(ckptDev),
		WithMemoryBudget(12, 16, 8), WithRecovery())
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
	defer rcancel()
	if err := cl.RecoverSessions(rctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(rctx); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(rctx); err != nil {
		t.Fatalf("future after recovery = %v", err)
	}
	f.Release()
	v, err := cl.Get(rctx, []byte("during"))
	if err != nil || !bytes.Equal(v, []byte("crash")) {
		t.Fatalf("recovered write = %q, %v", v, err)
	}
}

// TestDeleteAsync: the future-returning delete removes a key like the
// synchronous one, and deleting a key that was never set also succeeds (a
// delete writes a tombstone; it does not look the key up).
func TestDeleteAsync(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, k(1), val(1)); err != nil {
		t.Fatal(err)
	}
	for _, key := range [][]byte{k(1), []byte("never-set")} {
		f := cl.DeleteAsync(key)
		cl.Flush()
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("DeleteAsync(%s) = %v", key, err)
		}
		f.Release()
		if _, err := cl.Get(ctx, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) after DeleteAsync = %v, want ErrNotFound", key, err)
		}
	}
}

// TestFailBrokenSessions: giving up on a dead server fails exactly the
// operations parked on its session, with ErrSessionBroken, and leaves a
// client that dials fresh once a server is back.
func TestFailBrokenSessions(t *testing.T) {
	cluster, srv := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Set(ctx, k(0), val(0)); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	const n = 5
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = cl.SetAsync(k(i), val(i))
	}
	for cl.BrokenSessions() == 0 { // the flush or a poll meets the dead conn
		if ctx.Err() != nil {
			t.Fatal("session to the closed server never broke")
		}
		cl.Flush()
	}
	if got := cl.FailBrokenSessions(); got != n {
		t.Fatalf("FailBrokenSessions failed %d ops, want %d", got, n)
	}
	for i, f := range futs {
		if _, err := f.Wait(ctx); !errors.Is(err, ErrSessionBroken) {
			t.Fatalf("future %d = %v, want ErrSessionBroken", i, err)
		}
		f.Release()
	}
	if cl.BrokenSessions() != 0 || cl.Outstanding() != 0 {
		t.Fatalf("after FailBrokenSessions: %d broken sessions, %d outstanding",
			cl.BrokenSessions(), cl.Outstanding())
	}

	srv2, err := NewServer(cluster, "s1", WithThreads(1), WithIndexBuckets(1<<10),
		WithMemoryBudget(12, 16, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if err := cl.Set(ctx, k(7), val(7)); err != nil {
		t.Fatalf("Set against the restarted server = %v", err)
	}
	if v, err := cl.Get(ctx, k(7)); err != nil || !bytes.Equal(v, val(7)) {
		t.Fatalf("Get against the restarted server = %q, %v", v, err)
	}
}

func k(i int) []byte   { return []byte(fmt.Sprintf("key-%05d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%05d", i)) }

// TestDialClampsDegenerateOptions: zero/negative thread or flow-control
// options must not produce a client that panics on first use.
func TestDialClampsDegenerateOptions(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster, WithClientThreads(0), WithMaxOutstanding(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestBackpressureRespectsContext: a synchronous call whose shard is at the
// outstanding bound against an unresponsive server must still honor its
// deadline instead of wedging in flow control (which would also hold the
// shard lock against everyone else).
func TestBackpressureRespectsContext(t *testing.T) {
	cluster := deadCluster(t)
	cl, err := Dial(cluster, WithMaxOutstanding(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetAsync([]byte("fills-quota"), []byte("v")) // never completes
	cl.Flush()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Get(ctx, []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("backpressured Get = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backpressure ignored the deadline: %v", elapsed)
	}
}

// TestReleaseIdempotent: double-releasing a completed Future (defer +
// explicit is the realistic footgun) must not pool the handle twice — two
// pooled copies would arm one handle for two operations at once.
func TestReleaseIdempotent(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	f := cl.SetAsync([]byte("k"), []byte("v"))
	cl.Flush()
	if _, err := f.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	f.Release()
	f.Release() // must be a no-op

	// If the double release poisoned the pool, the next two operations
	// share one Future and their completions collide.
	f1 := cl.GetAsync([]byte("k"))
	f2 := cl.GetAsync([]byte("missing"))
	if f1 == f2 {
		t.Fatal("pool handed the same Future to two operations")
	}
	cl.Flush()
	if v, err := f1.Wait(ctx); err != nil || string(v) != "v" {
		t.Fatalf("f1 = %q, %v", v, err)
	}
	if _, err := f2.Wait(ctx); !errors.Is(err, ErrNotFound) {
		t.Fatalf("f2 = %v, want ErrNotFound", err)
	}
	f1.Release()
	f2.Release()
}

// TestSetOversizedKeyFailsPromptly: a key longer than the wire's u16 length
// prefix (65,535 bytes) is refused at issue time — Set returns an error
// rather than hanging on a batch the server had to drop — and the client
// keeps working.
func TestSetOversizedKeyFailsPromptly(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	err = cl.Set(ctx, make([]byte, 1<<16), []byte("v"))
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Set with a 65,536-byte key = %v, want a prompt non-timeout error", err)
	}
	if err := cl.Set(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Set after the refused key: %v", err)
	}
	if v, err := cl.Get(ctx, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after the refused key = %q, %v", v, err)
	}
}

// TestOversizedRecordFailsPromptly: a record that cannot fit one log page
// (here 4 KiB) is refused by the store with an error status instead of
// wedging the dispatcher in an append-retry loop — the op fails, the next op
// on the same client succeeds, and the server still closes.
func TestOversizedRecordFailsPromptly(t *testing.T) {
	cluster, srv := testCluster(t)
	cl, err := Dial(cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	big := make([]byte, 5000)
	if err := cl.Set(ctx, []byte("k"), big); !errors.Is(err, ErrInternal) {
		t.Fatalf("Set of a 5,000-byte value on 4 KiB pages = %v, want ErrInternal", err)
	}
	if err := cl.RMW(ctx, big, []byte{1, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrInternal) {
		t.Fatalf("RMW on a 5,000-byte key on 4 KiB pages = %v, want ErrInternal", err)
	}
	if err := cl.Delete(ctx, big); !errors.Is(err, ErrInternal) {
		t.Fatalf("Delete of a 5,000-byte key on 4 KiB pages = %v, want ErrInternal", err)
	}
	if err := cl.Set(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Set after the refused records: %v", err)
	}
	if v, err := cl.Get(ctx, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after the refused records = %q, %v", v, err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return")
	}
}

// TestFutureStaleHandle pins the Future contract the pooled design leans on.
// A Wait that gave up leaves a handle whose operation completes later and
// whose client-thread slot is then recycled by a new operation: the stale
// handle must still answer for its own operation only, and releasing it must
// not disturb the new one.
func TestFutureStaleHandle(t *testing.T) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster) // no pump: nothing moves unless someone drives
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()

	if err := cl.Set(ctx, []byte("b"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	stale := cl.GetAsync([]byte("missing"))
	if _, err := stale.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on a cancelled context = %v, want Canceled", err)
	}
	// The operation completes later, driven by someone else's Wait...
	if err := cl.Set(ctx, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	// ...and a new operation takes over its slot in the client thread.
	fresh := cl.GetAsync([]byte("b"))
	if fresh == stale {
		t.Fatal("an unreleased Future was handed to a second operation")
	}
	if v, err := stale.Wait(ctx); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stale handle answered %q, %v; want its own ErrNotFound", v, err)
	}
	stale.Release()
	stale.Release()
	if v, err := fresh.Wait(ctx); err != nil || string(v) != "2" {
		t.Fatalf("fresh operation answered %q, %v after the stale handle's release", v, err)
	}
	fresh.Release()
}

// TestReleaseBeforeCompletion: Release on an in-flight Future (fire-and-forget,
// or after a Wait that gave up) lets go of the handle; the completion recycles
// it — the operation still executes, and nothing is left signalled.
func TestReleaseBeforeCompletion(t *testing.T) {
	t.Run("polled", func(t *testing.T) { releaseBeforeCompletion(t) })
	t.Run("pumped", func(t *testing.T) { releaseBeforeCompletion(t, WithBackgroundPump()) })
}

func releaseBeforeCompletion(t *testing.T, opts ...DialOption) {
	cluster, _ := testCluster(t)
	cl, err := Dial(cluster, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	f := cl.SetAsync([]byte("k"), []byte("v"))
	f.Release()
	if got := f.state.Load(); got != futReleased {
		t.Fatalf("state after an early Release = %d, want released", got)
	}
	f.Release() // still a no-op
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if len(f.ch) != 0 || f.state.Load() == futDone {
		t.Fatalf("completion of a released Future left it signalled (token %d, state %d)", len(f.ch), f.state.Load())
	}
	// Interleave fire-and-forget writes with waited reads: a handle recycled
	// at completion must never deliver into a live one.
	for i := 0; i < 200; i++ {
		cl.SetAsync(k(i), val(i)).Release()
		if i%4 == 3 {
			g := cl.GetAsync([]byte("k"))
			if v, err := g.Wait(ctx); err != nil || string(v) != "v" {
				t.Fatalf("round %d: Get = %q, %v", i, v, err)
			}
			g.Release()
		}
	}
	if err := cl.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i += 37 {
		if v, err := cl.Get(ctx, k(i)); err != nil || !bytes.Equal(v, val(i)) {
			t.Fatalf("fire-and-forget write %d: read back %q, %v", i, v, err)
		}
	}
}
