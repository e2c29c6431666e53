package core

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// cluster bundles the shared fixtures of an integration test.
type cluster struct {
	meta *metadata.Store
	tr   *transport.InMem
	tier *storage.SharedTier
}

func newCluster() *cluster {
	return &cluster{
		meta: metadata.NewStore(),
		tr:   transport.NewInMem(transport.Free),
		tier: storage.NewSharedTier(storage.LatencyModel{}),
	}
}

// newServer boots a server with a small memory budget (4 KiB pages, 16
// frames).
func (cl *cluster) newServer(t testing.TB, id string, threads int, ranges ...metadata.HashRange) *Server {
	t.Helper()
	return cl.newServerOn(t, cl.meta, id, threads, ranges...)
}

// newServerOn is newServer with the server reaching the cluster's metadata
// store through meta (a test's instrumented wrapper around cl.meta).
func (cl *cluster) newServerOn(t testing.TB, meta metadata.Provider, id string, threads int, ranges ...metadata.HashRange) *Server {
	t.Helper()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	s, err := NewServer(ServerConfig{
		ID: id, Addr: id, Threads: threads,
		Transport: cl.tr, Meta: meta,
		Store: faster.Config{
			IndexBuckets: 1 << 10,
			Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
				Device: dev, Tier: cl.tier, LogID: id},
		},
		SampleDuration: 10 * time.Millisecond,
	}, ranges...)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr(id, s.Addr())
	t.Cleanup(func() { s.Close(); dev.Close() })
	return s
}

func (cl *cluster) newClient(t testing.TB) *client.Thread {
	t.Helper()
	ct, err := client.NewThread(client.Config{
		Transport: cl.tr, Meta: cl.meta, BatchOps: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ct.Close)
	return ct
}

// newAdmin builds a control-plane handle over the cluster fixtures.
func (cl *cluster) newAdmin() *client.Admin {
	return client.NewAdmin(cl.tr, cl.meta)
}

func d8(n uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, n)
	return b
}

func TestClientServerBasicOps(t *testing.T) {
	cl := newCluster()
	cl.newServer(t, "s1", 2, metadata.FullRange)
	ct := cl.newClient(t)

	var readVal []byte
	var readStatus wire.ResultStatus = 255
	ct.Upsert([]byte("alpha"), []byte("one"), nil)
	ct.Read([]byte("alpha"), func(st wire.ResultStatus, v []byte) {
		readStatus = st
		readVal = append([]byte(nil), v...)
	})
	if !ct.Drain(5 * time.Second) {
		t.Fatal("drain timed out")
	}
	if readStatus != wire.StatusOK || string(readVal) != "one" {
		t.Fatalf("read: %v %q", readStatus, readVal)
	}

	// Missing key.
	missing := wire.ResultStatus(255)
	ct.Read([]byte("nope"), func(st wire.ResultStatus, _ []byte) { missing = st })
	ct.Drain(5 * time.Second)
	if missing != wire.StatusNotFound {
		t.Fatalf("missing key: %v", missing)
	}

	// Delete.
	ct.Delete([]byte("alpha"), nil)
	gone := wire.ResultStatus(255)
	ct.Read([]byte("alpha"), func(st wire.ResultStatus, _ []byte) { gone = st })
	ct.Drain(5 * time.Second)
	if gone != wire.StatusNotFound {
		t.Fatalf("deleted key: %v", gone)
	}
}

func TestClientServerRMWCounters(t *testing.T) {
	cl := newCluster()
	cl.newServer(t, "s1", 2, metadata.FullRange)
	ct := cl.newClient(t)

	key := ycsb.KeyBytes(7)
	const n = 500
	for i := 0; i < n; i++ {
		ct.RMW(key, d8(1), nil)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	var got uint64
	ct.Read(key, func(st wire.ResultStatus, v []byte) {
		if st == wire.StatusOK && len(v) >= 8 {
			got = binary.LittleEndian.Uint64(v)
		}
	})
	ct.Drain(5 * time.Second)
	if got != n {
		t.Fatalf("counter = %d, want %d (lost or duplicated RMWs)", got, n)
	}
}

func TestTwoServersHashPartitioned(t *testing.T) {
	cl := newCluster()
	mid := uint64(1) << 63
	cl.newServer(t, "s1", 2, metadata.HashRange{Start: 0, End: mid})
	cl.newServer(t, "s2", 2, metadata.HashRange{Start: mid, End: ^uint64(0)})
	ct := cl.newClient(t)

	const n = 300
	for i := uint64(0); i < n; i++ {
		ct.Upsert(ycsb.KeyBytes(i), d8(i), nil)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	bad := 0
	for i := uint64(0); i < n; i++ {
		want := i
		ct.Read(ycsb.KeyBytes(i), func(st wire.ResultStatus, v []byte) {
			if st != wire.StatusOK || binary.LittleEndian.Uint64(v) != want {
				bad++
			}
		})
	}
	ct.Drain(10 * time.Second)
	if bad != 0 {
		t.Fatalf("%d keys wrong across partitioned servers", bad)
	}
	// Both servers must actually have served traffic.
	st1 := clusterServerOps(t, cl, "s1")
	st2 := clusterServerOps(t, cl, "s2")
	if st1 == 0 || st2 == 0 {
		t.Fatalf("traffic not partitioned: s1=%d s2=%d", st1, st2)
	}
}

var serversByID = map[string]*Server{}

func clusterServerOps(t *testing.T, cl *cluster, id string) uint64 {
	t.Helper()
	s, ok := serversByID[t.Name()+"/"+id]
	if !ok {
		return 1 // fallback: can't inspect
	}
	return s.Stats().OpsCompleted.Load()
}

func TestViewRejectionAndReissue(t *testing.T) {
	cl := newCluster()
	s1 := cl.newServer(t, "s1", 2, metadata.FullRange)
	ct := cl.newClient(t)

	// Prime a session (caches view 1).
	ct.Upsert(ycsb.KeyBytes(0), d8(0), nil)
	ct.Drain(5 * time.Second)

	// Bump the server's view out from under the client by migrating a
	// sliver of hash space to a second server.
	s2 := cl.newServer(t, "s2", 2)
	_ = s2
	if _, err := s1.StartMigration("s2", metadata.HashRange{Start: 0, End: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	// Wait until the source adopts its new view (post-Transfer).
	deadline := time.Now().Add(5 * time.Second)
	for s1.CurrentView().Number < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s1.CurrentView().Number < 2 {
		t.Fatal("source never adopted the new view")
	}

	// Old-view batches must be rejected and transparently reissued.
	ok := 0
	const n = 100
	for i := uint64(0); i < n; i++ {
		ct.RMW(ycsb.KeyBytes(i), d8(1), func(st wire.ResultStatus, _ []byte) {
			if st == wire.StatusOK {
				ok++
			}
		})
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatalf("drain timed out; outstanding=%d", ct.Outstanding())
	}
	if ok != n {
		t.Fatalf("only %d/%d ops completed after view change", ok, n)
	}
	if ct.Stats().BatchesRejected == 0 {
		t.Fatal("no batch was ever rejected; view validation untested")
	}
}

// maxInFlight bounds a test client's outstanding operations below the
// store's 4096 pending operations per session (faster.Config
// MaxPendingPerSession): past that, device workers block on the session's
// completion channel. It is still wider than one round of
// migrateUnderWrites, so consecutive RMWs of one key do overlap on the
// device.
const maxInFlight = 3500

// throttle polls until the client is back under maxInFlight.
func throttle(ct *client.Thread) {
	for ct.Outstanding() > maxInFlight {
		ct.Poll()
	}
}

// loadKeys writes n keys through a client and waits for them.
func loadKeys(t *testing.T, ct *client.Thread, n uint64) {
	t.Helper()
	for i := uint64(0); i < n; i++ {
		ct.RMW(ycsb.KeyBytes(i), d8(i+1), nil)
		if ct.Outstanding() > 2048 {
			ct.Poll()
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatal("load did not drain")
	}
}

// verifyKeys checks counters i -> i+1 for all keys, tolerating keys served
// by either server after migration.
func verifyKeys(t *testing.T, ct *client.Thread, n uint64) {
	t.Helper()
	bad := 0
	var firstBad uint64
	for i := uint64(0); i < n; i++ {
		i := i
		ct.Read(ycsb.KeyBytes(i), func(st wire.ResultStatus, v []byte) {
			if st != wire.StatusOK || len(v) < 8 || binary.LittleEndian.Uint64(v) != i+1 {
				if bad == 0 {
					firstBad = i
				}
				bad++
			}
		})
		if ct.Outstanding() > 2048 {
			ct.Poll()
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatalf("verify did not drain; outstanding=%d", ct.Outstanding())
	}
	if bad != 0 {
		t.Fatalf("%d keys wrong after migration (first: %d)", bad, firstBad)
	}
}

func TestMigrationAllInMemory(t *testing.T) {
	cl := newCluster()
	src := cl.newServer(t, "src", 2, metadata.FullRange)
	cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	const n = 400
	loadKeys(t, ct, n)

	// Migrate 25% of the hash space.
	rng := metadata.HashRange{Start: 0, End: 1 << 62}
	if _, err := src.StartMigration("dst", rng); err != nil {
		t.Fatal(err)
	}
	waitMigrationsDone(t, cl.meta, 10*time.Second)

	verifyKeys(t, ct, n)
	rep := src.LastMigrationReport()
	if rep.RecordsSent == 0 {
		t.Fatal("migration sent no records")
	}
	if rep.Finished.IsZero() || rep.OwnershipAt.IsZero() {
		t.Fatalf("incomplete report: %+v", rep)
	}
}

func TestMigrationWritesDuringMigration(t *testing.T) {
	migrateUnderWrites(t, 300, 0)
}

// TestMigrationWritesDuringMigrationLargerThanMemory is the same run with a
// data set several times the 64 KiB budget of either server: the source
// ships indirection records for its on-device chains, the target's log
// spills while records are still arriving, and in-migration RMWs have to
// wait on shared-tier fetches and probe the device — the real-protocol cover
// for the path TestPendedRMWProbeOnDiskAppliesOnce pins white-box.
func TestMigrationWritesDuringMigrationLargerThanMemory(t *testing.T) {
	migrateUnderWrites(t, 3000, 1500)
}

// migrateUnderWrites loads n counters (plus fillers 128-byte values, for
// bulk), migrates half the hash space while incrementing every counter, and
// checks every counter exactly: no update lost or applied twice across the
// ownership transfer.
func migrateUnderWrites(t *testing.T, n, fillers uint64) {
	cl := newCluster()
	src := cl.newServer(t, "src", 2, metadata.FullRange)
	dst := cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	loadKeys(t, ct, n)
	filler := make([]byte, 128)
	for i := uint64(0); i < fillers; i++ {
		ct.Upsert(ycsb.KeyBytes(n+i), filler, nil)
		if ct.Outstanding() > 1024 {
			ct.Poll()
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatal("filler load did not drain")
	}

	rng := metadata.HashRange{Start: 0, End: 1 << 63}
	if _, err := src.StartMigration("dst", rng); err != nil {
		t.Fatal(err)
	}
	// Keep incrementing all keys while the migration runs.
	const rounds = 5
	failed := 0
	for r := 0; r < rounds; r++ {
		for i := uint64(0); i < n; i++ {
			ct.RMW(ycsb.KeyBytes(i), d8(1000), func(st wire.ResultStatus, _ []byte) {
				if st != wire.StatusOK {
					failed++
				}
			})
			throttle(ct)
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatalf("in-migration writes did not drain; outstanding=%d", ct.Outstanding())
	}
	waitMigrationsDone(t, cl.meta, 15*time.Second)
	if failed != 0 {
		t.Fatalf("%d in-migration RMWs failed", failed)
	}
	if fillers > 0 && dst.Store().Log().HeadAddress() == 0 {
		t.Fatal("target log never spilled; larger-than-memory path not exercised")
	}

	// Every key must now be (i+1) + rounds*1000.
	bad := 0
	for i := uint64(0); i < n; i++ {
		want := (i + 1) + rounds*1000
		ct.Read(ycsb.KeyBytes(i), func(st wire.ResultStatus, v []byte) {
			if st != wire.StatusOK || binary.LittleEndian.Uint64(v) != want {
				bad++
			}
		})
		if ct.Outstanding() > 1024 {
			ct.Poll()
		}
	}
	ct.Drain(30 * time.Second)
	if bad != 0 {
		t.Fatalf("%d keys lost or repeated updates across migration", bad)
	}
}

func TestMigrationWithIndirectionRecords(t *testing.T) {
	cl := newCluster()
	src := cl.newServer(t, "src", 2, metadata.FullRange)
	dst := cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	// Enough data to spill the source's log to "SSD" (64 KiB budget).
	const n = 2500
	loadKeys(t, ct, n)
	if src.Store().Log().SafeHeadAddress() == 0 {
		t.Fatal("source log never spilled; indirection path not exercised")
	}

	rng := metadata.HashRange{Start: 0, End: 1 << 63}
	if _, err := src.StartMigration("dst", rng); err != nil {
		t.Fatal(err)
	}
	waitMigrationsDone(t, cl.meta, 20*time.Second)

	rep := src.LastMigrationReport()
	if rep.IndirectionsSent == 0 {
		t.Fatal("no indirection records sent despite on-SSD chains")
	}
	// All keys readable; cold ones resolve through the shared tier.
	verifyKeys(t, ct, n)
	if dst.Stats().RemoteFetches.Load() == 0 {
		t.Fatal("target never fetched from the shared tier")
	}
}

// A spilled source without a shared tier cannot leave indirection records
// behind (the target could not resolve them), so it ships its stable region
// by scanning its own device — the path is selected by the missing tier.
func TestMigrationWithoutSharedTierScansDisk(t *testing.T) {
	cl := newCluster()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	src, err := NewServer(ServerConfig{
		ID: "src", Addr: "src", Threads: 2,
		Transport: cl.tr, Meta: cl.meta,
		Store: faster.Config{
			IndexBuckets: 1 << 10,
			Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
				Device: dev},
		},
		SampleDuration: 10 * time.Millisecond,
	}, metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("src", src.Addr())
	t.Cleanup(func() { src.Close(); dev.Close() })
	cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	const n = 2500
	loadKeys(t, ct, n)
	if src.Store().Log().SafeHeadAddress() == 0 {
		t.Fatal("source log never spilled")
	}
	rng := metadata.HashRange{Start: 0, End: 1 << 63}
	if _, err := src.StartMigration("dst", rng); err != nil {
		t.Fatal(err)
	}
	waitMigrationsDone(t, cl.meta, 30*time.Second)

	rep := src.LastMigrationReport()
	if rep.IndirectionsSent != 0 {
		t.Fatal("a source without a shared tier must not emit indirection records")
	}
	if rep.DiskScanRecords == 0 {
		t.Fatal("disk scan shipped nothing")
	}
	verifyKeys(t, ct, n)
}

func TestSampledRecordsShipAtTransfer(t *testing.T) {
	cl := newCluster()
	src := cl.newServer(t, "src", 2, metadata.FullRange)
	cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	const n = 200
	loadKeys(t, ct, n)

	// Touch a hot subset continuously while migration starts so sampling
	// copies them to the tail.
	stopTouch := make(chan struct{})
	touchDone := make(chan struct{})
	go func() {
		defer close(touchDone)
		ct2 := cl.newClient(t)
		for {
			select {
			case <-stopTouch:
				return
			default:
			}
			for i := uint64(0); i < 20; i++ {
				ct2.RMW(ycsb.KeyBytes(i), d8(0), nil)
			}
			ct2.Flush()
			ct2.Poll()
			time.Sleep(time.Millisecond)
		}
	}()

	// Let the toucher warm up so accesses overlap the Sampling window.
	time.Sleep(20 * time.Millisecond)
	rng := metadata.FullRange
	if _, err := src.StartMigration("dst", rng); err != nil {
		t.Fatal(err)
	}
	waitMigrationsDone(t, cl.meta, 15*time.Second)
	close(stopTouch)
	<-touchDone

	rep := src.LastMigrationReport()
	if rep.SampledRecords == 0 {
		t.Fatal("no sampled hot records shipped at ownership transfer")
	}
}

func waitMigrationsDone(t *testing.T, meta *metadata.Store, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		pending := 0
		snap, _ := meta.Snapshot()
		for _, m := range snap.Migrations {
			if m.InFlight() {
				pending++
			}
		}
		if pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("migration still pending after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCompactedRecordRelocation(t *testing.T) {
	// §3.3.3 receiver path: a compacted record arriving at the owner is
	// installed only if an indirection record covers it.
	cl := newCluster()
	srv := cl.newServer(t, "s1", 2, metadata.FullRange)
	ct := cl.newClient(t)
	ct.Upsert([]byte("existing"), []byte("local"), nil)
	ct.Drain(5 * time.Second)

	// Without an indirection record the relocated record is discarded.
	conn, err := cl.tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := wire.MigrationMsg{Type: wire.MsgCompacted,
		Records: []wire.MigrationRecord{{
			Hash: faster.HashOf([]byte("existing")),
			Key:  []byte("existing"), Value: []byte("stale-from-compaction")}}}
	conn.Send(wire.EncodeMigrationMsg(&msg))
	time.Sleep(100 * time.Millisecond)

	got := ""
	ct.Read([]byte("existing"), func(st wire.ResultStatus, v []byte) { got = string(v) })
	ct.Drain(5 * time.Second)
	if got != "local" {
		t.Fatalf("compacted record overwrote local value: %q", got)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	cl := newCluster()
	s := cl.newServer(t, "s1", 1, metadata.FullRange)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputSmoke(t *testing.T) {
	// A short YCSB-F run end to end; guards against pathological slowness.
	cl := newCluster()
	s := cl.newServer(t, "s1", 2, metadata.FullRange)
	ct := cl.newClient(t)

	const keys = 1000
	loadKeys(t, ct, keys)

	z := ycsb.NewZipfian(keys, ycsb.DefaultTheta, 42)
	start := time.Now()
	const ops = 20000
	for i := 0; i < ops; i++ {
		ct.RMW(ycsb.KeyBytes(z.Next()), d8(1), nil)
		if ct.Outstanding() > 4096 {
			ct.Poll()
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatal("smoke run did not drain")
	}
	el := time.Since(start)
	rate := float64(ops) / el.Seconds()
	t.Logf("YCSB-F smoke: %d ops in %v (%.0f ops/s), server completed %d",
		ops, el, rate, s.Stats().OpsCompleted.Load())
	if rate < 1000 {
		t.Fatalf("pathologically slow: %.0f ops/s", rate)
	}
}

func TestMain(m *testing.M) {
	fmt.Print() // keep fmt imported for debug convenience
	m.Run()
}

// TestDecodeErrorsCounted verifies undecodable frames are dropped but
// visible: every decode-failure return path bumps Stats().DecodeErrors.
func TestDecodeErrorsCounted(t *testing.T) {
	cl := newCluster()
	s := cl.newServer(t, "s1", 1, metadata.FullRange)
	conn, err := cl.tr.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	bad := [][]byte{
		{},                                   // empty: PeekType fails
		{0xFF},                               // unknown type is routed nowhere but decodes: PeekType ok
		{byte(wire.MsgRequestBatch), 1},      // truncated request batch
		{byte(wire.MsgMigrate), 9},           // truncated migrate command
		{byte(wire.MsgTransferOwnership), 2}, // truncated migration msg
		{byte(wire.MsgSessionRecover)},       // truncated session recover
	}
	want := uint64(0)
	for _, f := range bad {
		if err := conn.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	// Empty, truncated batch, migrate, migration msg, session recover = 5
	// (the unknown-type frame decodes its type byte fine and is ignored).
	want = 5
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().DecodeErrors.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s.Stats().DecodeErrors.Load(); got != want {
		t.Fatalf("DecodeErrors = %d, want %d", got, want)
	}

	// A well-formed batch still works on the same conn afterwards.
	req := wire.RequestBatch{View: s.CurrentView().Number, SessionID: 1,
		Ops: []wire.Op{{Kind: wire.OpUpsert, Seq: 1, Key: []byte("k"), Value: []byte("v")}}}
	if err := conn.Send(wire.AppendRequestBatch(nil, &req)); err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		frame, ok, err := conn.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		var resp wire.ResponseBatch
		if err := wire.DecodeResponseBatch(frame, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Rejected || len(resp.Results) != 1 {
			t.Fatalf("unexpected response: rejected=%v results=%d", resp.Rejected, len(resp.Results))
		}
		return
	}
	t.Fatal("no response to valid batch after decode errors")
}

// TestSessionTableShardMerge pins the sharded table's merge semantics: a
// session that reconnects onto a different dispatcher leaves an older entry
// in its previous shard, and all readers resolve by maximum sequence.
func TestSessionTableShardMerge(t *testing.T) {
	tab := newSessionTable(3)
	tab.advance(0, 42, 10, 1)
	tab.advance(1, 42, 25, 2) // same session, new dispatcher, newer version

	if got, ok := tab.get(42); !ok || got != 25 {
		t.Fatalf("get(42) = %d,%v want 25,true", got, ok)
	}
	if snap := tab.snapshotUpTo(2); snap[42] != 25 {
		t.Fatalf("snapshotUpTo(2)[42] = %d, want 25", snap[42])
	}
	// Sealing at version 1 covers only the old shard's prefix.
	if snap := tab.snapshotUpTo(1); snap[42] != 10 {
		t.Fatalf("snapshotUpTo(1)[42] = %d, want 10", snap[42])
	}

	// restore replaces every shard's contents.
	tab.restore(map[uint64]uint32{7: 99}, 5)
	if got, ok := tab.get(7); !ok || got != 99 {
		t.Fatalf("get(7) after restore = %d,%v want 99,true", got, ok)
	}
	if _, ok := tab.get(42); ok {
		t.Fatal("session 42 survived restore")
	}
}
