package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

func ckey(i uint64) []byte { return []byte(fmt.Sprintf("compact-key-%05d", i)) }

// overwriteRound upserts every key with a round-stamped 256-byte value and
// drains, failing on any non-OK foreground completion (compaction must never
// cost correctness or availability).
func overwriteRound(t *testing.T, ct *client.Thread, n, round uint64) {
	t.Helper()
	failed := 0
	for i := uint64(0); i < n; i++ {
		val := make([]byte, 256)
		binary.LittleEndian.PutUint64(val, round)
		ct.Upsert(ckey(i), val, func(st wire.ResultStatus, _ []byte) {
			if st != wire.StatusOK {
				failed++
			}
		})
		if ct.Outstanding() > 1024 {
			ct.Poll()
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatalf("round %d did not drain; outstanding=%d", round, ct.Outstanding())
	}
	if failed != 0 {
		t.Fatalf("round %d: %d foreground upserts failed", round, failed)
	}
}

// verifyRound checks every key carries the given round's value.
func verifyRound(t *testing.T, ct *client.Thread, n, round uint64) {
	t.Helper()
	bad := 0
	for i := uint64(0); i < n; i++ {
		ct.Read(ckey(i), func(st wire.ResultStatus, v []byte) {
			if st != wire.StatusOK || len(v) < 8 || binary.LittleEndian.Uint64(v) != round {
				bad++
			}
		})
		if ct.Outstanding() > 1024 {
			ct.Poll()
		}
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatalf("verify did not drain; outstanding=%d", ct.Outstanding())
	}
	if bad != 0 {
		t.Fatalf("%d keys missing or stale (want round %d)", bad, round)
	}
}

// TestCompactionServiceSustainedOverwrite is the acceptance scenario: under
// a sustained uniform-overwrite workload the background compaction service
// advances the begin address and frees device space while foreground
// operations keep completing; a checkpoint taken while the service runs
// recovers with the truncated begin address intact.
func TestCompactionServiceSustainedOverwrite(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	cfg := durableServerConfig(cl, "s1", logDev, ckptDev, false)
	cfg.CompactEvery = 10 * time.Millisecond
	cfg.CompactWatermark = 256 << 10
	cfg.CheckpointEvery = 50 * time.Millisecond // keeps the reclaim clamp moving
	srv, err := NewServer(cfg, metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv.Addr())
	ct := cl.newClient(t)

	// ~430 KiB of live records per round against a 64 KiB memory budget:
	// every round spills, and overwritten rounds become dead prefix.
	const keys = 1500
	lg := srv.Store().Log()
	var round uint64
	deadline := time.Now().Add(60 * time.Second)
	for {
		round++
		overwriteRound(t, ct, keys, round)
		st := srv.Stats()
		if st.Compactions.Load() >= 2 && logDev.Stats().TrimmedBytes > 0 &&
			lg.BeginAddress() > hlog.MinAddress {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service never reclaimed space: compactions=%d trimmed=%d begin=%#x",
				st.Compactions.Load(), logDev.Stats().TrimmedBytes, uint64(lg.BeginAddress()))
		}
	}
	if round < 3 {
		// The loop must genuinely sustain overwrites, not exit on round one.
		overwriteRound(t, ct, keys, round+1)
		round++
	}
	verifyRound(t, ct, keys, round)

	// The device footprint must be bounded: strictly less than the bytes the
	// log has written in total (the whole point of reclaim).
	if alloc, written := logDev.AllocatedBytes(), uint64(lg.FlushedUntilAddress()); alloc >= written {
		t.Fatalf("no space freed: %d bytes allocated for %d flushed", alloc, written)
	}
	last := srv.LastCompaction()
	if last.Scanned == 0 || last.Begin <= hlog.MinAddress {
		t.Fatalf("last pass stats empty: %+v", last)
	}

	// Checkpoint while the compaction service is still live, then crash.
	res, err := srv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if res.Info.Begin <= hlog.MinAddress {
		t.Fatalf("checkpoint image carries untruncated begin %#x", uint64(res.Info.Begin))
	}
	srv.Close()

	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl.meta.SetServerAddr("s1", srv2.Addr())

	if got := srv2.Store().Log().BeginAddress(); got != res.Info.Begin {
		t.Fatalf("recovered begin %#x, want the image's truncated begin %#x",
			uint64(got), uint64(res.Info.Begin))
	}
	if err := ct.RecoverSessions(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyRound(t, ct, keys, round)
}

// TestCompactionTombstoneGCAcrossRecovery: deleted keys whose tombstones are
// compacted away must stay deleted across a checkpoint/recover cycle — the
// tombstone only dies together with every older version of its key.
func TestCompactionTombstoneGCAcrossRecovery(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	srv, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, false),
		metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv.Addr())
	ct := cl.newClient(t)

	const n = 800
	const deleted = 100
	for i := uint64(0); i < n; i++ {
		ct.Upsert(rkey(int(i)), rval(int(i)), nil)
	}
	for i := uint64(0); i < deleted; i++ {
		ct.Delete(rkey(int(i)), nil)
	}
	// Filler traffic pushes values and tombstones into the stable prefix.
	for i := uint64(0); i < 2000; i++ {
		ct.Upsert([]byte(fmt.Sprintf("fill-%05d", i)), rval(int(i)), nil)
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatal("load did not drain")
	}

	st, err := srv.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped == 0 || st.Begin <= hlog.MinAddress {
		t.Fatalf("pass did nothing: %+v", st)
	}
	for i := 0; i < deleted; i += 7 {
		if _, got := clientGet(t, ct, rkey(i)); got != wire.StatusNotFound {
			t.Fatalf("deleted key %d resurrected by compaction: %v", i, got)
		}
	}

	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl.meta.SetServerAddr("s1", srv2.Addr())
	if err := ct.RecoverSessions(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < deleted; i++ {
		if _, got := clientGet(t, ct, rkey(i)); got != wire.StatusNotFound {
			t.Fatalf("deleted key %d resurrected after recovery: %v", i, got)
		}
	}
	for i := deleted; i < n; i += 13 {
		v, got := clientGet(t, ct, rkey(i))
		if got != wire.StatusOK || string(v) != string(rval(i)) {
			t.Fatalf("live key %d after recovery: %v %q", i, got, v)
		}
	}
}

// TestCompactionRelocationLandsOnOwner: after a scale-out migration, the
// source's compaction must ship disowned stable-prefix records to the new
// owner (the MsgCompacted send side), and reads keep resolving even after
// the source's shared-tier prefix — the indirection records' target — has
// been reclaimed.
//
// The pass reads the metadata provider exactly once, before its scan: the
// scan runs under the compaction session's epoch guard, where a provider
// call — a network RPC with a remote provider — would stall every global cut.
func TestCompactionRelocationLandsOnOwner(t *testing.T) {
	cl := newCluster()
	meta := &countingProvider{Store: cl.meta}
	src := cl.newServerOn(t, meta, "src", 2, metadata.FullRange)
	dst := cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	// Spill well past the 64 KiB budget so most chains descend below the
	// head at migration time (indirection records at the target, cold
	// records left on the source's disk).
	const n = 3000
	loadKeys(t, ct, n)

	rng := metadata.HashRange{Start: 0, End: 1 << 63}
	if _, err := src.StartMigration("dst", rng); err != nil {
		t.Fatal(err)
	}
	waitMigrationsDone(t, cl.meta, 15*time.Second)

	meta.snapshots.Store(0)
	st, err := src.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocated == 0 {
		t.Fatalf("no disowned records relocated: %+v", st)
	}
	if n, under := meta.snapshots.Load(), meta.underScan.Load(); n != 1 || under != 0 {
		t.Fatalf("pass with %d relocations took %d snapshots, %d of them from inside the scan; want 1 and 0",
			st.Relocated, n, under)
	}
	if got := src.Stats().CompactRelocated.Load(); got != uint64(st.Relocated) {
		t.Fatalf("relocation counter %d != pass stat %d", got, st.Relocated)
	}
	if st.Begin <= hlog.MinAddress {
		t.Fatal("source begin did not advance")
	}
	// A second pass reclaims storage up to the first pass's begin (the
	// one-pass grace for in-flight reads); the source has no checkpoint
	// device, so nothing else clamps it.
	if _, err := src.Compact(); err != nil {
		t.Fatal(err)
	}

	// Every key must still read its exact counter value — served by the
	// target from migrated + relocated records, with the source's prefix
	// now retired beneath the indirection records.
	verifyKeys(t, ct, n)
	_ = dst
}

// countingProvider counts a server's Snapshot calls, and separately those
// made from inside a compaction scan or the relocator it feeds.
type countingProvider struct {
	*metadata.Store
	snapshots, underScan atomic.Int64
}

func (p *countingProvider) Snapshot() (*metadata.Snapshot, error) {
	p.snapshots.Add(1)
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.Contains(f.Function, "CompactScan") || strings.Contains(f.Function, "relocator") {
			p.underScan.Add(1)
			break
		}
		if !more {
			break
		}
	}
	return p.Store.Snapshot()
}

// TestCompactionRelocationFailureKeepsPrefix: when relocated records cannot
// be confirmed delivered (owner unreachable), the pass must fail WITHOUT
// advancing the begin address — the prefix holds the disowned keys' only
// durable copies — and a later pass must deliver and then retire it.
func TestCompactionRelocationFailureKeepsPrefix(t *testing.T) {
	cl := newCluster()
	src := cl.newServer(t, "src", 2, metadata.FullRange)
	dst := cl.newServer(t, "dst", 2)
	ct := cl.newClient(t)

	const n = 3000
	loadKeys(t, ct, n)
	if _, err := src.StartMigration("dst", metadata.HashRange{Start: 0, End: 1 << 63}); err != nil {
		t.Fatal(err)
	}
	waitMigrationsDone(t, cl.meta, 15*time.Second)

	// Sabotage: the owner's address points nowhere, so relocation frames
	// cannot be delivered.
	cl.meta.SetServerAddr("dst", "nowhere")
	before := src.Store().Log().BeginAddress()
	if _, err := src.Compact(); err == nil {
		t.Fatal("pass succeeded with an unreachable relocation target")
	}
	if got := src.Store().Log().BeginAddress(); got != before {
		t.Fatalf("begin advanced %#x -> %#x despite unconfirmed relocation",
			uint64(before), uint64(got))
	}
	if src.Stats().CompactionFailures.Load() == 0 {
		t.Fatal("failure not counted")
	}

	// Heal and retry: the rescan re-sends and the prefix retires.
	cl.meta.SetServerAddr("dst", dst.Addr())
	st, err := src.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocated == 0 || st.Begin <= before {
		t.Fatalf("healed pass did not relocate and truncate: %+v", st)
	}
	verifyKeys(t, ct, n)
}

// TestCompactionReclaimClampedByCommittedImage: device reclaim must wait for
// a committed checkpoint image and never free bytes the image still
// references — a crash between compaction and the next checkpoint must
// recover.
func TestCompactionReclaimClampedByCommittedImage(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	srv, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, false),
		metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv.Addr())
	ct := cl.newClient(t)

	// Two rounds of 256-byte values: ~2.4 MiB on the device, first round
	// entirely dead.
	const keys = 4000
	overwriteRound(t, ct, keys, 1)
	overwriteRound(t, ct, keys, 2)

	st1, err := srv.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st1.Begin <= hlog.MinAddress {
		t.Fatalf("begin did not advance: %+v", st1)
	}
	if st1.ReclaimedBytes != 0 || logDev.Stats().TrimmedBytes != 0 {
		t.Fatalf("device reclaimed with no committed image: %+v (trimmed %d)",
			st1, logDev.Stats().TrimmedBytes)
	}

	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st2, err := srv.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st2.ReclaimedBytes == 0 {
		t.Fatalf("nothing reclaimed after the image committed: %+v", st2)
	}
	if logDev.Stats().TrimmedBytes == 0 {
		t.Fatal("device trim counter did not move")
	}

	// The clamp's whole point: recovery still works after the reclaim.
	srv.Close()
	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl.meta.SetServerAddr("s1", srv2.Addr())
	if err := ct.RecoverSessions(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	verifyRound(t, ct, keys, 2)
}

// TestCompactAdminRoundTrip drives a pass through the wire admin message and
// the client library, like an operator would.
func TestCompactAdminRoundTrip(t *testing.T) {
	cl := newCluster()
	srv := cl.newServer(t, "s1", 2, metadata.FullRange)
	ct := cl.newClient(t)

	const n = 2500
	for i := uint64(0); i < n; i++ {
		ct.Upsert(ycsb.KeyBytes(i), []byte(fmt.Sprintf("v1-%06d", i)), nil)
	}
	for i := uint64(0); i < n; i++ {
		ct.Upsert(ycsb.KeyBytes(i), []byte(fmt.Sprintf("v2-%06d", i)), nil)
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatal("load did not drain")
	}

	resp, err := cl.newAdmin().Compact(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Scanned == 0 {
		t.Fatalf("admin compaction did nothing: %+v", resp)
	}
	if resp.Begin <= uint64(hlog.MinAddress) {
		t.Fatalf("begin did not advance: %+v", resp)
	}
	if got := srv.Stats().Compactions.Load(); got != 1 {
		t.Fatalf("server counted %d compactions, want 1", got)
	}
	// Spot-check values survived.
	v, st := clientGet(t, ct, ycsb.KeyBytes(17))
	if st != wire.StatusOK || string(v) != fmt.Sprintf("v2-%06d", 17) {
		t.Fatalf("key 17 after admin compaction: %v %q", st, v)
	}
}
