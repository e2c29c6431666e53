package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/wire"
)

// durableServerConfig builds a server whose log and checkpoint devices are
// caller-owned, so they survive a simulated crash (Server.Close) and can back
// a recovered instance.
func durableServerConfig(cl *cluster, id string, logDev, ckptDev storage.Device, recover bool) ServerConfig {
	return ServerConfig{
		ID: id, Addr: id, Threads: 2,
		Transport: cl.tr, Meta: cl.meta,
		Store: faster.Config{
			IndexBuckets: 1 << 10,
			Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
				Device: logDev, LogID: id},
		},
		CheckpointDevice: ckptDev,
		Recover:          recover,
	}
}

// TestCrashRecoveryEndToEnd exercises the whole durability stack: a client
// loads data, a checkpoint is taken through the wire admin message, the
// server "crashes" (process state gone; devices survive), a new server
// recovers from the image, and the client resumes its session — every
// pre-checkpoint key is served, in-flight post-checkpoint operations are
// replayed exactly once, and the counter RMW stream lands at the exact value.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	srv1, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, false),
		metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv1.Addr())
	ct := cl.newClient(t)

	// Phase 1: a durable prefix that spills past memory (16 frames of 4 KiB
	// hold ~1.3k of these records), plus an RMW counter.
	const durableKeys = 3000
	const preDeltas = 10
	for i := 0; i < durableKeys; i++ {
		ct.Upsert(rkey(i), rval(i), nil)
	}
	for i := 0; i < preDeltas; i++ {
		ct.RMW([]byte("counter"), d8(1), nil)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain before checkpoint timed out")
	}

	// Checkpoint through the admin message, like an operator would.
	resp, err := cl.newAdmin().Checkpoint(context.Background(), "s1")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Tail == 0 {
		t.Fatalf("checkpoint response: %+v", resp)
	}
	if got := srv1.Stats().Checkpoints.Load(); got != 1 {
		t.Fatalf("server counted %d checkpoints, want 1", got)
	}
	preCrashView := srv1.CurrentView().Number

	// Phase 2: operations issued after the checkpoint and never acknowledged
	// (flushed to the wire, responses never polled). CPR rolls the store
	// back to the cut; these must come back via client session replay.
	const replayKeys = 80
	const postDeltas = 5
	for i := 0; i < replayKeys; i++ {
		ct.Upsert(rkey(durableKeys+i), rval(durableKeys+i), nil)
	}
	for i := 0; i < postDeltas; i++ {
		ct.RMW([]byte("counter"), d8(1), nil)
	}
	ct.Flush()
	if out := ct.Outstanding(); out != replayKeys+postDeltas {
		t.Fatalf("outstanding before crash: %d, want %d", out, replayKeys+postDeltas)
	}

	// Crash: all process state is gone; logDev and ckptDev survive.
	srv1.Close()

	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl.meta.SetServerAddr("s1", srv2.Addr())

	if got := srv2.CurrentView().Number; got != preCrashView {
		t.Fatalf("recovered view number %d, want %d", got, preCrashView)
	}

	// Client-assisted session recovery: reconnect, learn the durable prefix,
	// replay past it.
	if err := ct.RecoverSessions(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatalf("drain after recovery timed out (%d outstanding)", ct.Outstanding())
	}

	// Every key — durable prefix and replayed suffix — must be served.
	// Reads are issued in bulk and drained once; the pipeline keeps the
	// recovered server's pending-I/O path busy, which is the point.
	type readRes struct {
		st  wire.ResultStatus
		val []byte
	}
	results := make([]readRes, durableKeys+replayKeys)
	for i := 0; i < durableKeys+replayKeys; i++ {
		i := i
		results[i].st = 255
		ct.Read(rkey(i), func(s wire.ResultStatus, v []byte) {
			results[i] = readRes{st: s, val: append([]byte(nil), v...)}
		})
	}
	if !ct.Drain(30 * time.Second) {
		t.Fatalf("verification drain timed out (%d outstanding)", ct.Outstanding())
	}
	for i, r := range results {
		if r.st != wire.StatusOK || string(r.val) != string(rval(i)) {
			t.Fatalf("key %d after recovery: %v %q want %q", i, r.st, r.val, rval(i))
		}
	}
	// The counter must be exactly pre+post: pre-checkpoint deltas recovered
	// from the image, post-checkpoint deltas replayed exactly once.
	got, st := clientGet(t, ct, []byte("counter"))
	if st != wire.StatusOK || len(got) != 8 {
		t.Fatalf("counter after recovery: %v %q", st, got)
	}
	if n := leU64(got); n != preDeltas+postDeltas {
		t.Fatalf("counter after recovery: %d, want %d", n, preDeltas+postDeltas)
	}

	// The recovered server is a normal server: it accepts new writes and can
	// checkpoint again.
	ct.Upsert([]byte("post-recovery"), []byte("alive"), nil)
	if !ct.Drain(5 * time.Second) {
		t.Fatal("post-recovery write timed out")
	}
	if _, err := cl.newAdmin().Checkpoint(context.Background(), "s1"); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverUnknownSessionReplaysAll: a session the recovered image has
// never seen (all its batches arrived after the checkpoint) must replay every
// in-flight operation.
func TestRecoverUnknownSessionReplaysAll(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	srv1, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, false),
		metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv1.Addr())

	// Checkpoint an empty store via the server API (no sessions yet).
	if _, err := cl.newAdmin().Checkpoint(context.Background(), "s1"); err != nil {
		t.Fatal(err)
	}

	// A brand-new client session issues writes that never get acknowledged.
	ct := cl.newClient(t)
	const n = 25
	for i := 0; i < n; i++ {
		ct.Upsert(rkey(i), rval(i), nil)
	}
	ct.Flush()
	srv1.Close()

	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl.meta.SetServerAddr("s1", srv2.Addr())

	if err := ct.RecoverSessions(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain after recovery timed out")
	}
	for i := 0; i < n; i++ {
		got, st := clientGet(t, ct, rkey(i))
		if st != wire.StatusOK || string(got) != string(rval(i)) {
			t.Fatalf("replayed key %d: %v %q", i, st, got)
		}
	}
}

// TestFreshStartRefusesCommittedImages: starting a non-recovery server over
// a checkpoint device that holds a committed image must fail — appending a
// fresh log under the old image would make a later recovery serve garbage.
func TestFreshStartRefusesCommittedImages(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	srv1, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, false),
		metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv1.Addr())
	if _, err := srv1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	if _, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, false),
		metadata.FullRange); err == nil {
		t.Fatal("fresh start over committed images was allowed")
	}
	// Recovery over the same devices is the sanctioned path.
	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	srv2.Close()
}

// TestCheckpointWithoutDeviceFails: the admin message on a memory-only
// server reports failure instead of pretending to be durable.
func TestCheckpointWithoutDeviceFails(t *testing.T) {
	cl := newCluster()
	cl.newServer(t, "s1", 2, metadata.FullRange)
	resp, err := cl.newAdmin().Checkpoint(context.Background(), "s1")
	if err == nil {
		t.Fatalf("checkpoint on memory-only server succeeded: %+v", resp)
	}
}

// TestPeriodicCheckpointing: a server with CheckpointEvery takes images on
// its own and the latest one recovers cleanly.
func TestPeriodicCheckpointing(t *testing.T) {
	cl := newCluster()
	logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer logDev.Close()
	ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer ckptDev.Close()

	cfg := durableServerConfig(cl, "s1", logDev, ckptDev, false)
	cfg.CheckpointEvery = 20 * time.Millisecond
	srv1, err := NewServer(cfg, metadata.FullRange)
	if err != nil {
		t.Fatal(err)
	}
	cl.meta.SetServerAddr("s1", srv1.Addr())
	ct := cl.newClient(t)

	const n = 500
	for i := 0; i < n; i++ {
		ct.Upsert(rkey(i), rval(i), nil)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain timed out")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv1.Stats().Checkpoints.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("periodic checkpoints never happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv1.Close()

	srv2, err := NewServer(durableServerConfig(cl, "s1", logDev, ckptDev, true))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cl.meta.SetServerAddr("s1", srv2.Addr())
	if err := ct.RecoverSessions(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !ct.Drain(10 * time.Second) {
		t.Fatal("drain after recovery timed out")
	}
	for i := 0; i < n; i++ {
		got, st := clientGet(t, ct, rkey(i))
		if st != wire.StatusOK || string(got) != string(rval(i)) {
			t.Fatalf("key %d after periodic-checkpoint recovery: %v %q", i, st, got)
		}
	}
}

func rkey(i int) []byte { return []byte(fmt.Sprintf("rec-key-%06d", i)) }
func rval(i int) []byte { return []byte(fmt.Sprintf("rec-val-%06d", i)) }

// clientGet reads one key through the client and drains until the result
// arrives.
func clientGet(t *testing.T, ct *client.Thread, key []byte) ([]byte, wire.ResultStatus) {
	t.Helper()
	var val []byte
	st := wire.ResultStatus(255)
	ct.Read(key, func(s wire.ResultStatus, v []byte) {
		st = s
		val = append([]byte(nil), v...)
	})
	if !ct.Drain(10 * time.Second) {
		t.Fatal("read drain timed out")
	}
	return val, st
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// TestServerSectionCorruptCounts: the range, session and fence counts in a
// checkpoint image's server section are read off the device. A corrupt count
// must fail on the first short read, not size an allocation: with
// 0xFFFFFFFF in each position in turn, the parse errors out having
// allocated next to nothing.
func TestServerSectionCorruptCounts(t *testing.T) {
	var good bytes.Buffer
	writeServerSection(&good, metadata.View{Number: 7}, nil, nil)
	// Layout with no ranges, sessions or fences: magic, version, view number,
	// then the three u32 counts at 16, 20 and 24.
	if good.Len() != 28 {
		t.Fatalf("empty server section is %d bytes, want 28", good.Len())
	}
	if _, _, _, err := readServerSection(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("pristine section rejected: %v", err)
	}
	for _, off := range []int{16, 20, 24} {
		img := append([]byte(nil), good.Bytes()...)
		binary.LittleEndian.PutUint32(img[off:], 0xFFFFFFFF)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := readServerSection(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("count at offset %d = 0xFFFFFFFF accepted", off)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("count at offset %d: parse allocated %d bytes before failing", off, grew)
		}
	}
}
