package faster

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/hlog"
	"repro/internal/storage"
)

func TestCheckpointRecoverQuiesced(t *testing.T) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	cfg := Config{
		IndexBuckets: 1 << 10,
		Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
			Device: dev, LogID: "ckpt"},
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sess := s.NewSession()
	const n = 2500 // spills to "SSD"
	for i := 0; i < n; i++ {
		sess.Upsert(key(i), val(i), nil)
	}
	sess.Delete(key(3), nil)
	sess.Close()

	var blob bytes.Buffer
	info, err := s.CheckpointSync(&blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Tail == 0 {
		t.Fatalf("checkpoint info: %+v", info)
	}
	s.Close() // "crash": memory gone, device + blob survive

	cfg2 := cfg
	cfg2.Log.Epoch = nil
	r, err := Recover(cfg2, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.CurrentVersion() != 2 {
		t.Fatalf("recovered version %d, want 2", r.CurrentVersion())
	}

	rs := r.NewSession()
	defer rs.Close()
	for i := 0; i < n; i++ {
		got, st := mustRead(t, rs, key(i))
		if i == 3 {
			if st != StatusNotFound {
				t.Fatalf("deleted key %d resurrected: %v", i, st)
			}
			continue
		}
		if st != StatusOK || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after recovery: %v %q", i, st, got)
		}
	}
	// The recovered store accepts new writes.
	rs.Upsert([]byte("post-recovery"), []byte("yes"), nil)
	got, st := mustRead(t, rs, []byte("post-recovery"))
	if st != StatusOK || string(got) != "yes" {
		t.Fatal("recovered store rejects writes")
	}
}

func TestCheckpointWhileConcurrentWrites(t *testing.T) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	cfg := Config{
		IndexBuckets: 1 << 10,
		Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
			Device: dev, LogID: "ckpt2"},
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: stable prefix that the checkpoint must capture.
	sess := s.NewSession()
	const stable = 1000
	for i := 0; i < stable; i++ {
		sess.Upsert(key(i), val(i), nil)
	}
	sess.Close()

	// Phase 2: checkpoint while other threads keep writing disjoint keys.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := s.NewSession()
			defer ws.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				ws.Upsert([]byte(fmt.Sprintf("conc-%d-%d", w, i)), val(i), nil)
				i++
				ws.Refresh()
			}
		}(w)
	}
	var blob bytes.Buffer
	if _, err := s.CheckpointSync(&blob); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	s.Close()

	cfg2 := cfg
	cfg2.Log.Epoch = nil
	r, err := Recover(cfg2, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	// Everything written before the checkpoint started must be present.
	for i := 0; i < stable; i++ {
		got, st := mustRead(t, rs, key(i))
		if st != StatusOK || !bytes.Equal(got, val(i)) {
			t.Fatalf("pre-cut key %d lost: %v %q", i, st, got)
		}
	}
}

// TestCheckpointCutExcludesPostCutOps pins the CPR version semantics the
// server's exactly-once session replay depends on: operations performed
// after a thread crosses the checkpoint cut are stamped with the next
// version, and even though the fuzzy image absorbs their records, recovery's
// version filter drops them. Without this, a post-cut RMW would be both in
// the recovered state and above the checkpointed session table's durable
// prefix — and get applied twice after client replay.
func TestCheckpointCutExcludesPostCutOps(t *testing.T) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	cfg := Config{
		IndexBuckets: 1 << 10,
		Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
			Device: dev, LogID: "cut"},
	}
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.NewSession()

	// Pre-cut state (version 1): a counter at 5, a key that will be deleted
	// post-cut, and a plain key that will be overwritten post-cut.
	for i := 0; i < 5; i++ {
		sess.RMW([]byte("counter"), delta(1), nil)
	}
	sess.Upsert([]byte("survivor"), []byte("pre-cut"), nil)
	sess.Upsert([]byte("stable"), []byte("old"), nil)

	cutFired := make(chan uint32, 1)
	postCutDone := make(chan struct{})
	type outcome struct {
		info CheckpointInfo
		err  error
	}
	res := make(chan outcome, 1)
	var blob bytes.Buffer
	s.CheckpointCut(&blob,
		func(sealed uint32) {
			cutFired <- sealed
			<-postCutDone // hold the image write until post-cut ops landed
		},
		func(info CheckpointInfo, err error) { res <- outcome{info, err} })

	// Cross the cut, then race operations into the flush window: they are
	// stamped version 2 and will be absorbed by the fuzzy image.
	sess.Refresh()
	sealed := <-cutFired
	if sealed != 1 {
		t.Fatalf("sealed version %d, want 1", sealed)
	}
	for i := 0; i < 3; i++ {
		sess.RMW([]byte("counter"), delta(1), nil) // would make it 8
	}
	sess.Delete([]byte("survivor"), nil)
	sess.Upsert([]byte("stable"), []byte("new"), nil)
	sess.Upsert([]byte("post-cut-key"), []byte("x"), nil)
	close(postCutDone)

	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}
	sess.Close()
	s.Close()

	cfg2 := cfg
	cfg2.Log.Epoch = nil
	r, err := Recover(cfg2, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()

	// The recovered state must be exactly the version-1 prefix.
	got, st := mustRead(t, rs, []byte("counter"))
	if st != StatusOK || leU64(got) != 5 {
		t.Fatalf("counter after recovery: %v %d, want 5 (post-cut RMWs excluded)", st, leU64(got))
	}
	if got, st := mustRead(t, rs, []byte("survivor")); st != StatusOK || string(got) != "pre-cut" {
		t.Fatalf("post-cut delete leaked into the image: %v %q", st, got)
	}
	if got, st := mustRead(t, rs, []byte("stable")); st != StatusOK || string(got) != "old" {
		t.Fatalf("post-cut overwrite leaked into the image: %v %q", st, got)
	}
	if _, st := mustRead(t, rs, []byte("post-cut-key")); st != StatusNotFound {
		t.Fatalf("post-cut insert leaked into the image: %v", st)
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 1)
	defer dev.Close()
	cfg := Config{Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8, Device: dev}}
	if _, err := Recover(cfg, bytes.NewReader([]byte("not a checkpoint blob......."))); err == nil {
		t.Fatal("garbage blob accepted")
	}
	if _, err := Recover(cfg, bytes.NewReader(nil)); err == nil {
		t.Fatal("empty blob accepted")
	}
}

func TestCompaction(t *testing.T) {
	s, _ := testStore(t)
	sess := s.NewSession()
	defer sess.Close()

	// Overwrite each key several times so the stable prefix is mostly
	// stale, then delete a few.
	const n = 600
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			sess.Upsert(key(i), []byte(fmt.Sprintf("r%d-%s", round, val(i))), nil)
		}
	}
	for i := 0; i < 10; i++ {
		sess.Delete(key(i), nil)
	}
	lg := s.Log()
	if lg.SafeHeadAddress() == 0 {
		t.Fatal("nothing evicted; compaction test needs a stable region")
	}

	st, err := sess.Compact(lg.SafeHeadAddress(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned == 0 || st.Dropped == 0 {
		t.Fatalf("compaction did nothing: %+v", st)
	}
	if lg.BeginAddress() <= hlog.MinAddress {
		t.Fatal("begin address did not advance")
	}

	// All data intact after compaction.
	for i := 0; i < n; i++ {
		got, stt := mustRead(t, sess, key(i))
		if i < 10 {
			if stt != StatusNotFound {
				t.Fatalf("deleted key %d resurrected after compaction", i)
			}
			continue
		}
		want := fmt.Sprintf("r3-%s", val(i))
		if stt != StatusOK || string(got) != want {
			t.Fatalf("key %d after compaction: %v %q want %q", i, stt, got, want)
		}
	}
}

func TestCompactionRelocatesDisowned(t *testing.T) {
	s, _ := testStore(t)
	sess := s.NewSession()
	defer sess.Close()

	// One version per key, then filler traffic on other keys so the keyed
	// records land in the stable prefix as their keys' newest versions.
	const n = 600
	for i := 0; i < n; i++ {
		sess.Upsert(key(i), val(i), nil)
	}
	for i := 0; i < 3*n; i++ {
		sess.Upsert([]byte(fmt.Sprintf("filler-%05d", i)), val(i), nil)
	}
	lg := s.Log()
	if lg.SafeHeadAddress() == 0 {
		t.Skip("no stable region formed")
	}
	// Disown the lower half of the hash space.
	mid := uint64(1) << 63
	var relocated []CollectedRecord
	st, err := sess.Compact(lg.SafeHeadAddress(),
		func(h uint64) bool { return h >= mid },
		func(r CollectedRecord) bool { relocated = append(relocated, r); return true })
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocated == 0 || len(relocated) != st.Relocated {
		t.Fatalf("relocation accounting: %+v vs %d", st, len(relocated))
	}
	for _, r := range relocated {
		if r.Hash >= mid {
			t.Fatal("relocated an owned record")
		}
		if len(r.Key) == 0 {
			t.Fatal("relocated record missing key")
		}
	}
}

// TestCompactionRelocatesOnlyNewest: a disowned key whose stable prefix
// holds several versions must be relocated exactly once, with the newest
// value — the receiver installs conditionally, so a stale version arriving
// first would shadow the newest forever.
func TestCompactionRelocatesOnlyNewest(t *testing.T) {
	s, _ := testStore(t)
	sess := s.NewSession()
	defer sess.Close()

	const n = 400
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			sess.Upsert(key(i), []byte(fmt.Sprintf("r%d-%s", round, val(i))), nil)
		}
	}
	// Filler traffic evicts all three rounds into the stable prefix.
	for i := 0; i < 3*n; i++ {
		sess.Upsert([]byte(fmt.Sprintf("filler-%05d", i)), val(i), nil)
	}
	lg := s.Log()
	if lg.SafeHeadAddress() == 0 {
		t.Skip("no stable region formed")
	}
	seen := make(map[string][]byte)
	st, err := sess.Compact(lg.SafeHeadAddress(),
		func(h uint64) bool { return false }, // disown everything
		func(r CollectedRecord) bool {
			if prior, dup := seen[string(r.Key)]; dup {
				t.Fatalf("key %q relocated twice (%q then %q)", r.Key, prior, r.Value)
			}
			seen[string(r.Key)] = append([]byte(nil), r.Value...)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if st.Relocated == 0 {
		t.Fatalf("nothing relocated: %+v", st)
	}
	for i := 0; i < n; i++ {
		got, ok := seen[string(key(i))]
		if !ok {
			continue // newest version still in memory; not in this pass's range
		}
		want := fmt.Sprintf("r2-%s", val(i))
		if string(got) != want {
			t.Fatalf("key %d relocated stale version %q, want %q", i, got, want)
		}
	}
}

func BenchmarkUpsertInMemory(b *testing.B) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	s, err := NewStore(Config{
		IndexBuckets: 1 << 16,
		Log: hlog.Config{PageBits: 20, MemPages: 64, MutablePages: 32,
			Device: dev},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	keys := make([][]byte, 1<<14)
	for i := range keys {
		keys[i] = key(i)
	}
	v := val(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Upsert(keys[i&(len(keys)-1)], v, nil)
	}
}

func BenchmarkRMWInMemory(b *testing.B) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	s, err := NewStore(Config{
		IndexBuckets: 1 << 16,
		Log: hlog.Config{PageBits: 20, MemPages: 64, MutablePages: 32,
			Device: dev},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	keys := make([][]byte, 1<<14)
	for i := range keys {
		keys[i] = key(i)
	}
	d := delta(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.RMW(keys[i&(len(keys)-1)], d, nil)
	}
}

func BenchmarkReadInMemory(b *testing.B) {
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	s, err := NewStore(Config{
		IndexBuckets: 1 << 16,
		Log: hlog.Config{PageBits: 20, MemPages: 64, MutablePages: 32,
			Device: dev},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	sess := s.NewSession()
	defer sess.Close()
	keys := make([][]byte, 1<<14)
	for i := range keys {
		keys[i] = key(i)
		sess.Upsert(keys[i], val(i), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Read(keys[i&(len(keys)-1)], nil)
	}
}

// A compaction pass that lands between a checkpoint's cut and the writing of
// its image copies live records forward stamped with the post-cut version,
// which recovery filters out — so the image must carry the begin address of
// the cut, or the pre-cut originals recovery falls back to are out of reach.
func TestCheckpointBeginIsTheCutsAcrossCompaction(t *testing.T) {
	s, dev := testStore(t)
	sess := s.NewSession()
	const n = 2500 // one live version per key, most of them on the device
	for i := 0; i < n; i++ {
		sess.Upsert(key(i), val(i), nil)
	}
	sess.Close()
	lg := s.Log()
	if lg.SafeHeadAddress() == 0 {
		t.Fatal("nothing evicted; the test needs a stable region to compact")
	}
	cutBegin := lg.BeginAddress()

	type result struct {
		info CheckpointInfo
		err  error
	}
	var blob bytes.Buffer
	ch := make(chan result, 1)
	s.CheckpointCut(&blob, func(uint32) {
		// After every thread crossed the cut, before any image byte.
		cs := s.NewSession()
		defer cs.Close()
		if st, err := cs.Compact(lg.SafeHeadAddress(), nil, nil); err != nil || st.Kept == 0 {
			t.Errorf("compaction inside the checkpoint window copied nothing forward: %+v, %v", st, err)
		}
	}, func(info CheckpointInfo, err error) { ch <- result{info, err} })
	s.Epoch().DrainPending()
	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}
	if lg.BeginAddress() <= cutBegin {
		t.Fatal("the pass did not truncate; the test proves nothing")
	}
	if res.info.Begin != cutBegin {
		t.Fatalf("image begin %#x, want the cut's %#x (the log's is now %#x)",
			uint64(res.info.Begin), uint64(cutBegin), uint64(lg.BeginAddress()))
	}
	s.Close() // "crash"

	r, err := Recover(Config{
		IndexBuckets: 1 << 10,
		Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8,
			Device: dev, LogID: "test-store"},
	}, bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rs := r.NewSession()
	defer rs.Close()
	for i := 0; i < n; i++ {
		if got, st := mustRead(t, rs, key(i)); st != StatusOK || !bytes.Equal(got, val(i)) {
			t.Fatalf("key %d after recovery: %v %q", i, st, got)
		}
	}
}
