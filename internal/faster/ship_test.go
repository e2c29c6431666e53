package faster

import (
	"fmt"
	"testing"

	"repro/internal/hlog"
	"repro/internal/storage"
)

// TestCollectStableNewestFirst drives the device-prefix scan without a
// server: a key's newest device version comes first whether its versions
// share a page or sit pages apart, versions below the key's ownership fence
// are never emitted, indirection records are skipped, and the hash range is
// honoured.
func TestCollectStableNewestFirst(t *testing.T) {
	s, _ := testStore(t)
	sess := s.NewSession()
	defer sess.Close()

	// Values of different lengths force a new version instead of an in-place
	// update. "near" gets two adjacent versions; "far" gets two with more than
	// a page of filler between them.
	sess.Upsert([]byte("near"), []byte("n1"), nil)
	sess.Upsert([]byte("near"), []byte("n2-newest"), nil)
	sess.Upsert([]byte("far"), []byte("f1"), nil)
	sess.Upsert([]byte("fenced"), []byte("stale"), nil)
	probe := HashOf([]byte("never-written-locally"))
	if st := sess.SpliceIndirection(probe, hlog.EncodeIndirection(hlog.IndirectionPayload{
		NextAddress: 0x4242, LogID: "remote", RangeEnd: ^uint64(0), HashBucket: probe})); st != StatusOK {
		t.Fatalf("splice: %v", st)
	}
	spill(sess, "gap", 200) // ~8 KiB: two pages
	hf := HashOf([]byte("fenced"))
	s.AddFence(hf, hf+1, s.Log().TailAddress())
	sess.Upsert([]byte("far"), []byte("f2-newest"), nil)
	sess.Upsert([]byte("fenced"), []byte("live"), nil)
	last := s.Log().TailAddress()
	spill(sess, "evict", 3000)
	if s.Log().SafeHeadAddress() < last {
		t.Fatalf("safe head %#x: the versions under test (below %#x) never left memory",
			s.Log().SafeHeadAddress(), last)
	}

	versions := make(map[string][]string)
	s.CollectStable(0, ^uint64(0), func(rec CollectedRecord) {
		if rec.Indirection || len(rec.Key) == 0 {
			t.Fatalf("scan emitted an indirection record: %+v", rec)
		}
		if rec.Hash != HashOf(rec.Key) {
			t.Fatalf("record %q carries hash %#x", rec.Key, rec.Hash)
		}
		versions[string(rec.Key)] = append(versions[string(rec.Key)], string(rec.Value))
	})
	for k, want := range map[string]string{
		"near":   "[n2-newest n1]",
		"far":    "[f2-newest f1]",
		"fenced": "[live]",
	} {
		if got := fmt.Sprint(versions[k]); got != want {
			t.Errorf("%s: versions in emission order %s, want %s", k, got, want)
		}
	}

	hn := HashOf([]byte("near"))
	s.CollectStable(hn, hn+1, func(rec CollectedRecord) {
		if string(rec.Key) != "near" {
			t.Errorf("range [%#x, +1) emitted %q", hn, rec.Key)
		}
	})
}

// TestWalkTierChain hand-builds two logs in a shared tier — a chain suffix in
// "mid" that ends in an indirection record hopping into the older log "old" —
// and checks the one walker in both of its modes: the whole-suffix walk
// follows the hop, skips invalid records and honours the payload's hash range;
// the single-key walk stops at the key's newest version, and at a hop whose
// range excludes the key.
func TestWalkTierChain(t *testing.T) {
	tier := storage.NewSharedTier(storage.LatencyModel{})
	dev := storage.NewMemDevice(storage.LatencyModel{}, 1)
	s, err := NewStore(Config{IndexBuckets: 1 << 8,
		Log: hlog.Config{PageBits: 12, MemPages: 16, MutablePages: 8, Device: dev, Tier: tier, LogID: "local"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close(); dev.Close() })

	// keyIn picks a key whose hash lies in [lo, hi).
	n := 0
	keyIn := func(lo, hi uint64) []byte {
		for ; ; n++ {
			if k := key(n); HashOf(k) >= lo && HashOf(k) < hi {
				n++
				return k
			}
		}
	}
	const quarter, half = uint64(1) << 62, uint64(1) << 63
	newKey, oldKey := keyIn(0, quarter), keyIn(0, quarter)
	pastHop := keyIn(quarter, half)    // in the payload's range, outside the hop's
	outside := keyIn(half, ^uint64(0)) // outside the payload's range

	put := func(page []byte, at, prev hlog.Address, indirection bool, k, v []byte) {
		hlog.WriteRecord(page[at:], hlog.NewMeta(prev, 1, indirection, false), k, v)
	}
	old := hlog.AlignedBuf(1 << 12)
	put(old, 64, hlog.InvalidAddress, false, outside, []byte("out"))
	put(old, 256, 64, false, pastHop, []byte("past-hop"))
	put(old, 512, 256, false, oldKey, []byte("old-log"))
	mid := hlog.AlignedBuf(1 << 12)
	put(mid, 64, hlog.InvalidAddress, true, nil, hlog.EncodeIndirection(hlog.IndirectionPayload{
		NextAddress: 512, LogID: "old", RangeStart: 0, RangeEnd: quarter}))
	put(mid, 512, 64, false, newKey, []byte("new-older"))
	put(mid, 1024, 512, false, newKey, []byte("new-newest"))
	put(mid, 2048, 1024, false, oldKey, []byte("invalidated"))
	dead := hlog.Record(mid[2048:])
	dead.SetMeta(dead.Meta().WithInvalid())
	for id, page := range map[string][]byte{"old": old, "mid": mid} {
		if err := tier.Upload(id, page, 0); err != nil {
			t.Fatal(err)
		}
	}
	p := hlog.IndirectionPayload{NextAddress: 2048, LogID: "mid", RangeStart: 0, RangeEnd: half}

	walk := func(k []byte) []string {
		var got []string
		s.WalkTierChain(p, k, func(rec CollectedRecord) bool {
			got = append(got, string(rec.Value))
			return k == nil
		})
		return got
	}
	if got := fmt.Sprint(walk(nil)); got != "[new-newest new-older old-log past-hop]" {
		t.Errorf("whole-suffix walk emitted %s", got)
	}
	if got := fmt.Sprint(walk(newKey)); got != "[new-newest]" {
		t.Errorf("walk for a key in the first log emitted %s", got)
	}
	if got := fmt.Sprint(walk(oldKey)); got != "[old-log]" {
		t.Errorf("walk for a key behind the hop emitted %s", got)
	}
	if got := walk(pastHop); got != nil {
		t.Errorf("walk for a key the hop's range excludes emitted %v", got)
	}
	if got := walk(outside); got != nil {
		t.Errorf("walk for a key outside the payload's range emitted %v", got)
	}
}
