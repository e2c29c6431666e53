package main

import (
	"hash/fnv"
	"testing"
)

// TestStreamsArePinned pins the first 1 000 ops of every workload for seed 1
// by hash: the generators are part of the benchmark's definition, and a
// change to them is a change of the benchmark, never a side effect. (The
// Zipfian draws go through math.Pow: pinned on amd64, where the compiler
// does not fuse multiply-adds.)
func TestStreamsArePinned(t *testing.T) {
	want := map[string]uint64{
		"ingest_rmw_zipf":     0xb4ac789a71be2059,
		"paced_mixed_uniform": 0xca7aa5c32b4cb335,
		"cold_read_zipf":      0x36e0d3b5c41489fb,
		"migrate_scaleout":    0xb4ac789a71be2059, // the ingest traffic
	}
	for _, w := range workloads {
		s := newStream(w, 1)
		h := fnv.New64a()
		var buf [9]byte
		for i := 0; i < 1000; i++ {
			o := s.next()
			if o.key >= w.keys {
				t.Fatalf("%s: op %d has key %d of %d", w.name, i, o.key, w.keys)
			}
			buf[0] = byte(o.kind)
			fillKey(buf[1:], o.key)
			h.Write(buf[:])
		}
		if got := h.Sum64(); got != want[w.name] {
			t.Errorf("%s: first 1000 ops of seed 1 hash to %#x, pinned %#x", w.name, got, want[w.name])
		}
	}
}

// TestSameSeedSameStream checks that a stream depends on its seed and on
// nothing else.
func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b, c := newStream(w, 7), newStream(w, 7), newStream(w, 8)
		same := true
		for i := 0; i < 1000; i++ {
			x, y, z := a.next(), b.next(), c.next()
			if x != y {
				t.Fatalf("%s: op %d differs between two streams of seed 7", w.name, i)
			}
			same = same && x == z
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
	}
}

// TestZipfIsSkewed checks the Zipfian generator's shape: rank 0 is drawn
// about 1/zeta(n) of the time, and the mix selector honours its shares.
func TestZipfIsSkewed(t *testing.T) {
	z := newZipf(1<<20, 0.99)
	r := rng{s: 1}
	const n = 200000
	zero := 0
	for i := 0; i < n; i++ {
		if z.rank(r.float()) == 0 {
			zero++
		}
	}
	if want := n / z.zetan; float64(zero) < 0.9*want || float64(zero) > 1.1*want {
		t.Errorf("rank 0 drawn %d times of %d, want about %.0f", zero, n, want)
	}

	s := newStream(findWorkload("cold_read_zipf"), 1)
	gets := 0
	for i := 0; i < n; i++ {
		if s.next().kind == opGet {
			gets++
		}
	}
	if gets < n*94/100 || gets > n*96/100 {
		t.Errorf("cold_read_zipf: %d of %d ops are gets, want 95%%", gets, n)
	}
}

func TestValuesCarryTheirKey(t *testing.T) {
	v := make([]byte, 100)
	fillValue(v, 12345)
	if !checkValue(v, 12345, 100) {
		t.Error("a value fails its own check")
	}
	if checkValue(v, 12346, 100) || checkValue(v[:99], 12345, 99) || checkValue(v, 12345, 256) {
		t.Error("a value passes the check of another key or length")
	}
}
