package main

// The benchmark owns its load. Everything the program under test receives —
// keys, values, the order of operations — is produced here from -seed and
// from nothing else, so a later change to internal/ycsb (product-side
// tooling) cannot move a benchmark number.

import (
	"encoding/binary"
	"math"
)

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 scatters Zipfian ranks over the key space (YCSB's "scrambled"
// Zipfian), so that hot keys are not neighbours in the index.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	return x ^ (x >> 33)
}

// zipf is Gray et al.'s rejection-free Zipfian over [0, n).
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	half                     float64 // 0.5^theta
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	switch {
	case uz < 1:
		return 0
	case uz < 1+z.half:
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opRMW
)

// op is one generated operation: its kind and the index of its key.
type op struct {
	kind opKind
	key  uint64
}

// stream is a workload's seeded operation sequence: a key distribution and
// an op-mix selector, each on its own generator so that changing the mix
// does not change the keys.
type stream struct {
	keys, mix      rng
	n              uint64
	z              *zipf // nil = uniform
	getPct, setPct uint64
}

func newStream(w *workload, seed uint64) *stream {
	s := &stream{
		keys:   rng{s: seed*0x9E3779B97F4A7C15 + 1},
		mix:    rng{s: seed*0xD1B54A32D192ED03 + 2},
		n:      w.keys,
		getPct: uint64(w.getPct), setPct: uint64(w.setPct),
	}
	if w.zipf {
		s.z = newZipf(w.keys, 0.99)
	}
	return s
}

func (s *stream) next() op {
	var k uint64
	if s.z != nil {
		k = mix64(s.z.rank(s.keys.float())) % s.n
	} else {
		k = s.keys.next() % s.n
	}
	switch m := s.mix.next() % 100; {
	case m < s.getPct:
		return op{opGet, k}
	case m < s.getPct+s.setPct:
		return op{opSet, k}
	}
	return op{opRMW, k}
}

// fillKey writes key index k as the 8-byte key.
func fillKey(buf []byte, k uint64) { binary.BigEndian.PutUint64(buf, k) }

// fillValue stamps a value for key k: its first 8 bytes carry the key index
// and its last byte a check derived from it, so every read verifies both
// content and written length.
func fillValue(buf []byte, k uint64) {
	binary.LittleEndian.PutUint64(buf, k)
	buf[len(buf)-1] = byte(k) ^ 0x5A
}

// checkValue reports whether v is the value fillValue wrote for key k at
// length n.
func checkValue(v []byte, k uint64, n int) bool {
	return len(v) == n && binary.LittleEndian.Uint64(v) == k && v[n-1] == byte(k)^0x5A
}
