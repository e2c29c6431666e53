package soak

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/shadowfax"
)

// keyState is one key's three monotonic counters (see the package comment).
type keyState struct {
	issued   atomic.Uint64
	acked    atomic.Uint64
	observed atomic.Uint64
}

// maxViolations caps the violation list: one broken invariant usually trips
// on every later op, and the first few lines are the ones worth reading.
const maxViolations = 32

// ledger is the checker every soak shares: the keyspace, the per-key
// counters, the violations recorded so far, and the values the final sweep
// read (kept for the artifact dump).
type ledger struct {
	keys   [][]byte
	states []keyState
	finals []uint64

	mu   sync.Mutex
	viol []string
}

func newLedger(keys int) *ledger {
	l := &ledger{
		keys:   make([][]byte, keys),
		states: make([]keyState, keys),
		finals: make([]uint64, keys),
	}
	for i := range l.keys {
		l.keys[i] = []byte(fmt.Sprintf("soak-%06d", i))
	}
	return l
}

func (l *ledger) violate(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.viol) < maxViolations {
		l.viol = append(l.viol, fmt.Sprintf(format, args...))
	}
}

func (l *ledger) violations() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.viol...)
}

// preload materializes every key as a zero counter so NotFound is a
// violation from the first read on.
func (l *ledger) preload(cl *shadowfax.Client) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	zero := make([]byte, 8)
	for i, key := range l.keys {
		if err := cl.Set(ctx, key, zero); err != nil {
			return fmt.Errorf("soak: preloading key %d: %w", i, err)
		}
	}
	if err := cl.Drain(ctx); err != nil {
		return fmt.Errorf("soak: preload drain: %w", err)
	}
	return nil
}

// floor is the least value a read issued now may return: every increment
// already acked, and every value an earlier read already saw. Snapshot it
// before the read is handed to the client.
func (l *ledger) floor(k int) uint64 {
	ks := &l.states[k]
	lb := ks.acked.Load()
	if o := ks.observed.Load(); o > lb {
		lb = o
	}
	return lb
}

// issue counts an increment about to be handed to the client; ack counts
// one whose future completed OK.
func (l *ledger) issue(k int) { l.states[k].issued.Add(1) }
func (l *ledger) ack(k int)   { l.states[k].acked.Add(1) }

// checkRead judges a completed read of key k against the floor taken before
// it was issued; err is nil or ErrNotFound. It reports whether the read
// returned a value.
func (l *ledger) checkRead(k int, floor uint64, v []byte, err error) bool {
	ks := &l.states[k]
	switch {
	case errors.Is(err, shadowfax.ErrNotFound):
		l.violate("key %d (hash %#x): vanished (NotFound after preload)", k, faster.HashOf(l.keys[k]))
		return false
	case len(v) != 8:
		l.violate("key %d: read returned %d bytes, want 8", k, len(v))
	default:
		got := binary.LittleEndian.Uint64(v)
		if hi := ks.issued.Load(); got < floor || got > hi {
			l.violate("key %d (hash %#x): read %d outside linearizable bounds [%d, %d]",
				k, faster.HashOf(l.keys[k]), got, floor, hi)
		}
		casMax(&ks.observed, got)
	}
	return true
}

// checkFinal judges the value key k holds once the load has drained: at
// least every acked increment (nothing lost to any fault) and at most every
// issued one (no recovery replay applied twice).
func (l *ledger) checkFinal(k int, v []byte) {
	if len(v) != 8 {
		l.violate("final sweep: key %d has %d bytes, want 8", k, len(v))
		return
	}
	got := binary.LittleEndian.Uint64(v)
	l.finals[k] = got
	ks := &l.states[k]
	if acked, issued := ks.acked.Load(), ks.issued.Load(); got < acked || got > issued {
		l.violate("final sweep: key %d = %d, want within [acked %d, issued %d]", k, got, acked, issued)
	}
}

func casMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// dump writes the violation trace (violations.txt, led by the run's summary
// line) and the per-key history table (key_history.csv) into dir after a run
// that recorded violations, so CI uploads them for post-mortem.
func (l *ledger) dump(dir, summary string, logf func(string, ...any)) {
	if dir == "" {
		return
	}
	viol := l.violations()
	if len(viol) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("soak: artifact dir: %v", err)
		return
	}
	var trace, hist strings.Builder
	trace.WriteString(summary + "\n\n")
	for _, v := range viol {
		trace.WriteString(v + "\n")
	}
	hist.WriteString("key,hash,issued,acked,observed,final\n")
	for i, key := range l.keys {
		ks := &l.states[i]
		fmt.Fprintf(&hist, "%s,%#x,%d,%d,%d,%d\n", key, faster.HashOf(key),
			ks.issued.Load(), ks.acked.Load(), ks.observed.Load(), l.finals[i])
	}
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			logf("soak: writing %s: %v", name, err)
		}
	}
	write("violations.txt", trace.String())
	write("key_history.csv", hist.String())
	logf("soak: wrote failure artifacts to %s", dir)
}
