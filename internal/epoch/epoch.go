// Package epoch implements FASTER-style epoch-based protection with trigger
// actions (§2.1 of the Shadowfax paper).
//
// Every thread (goroutine acting as a pinned vCPU thread) that touches shared
// store structures registers with a Manager and periodically refreshes its
// view of the global epoch. Memory (a hybrid-log page frame, an old hash-table
// chunk) tagged for reclamation at epoch e may be reused only once every
// registered thread has advanced past e.
//
// The same machinery provides asynchronous global cuts: BumpWithAction bumps
// the global epoch and registers a trigger that runs exactly once, after every
// registered thread has observed an epoch greater than or equal to the bumped
// value. Checkpoint version changes, hybrid-log region shifts, view changes
// and every migration phase transition in this repository are built on that
// one primitive. No thread ever blocks waiting for another; each thread's
// Refresh is the point it contributes to the cut.
package epoch

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

const (
	// MaxThreads is the maximum number of concurrently registered threads.
	MaxThreads = 256

	// drainListSize bounds the number of in-flight trigger actions.
	drainListSize = 64

	// claimed marks a drain-list slot mid-registration or mid-execution; it
	// compares greater than any real epoch so tryDrain skips it.
	claimed = ^uint64(0)

	// unregistered marks a thread slot whose local epoch is not protecting
	// anything.
	unregistered = uint64(0)
)

// pad64 pads hot per-thread counters to a cache line to avoid false sharing
// between the per-thread epoch slots.
type pad64 struct {
	v atomic.Uint64
	_ [7]uint64
}

// drainEntry is one pending trigger action, keyed by the epoch it is safe at.
type drainEntry struct {
	epoch  atomic.Uint64 // 0 = free slot
	action atomic.Value  // func()
}

// Manager tracks the global epoch, per-thread local epochs, and the drain
// list of trigger actions.
type Manager struct {
	current atomic.Uint64 // global epoch, starts at 1

	drainCount atomic.Int64
	drainList  [drainListSize]drainEntry

	threads [MaxThreads]pad64
	nextTID atomic.Int64
	freeTID chan int
}

// NewManager returns a Manager with the global epoch initialized to 1.
func NewManager() *Manager {
	m := &Manager{freeTID: make(chan int, MaxThreads)}
	m.current.Store(1)
	return m
}

// Guard is a registered thread's handle. A Guard is owned by exactly one
// goroutine; its methods must not be called concurrently.
type Guard struct {
	m   *Manager
	tid int
}

// Register acquires a thread slot and enters the protected region at the
// current epoch. It panics if more than MaxThreads guards are live, which is
// a configuration error, not a runtime condition.
func (m *Manager) Register() *Guard {
	var tid int
	select {
	case tid = <-m.freeTID:
	default:
		n := m.nextTID.Add(1) - 1
		if n >= MaxThreads {
			panic(fmt.Sprintf("epoch: more than %d registered threads", MaxThreads))
		}
		tid = int(n)
	}
	g := &Guard{m: m, tid: tid}
	g.Refresh()
	return g
}

// Unregister leaves the protected region and releases the thread slot for
// reuse. The Guard must not be used afterwards.
//
//shadowfax:epoch
func (g *Guard) Unregister() {
	m := g.m
	m.threads[g.tid].v.Store(unregistered)
	// A departing thread must not strand trigger actions that were waiting
	// only on it.
	m.tryDrain(m.current.Load())
	m.freeTID <- g.tid //shadowfax:ignore epochblock freeTID is buffered to MaxThreads, one slot per registered guard, so this send never parks
	g.m = nil
}

// Refresh synchronizes the thread's local epoch with the global epoch and
// runs any trigger actions that became safe. Threads call this between
// request batches; it is the lazily-taken point on the global cut.
//
//shadowfax:epoch
func (g *Guard) Refresh() {
	m := g.m
	cur := m.current.Load()
	m.threads[g.tid].v.Store(cur)
	if m.drainCount.Load() > 0 {
		m.tryDrain(cur)
	}
}

// Suspend marks the thread as not protecting anything (e.g. while blocked on
// network I/O) so it does not hold up reclamation or global cuts.
func (g *Guard) Suspend() {
	g.m.threads[g.tid].v.Store(unregistered)
	g.m.tryDrain(g.m.current.Load())
}

// Resume re-enters the protected region.
func (g *Guard) Resume() { g.Refresh() }

// Protected reports whether the guard currently protects an epoch.
func (g *Guard) Protected() bool {
	return g.m.threads[g.tid].v.Load() != unregistered
}

// LocalEpoch returns the guard's current local epoch (0 if suspended).
func (g *Guard) LocalEpoch() uint64 { return g.m.threads[g.tid].v.Load() }

// Current returns the global epoch.
func (m *Manager) Current() uint64 { return m.current.Load() }

// Bump advances the global epoch and returns the previous value. Memory
// retired at the returned epoch is safe to reuse once ComputeSafeEpoch
// returns a value greater than it.
func (m *Manager) Bump() uint64 {
	return m.current.Add(1) - 1
}

// BumpWithAction advances the global epoch and registers action to run
// exactly once after every registered thread has observed the new epoch.
// This is the asynchronous global cut: the set of per-thread Refresh points
// that first observe the new epoch forms the cut, and action fires on its
// far side. If the drain list is full the caller spins briefly draining; that
// only happens when >64 system events race, which no workload here does.
//
//shadowfax:epoch
func (m *Manager) BumpWithAction(action func()) uint64 {
	prior := m.current.Add(1) - 1
	safeAt := prior + 1
	for {
		for i := range m.drainList {
			e := &m.drainList[i]
			// Claim the free slot first (0 -> sentinel), then publish the
			// action, then arm the epoch. Storing the action before owning
			// the slot would let two racing registrants overwrite each
			// other.
			if e.epoch.Load() == 0 && e.epoch.CompareAndSwap(0, claimed) {
				e.action.Store(action)
				e.epoch.Store(safeAt)
				m.drainCount.Add(1)
				// The cut may already be satisfied (e.g. no other
				// threads registered).
				m.tryDrain(m.current.Load())
				return prior
			}
		}
		// Drain list full: help out, then retry.
		m.tryDrain(m.current.Load())
		runtime.Gosched()
	}
}

// ComputeSafeEpoch recomputes the minimum epoch protected by any thread.
// Every epoch strictly less than the returned value is unprotected.
func (m *Manager) ComputeSafeEpoch() uint64 {
	oldest := m.current.Load()
	n := int(m.nextTID.Load())
	for i := 0; i < n; i++ {
		e := m.threads[i].v.Load()
		if e != unregistered && e < oldest {
			oldest = e
		}
	}
	return oldest
}

// tryDrain runs every pending action whose epoch boundary every thread has
// crossed.
func (m *Manager) tryDrain(cur uint64) {
	if m.drainCount.Load() == 0 {
		return
	}
	safe := m.ComputeSafeEpoch()
	_ = cur
	for i := range m.drainList {
		e := &m.drainList[i]
		at := e.epoch.Load()
		if at == 0 || at > safe {
			continue
		}
		// Claim the entry via CAS to ensure exactly-once execution.
		if e.epoch.CompareAndSwap(at, claimed) {
			act := e.action.Load().(func())
			m.drainCount.Add(-1)
			act()
			e.epoch.Store(0)
		}
	}
}

// DrainPending forces evaluation of outstanding trigger actions; used by
// tests and by shutdown paths to flush cuts when all threads are quiesced.
func (m *Manager) DrainPending() {
	m.tryDrain(m.current.Load())
}
