// Package metadata implements the fault-tolerant external metadata store
// Shadowfax relies on (§3; ZooKeeper in the paper). It durably maintains
// per-server strictly-increasing view numbers, the mapping between hash
// ranges and servers, and migration dependencies with completion and
// cancellation flags.
//
// The paper needs three properties from this component: linearizable
// updates, atomic multi-key transitions (ownership remap + view increments +
// dependency registration in one step), and client-visible reads. A single
// in-process store guarded by a mutex provides all three with identical
// semantics; ZooKeeper's replication is orthogonal to every experiment
// (README.md § "Elasticity: shared metadata" describes the stand-in).
//
// Reads are one value: Store.Snapshot returns the whole state at one
// revision (snapshot.go), built under one lock acquisition and shared,
// immutable, by every reader until the next mutation. Servers, clients, the
// balancer and the wire all route on that value; nothing else is readable.
package metadata

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// HashRange is a half-open interval [Start, End) of 64-bit key hashes.
type HashRange struct {
	Start, End uint64
}

// Contains reports whether h falls in the range.
func (r HashRange) Contains(h uint64) bool { return h >= r.Start && h < r.End }

// Overlaps reports whether two ranges intersect.
func (r HashRange) Overlaps(o HashRange) bool { return r.Start < o.End && o.Start < r.End }

func (r HashRange) String() string { return fmt.Sprintf("[%#x,%#x)", r.Start, r.End) }

// FullRange covers the entire hash space.
var FullRange = HashRange{Start: 0, End: ^uint64(0)}

// View is a server's ownership view: a strictly-increasing number plus the
// hash ranges owned at that number.
type View struct {
	Number uint64
	Ranges []HashRange
}

// Owns reports whether the view covers hash h.
func (v View) Owns(h uint64) bool {
	for _, r := range v.Ranges {
		if r.Contains(h) {
			return true
		}
	}
	return false
}

// Clone deep-copies the view.
func (v View) Clone() View {
	out := View{Number: v.Number, Ranges: make([]HashRange, len(v.Ranges))}
	copy(out.Ranges, v.Ranges)
	return out
}

// MigrationState tracks one in-flight migration's fault-tolerance record
// (§3.3.1).
type MigrationState struct {
	ID             uint64
	Source, Target string
	Range          HashRange
	// Epoch is the store-wide migration epoch assigned at StartMigration:
	// strictly increasing across all migrations, so observers can order
	// concurrent disjoint-range migrations and detect overlap in time
	// (two migrations were concurrent iff both were in flight at one
	// instant; their epochs name them unambiguously).
	Epoch      uint64
	SourceDone bool
	TargetDone bool
	Cancelled  bool
}

// Complete reports whether both sides finished (dependency collectable).
func (m MigrationState) Complete() bool { return m.SourceDone && m.TargetDone }

// InFlight reports whether the migration is still running: not yet finished
// on both sides and not cancelled.
func (m MigrationState) InFlight() bool { return !m.Complete() && !m.Cancelled }

// Errors returned by Store operations.
var (
	ErrUnknownServer    = errors.New("metadata: unknown server")
	ErrNotOwner         = errors.New("metadata: server does not own the range")
	ErrOverlap          = errors.New("metadata: range overlaps another server's ownership")
	ErrUnknownMigration = errors.New("metadata: unknown migration")
	ErrMigrationDone    = errors.New("metadata: migration already completed")
	// ErrMigrationOverlap rejects a StartMigration whose range overlaps a
	// migration still in flight: concurrent migrations are allowed only over
	// disjoint ranges, and the store is where that invariant is enforced
	// (one linearization point for every balancer and operator).
	ErrMigrationOverlap = errors.New("metadata: range overlaps an in-flight migration")
)

// Store is the metadata service. All methods are safe for concurrent use.
type Store struct {
	mu         sync.Mutex
	views      map[string]*View
	addrs      map[string]string
	migrations map[uint64]*MigrationState
	// replicas maps a primary's server id to its attached backup (replica.go).
	replicas map[string]*ReplicaState
	// promoted records, per server id, the view number a replica promotion
	// assigned: a deposed primary restarting from its checkpoint carries a
	// lower number and must be refused (split-brain guard).
	promoted map[string]uint64
	// leases maps a server id to its primary liveness lease (lease.go): the
	// split-brain fence consulted by PromoteReplica.
	leases    map[string]lease
	nextMigID uint64
	nextEpoch uint64
	revision  uint64
	// snap caches the Snapshot of the current revision; changedLocked drops
	// it, so an unchanged store answers every read with the same pointer.
	snap *Snapshot
}

// NewStore returns an empty metadata store.
func NewStore() *Store {
	return &Store{
		views:      make(map[string]*View),
		addrs:      make(map[string]string),
		migrations: make(map[uint64]*MigrationState),
		replicas:   make(map[string]*ReplicaState),
		promoted:   make(map[string]uint64),
		nextMigID:  1,
	}
}

// SetServerAddr records a server's transport address so peers and clients
// can dial it. The in-process store cannot fail; the error is the Provider
// signature's (a remote provider's RPC can).
func (s *Store) SetServerAddr(id, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addrs[id] = addr
	s.changedLocked()
	return nil
}

// RegisterServer creates (or resets) a server's view with the given ranges
// at view number 1. The error is always nil here (see SetServerAddr).
func (s *Store) RegisterServer(id string, ranges ...HashRange) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := &View{Number: 1, Ranges: mergeRanges(append([]HashRange(nil), ranges...))}
	s.views[id] = v
	s.changedLocked()
	return v.Clone(), nil
}

// RestoreServer reinstates a recovered server's ownership view exactly as it
// was checkpointed — number included — so clients holding the pre-crash view
// keep validating and the server's batches keep matching (§3.3.1: recovery
// re-registers the server under its durable metadata state). If a view
// already exists with a higher number (e.g. a migration completed while the
// server was down), the higher number wins and the recovered ranges are
// discarded in favor of the current ones.
//
// A restart races failover: if the id's backup was already promoted at a
// higher view number, or a synced backup is still attached and may promote
// any instant, the restore is refused with ErrDeposed — exactly one of the
// old primary and the backup may serve the ranges, and this refusal is the
// linearization point that picks the winner. An attached-but-unsynced
// replica loses instead: its entry is dropped (its base sync was cut short
// by the very crash being recovered from) and it must re-attach.
func (s *Store) RestoreServer(id string, v View) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pn, ok := s.promoted[id]; ok && v.Number < pn {
		return View{}, fmt.Errorf("%w: %q was superseded by its promoted replica (view %d)",
			ErrDeposed, id, pn)
	}
	if r, ok := s.replicas[id]; ok {
		if r.Synced {
			return View{}, fmt.Errorf("%w: %q has a synced replica attached (%s); let it promote",
				ErrDeposed, id, r.Addr)
		}
		delete(s.replicas, id) // mid-sync backup lost the race; it re-attaches
	}
	if cur, ok := s.views[id]; ok && cur.Number > v.Number {
		return cur.Clone(), nil
	}
	nv := v.Clone()
	nv.Ranges = mergeRanges(nv.Ranges)
	s.views[id] = &nv
	s.changedLocked()
	return nv.Clone(), nil
}

// StartMigration atomically (one linearization point, §3.3 Sampling step 1):
// remaps ownership of rng from source to target, increments both servers'
// view numbers, and registers the migration dependency. Returns the
// migration record and the two new views.
//
// Concurrent migrations are allowed as long as their ranges are disjoint: a
// start whose range overlaps any migration still in flight fails with
// ErrMigrationOverlap, so independent balancer passes (or an operator racing
// the balancer) can never double-move the same hash range.
func (s *Store) StartMigration(source, target string, rng HashRange) (MigrationState, View, View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.views[source]
	if !ok {
		return MigrationState{}, View{}, View{}, fmt.Errorf("%w: %q", ErrUnknownServer, source)
	}
	tv, ok := s.views[target]
	if !ok {
		return MigrationState{}, View{}, View{}, fmt.Errorf("%w: %q", ErrUnknownServer, target)
	}
	for _, m := range s.migrations {
		if m.InFlight() && m.Range.Overlaps(rng) {
			return MigrationState{}, View{}, View{}, fmt.Errorf(
				"%w: %s overlaps migration %d (epoch %d) %s", ErrMigrationOverlap,
				rng, m.ID, m.Epoch, m.Range)
		}
	}
	// A replicated server cannot take part in a migration: migrated-in
	// records install outside the client-batch path the replication stream
	// forwards, so the backup would silently miss them. Detach first.
	for _, id := range [2]string{source, target} {
		if _, ok := s.replicas[id]; ok {
			return MigrationState{}, View{}, View{}, fmt.Errorf(
				"%w: %q has a replica attached", ErrReplicated, id)
		}
	}
	rest, carved := carve(sv.Ranges, rng)
	if !carved {
		return MigrationState{}, View{}, View{}, fmt.Errorf("%w: %s does not own %s", ErrNotOwner, source, rng)
	}
	sv.Ranges = rest
	sv.Number++
	tv.Ranges = mergeRanges(append(tv.Ranges, rng))
	tv.Number++
	s.nextEpoch++
	m := &MigrationState{ID: s.nextMigID, Source: source, Target: target, Range: rng,
		Epoch: s.nextEpoch}
	s.nextMigID++
	s.migrations[m.ID] = m
	s.changedLocked()
	return *m, sv.Clone(), tv.Clone(), nil
}

// MarkMigrationDone sets one side's completion flag; when both are set the
// dependency is garbage-collectable.
func (s *Store) MarkMigrationDone(id uint64, server string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.migrations[id]
	if !ok {
		return ErrUnknownMigration
	}
	switch server {
	case m.Source:
		m.SourceDone = true
	case m.Target:
		m.TargetDone = true
	default:
		return fmt.Errorf("%w: %q not part of migration %d", ErrUnknownServer, server, id)
	}
	s.changedLocked()
	return nil
}

// CancelMigration implements §3.3.1's cancellation: it sets the cancellation
// flag and transfers ownership of the range back to the source, incrementing
// both views again. Fails if both completion flags are already set.
func (s *Store) CancelMigration(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.migrations[id]
	if !ok {
		return ErrUnknownMigration
	}
	if m.Complete() {
		return ErrMigrationDone
	}
	if m.Cancelled {
		return nil // idempotent
	}
	m.Cancelled = true
	sv := s.views[m.Source]
	tv := s.views[m.Target]
	if tv != nil {
		if rest, carved := carve(tv.Ranges, m.Range); carved {
			tv.Ranges = rest
		}
		tv.Number++
	}
	if sv != nil {
		sv.Ranges = mergeRanges(append(sv.Ranges, m.Range))
		sv.Number++
	}
	s.changedLocked()
	return nil
}

// CollectMigration removes a completed (or cancelled) migration dependency.
func (s *Store) CollectMigration(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.migrations[id]
	if !ok {
		return ErrUnknownMigration
	}
	if !m.Complete() && !m.Cancelled {
		return fmt.Errorf("metadata: migration %d still in flight", id)
	}
	delete(s.migrations, id)
	s.changedLocked()
	return nil
}

// Snapshot returns the cluster state at the current revision. It is built
// under one acquisition of mu — so every field describes the same instant —
// and cached until the next mutation: an unchanged store answers in O(1)
// with the same pointer. The error is always nil for the in-process store.
func (s *Store) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap != nil {
		return s.snap, nil
	}
	servers := make([]ServerEntry, 0, len(s.views))
	for id, v := range s.views {
		// Cloned: mutations edit a view's Ranges in place.
		servers = append(servers, ServerEntry{ID: id, Addr: s.addrs[id], View: v.Clone()})
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i].ID < servers[j].ID })
	migrations := make([]MigrationState, 0, len(s.migrations))
	for _, m := range s.migrations {
		migrations = append(migrations, *m)
	}
	sort.Slice(migrations, func(i, j int) bool { return migrations[i].ID < migrations[j].ID })
	replicas := make([]ReplicaState, 0, len(s.replicas))
	for _, r := range s.replicas {
		replicas = append(replicas, *r)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].PrimaryID < replicas[j].PrimaryID })
	promoted := make([]string, 0, len(s.promoted))
	for id := range s.promoted {
		promoted = append(promoted, id)
	}
	sort.Strings(promoted)
	s.snap = NewSnapshot(s.revision, servers, migrations, replicas, promoted)
	return s.snap, nil
}

// changedLocked records a mutation: the revision advances and the cached
// snapshot, now out of date, is dropped.
func (s *Store) changedLocked() {
	s.revision++
	s.snap = nil
}

// carve removes rng from ranges; ok is false when rng is not fully covered
// by a single owned range.
func carve(ranges []HashRange, rng HashRange) ([]HashRange, bool) {
	for i, r := range ranges {
		if rng.Start >= r.Start && rng.End <= r.End {
			out := append([]HashRange(nil), ranges[:i]...)
			if r.Start < rng.Start {
				out = append(out, HashRange{r.Start, rng.Start})
			}
			if rng.End < r.End {
				out = append(out, HashRange{rng.End, r.End})
			}
			out = append(out, ranges[i+1:]...)
			return out, true
		}
	}
	return ranges, false
}

// mergeRanges sorts and coalesces adjacent/overlapping ranges.
func mergeRanges(ranges []HashRange) []HashRange {
	if len(ranges) <= 1 {
		return ranges
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i].Start < ranges[j].Start })
	out := ranges[:1]
	for _, r := range ranges[1:] {
		last := &out[len(out)-1]
		if r.Start <= last.End {
			if r.End > last.End {
				last.End = r.End
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
