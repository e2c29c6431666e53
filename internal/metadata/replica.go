package metadata

import (
	"errors"
	"fmt"
)

// Primary→backup replication metadata: each primary may have at most one
// attached backup, tracked here so that failover — promote the backup,
// repoint ownership and the primary's address, depose the dead primary — is
// a single linearization point under the store mutex, exactly like migration
// ownership transfer (§3.3).

// ReplicaState describes one attached backup.
type ReplicaState struct {
	// PrimaryID is the server the backup shadows; on promotion the backup
	// takes over this identity (clients keep dialing the same server id).
	PrimaryID string
	// Addr is the backup's transport address; promotion repoints the
	// primary's address entry here.
	Addr string
	// Synced is set once the backup holds the full base state and the live
	// stream; only a synced backup may promote.
	Synced bool
}

// Errors returned by the replication metadata operations.
var (
	// ErrDeposed refuses a deposed primary's restart: its backup was (or is
	// about to be) promoted in its place.
	ErrDeposed = errors.New("metadata: server deposed by promoted replica")
	// ErrReplicated refuses an operation (migration, drain) on a server with
	// a replica attached.
	ErrReplicated = errors.New("metadata: server has a replica attached")
	// ErrNoReplica means the server has no attached replica (or a different
	// one than the caller claims to be).
	ErrNoReplica = errors.New("metadata: no such replica")
	// ErrReplicaNotSynced refuses promotion of a backup that never finished
	// its base sync: it does not hold the full acknowledged state.
	ErrReplicaNotSynced = errors.New("metadata: replica not synced")
	// ErrServerNotEmpty refuses retirement of a server that still owns
	// ranges or is party to an in-flight migration.
	ErrServerNotEmpty = errors.New("metadata: server still owns ranges")
)

// SetReplica attaches addr as primaryID's backup. The primary must be
// registered; re-attaching (same or different address) resets Synced — the
// new incarnation must complete a fresh base sync before it may promote.
// At most one backup per primary: an attach while a *synced* backup is
// registered at a different address is refused (the primary detaches the old
// one first via ClearReplica).
func (s *Store) SetReplica(primaryID, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.views[primaryID]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownServer, primaryID)
	}
	if r, ok := s.replicas[primaryID]; ok && r.Synced && r.Addr != addr {
		return fmt.Errorf("%w: %q already has synced replica %s", ErrReplicated,
			primaryID, r.Addr)
	}
	s.replicas[primaryID] = &ReplicaState{PrimaryID: primaryID, Addr: addr}
	s.changedLocked()
	return nil
}

// MarkReplicaSynced records that primaryID's backup at addr completed its
// base sync and is applying the live stream; it is now eligible to promote.
func (s *Store) MarkReplicaSynced(primaryID, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replicas[primaryID]
	if !ok || r.Addr != addr {
		return fmt.Errorf("%w: %q at %s", ErrNoReplica, primaryID, addr)
	}
	r.Synced = true
	s.changedLocked()
	return nil
}

// ClearReplica detaches primaryID's backup at addr (primary-side failure
// detection: the backup stopped acknowledging). Idempotent; a no-op when a
// different backup is registered (a newer incarnation already attached).
func (s *Store) ClearReplica(primaryID, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.replicas[primaryID]; ok && r.Addr == addr {
		delete(s.replicas, primaryID)
		s.changedLocked()
	}
	return nil
}

// PromoteReplica is failover's linearization point: the synced backup at
// addr takes over primaryID's identity — its view number is bumped (so
// clients re-route and replay sessions through the §3.3.1 recovery path),
// its address is repointed at the backup, and the promotion watermark is
// recorded so the dead primary's eventual restart is refused (ErrDeposed in
// RestoreServer). Returns the view the promoted server must adopt.
func (s *Store) PromoteReplica(primaryID, addr string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.replicas[primaryID]
	if !ok || r.Addr != addr {
		return View{}, fmt.Errorf("%w: %q at %s", ErrNoReplica, primaryID, addr)
	}
	if !r.Synced {
		return View{}, fmt.Errorf("%w: %q at %s", ErrReplicaNotSynced, primaryID, addr)
	}
	if l, held := s.leaseBlocksPromotionLocked(primaryID, addr); held {
		return View{}, fmt.Errorf("%w: %q at %s renews until %s", ErrPrimaryAlive,
			primaryID, l.addr, l.expiry.Format("15:04:05.000"))
	}
	v, ok := s.views[primaryID]
	if !ok {
		return View{}, fmt.Errorf("%w: %q", ErrUnknownServer, primaryID)
	}
	v.Number++
	s.addrs[primaryID] = addr
	s.promoted[primaryID] = v.Number
	delete(s.replicas, primaryID)
	delete(s.leases, primaryID) // the old holder is deposed; its lease is void
	s.changedLocked()
	return v.Clone(), nil
}

// RetireServer removes an empty server from the metadata store (scale-in:
// the balancer drained its ranges into neighbors and shuts it down).
// Refused while the server still owns ranges, has a replica attached, or is
// party to an uncollected migration. Retiring an unknown server is a no-op —
// a drained server retried after a partial failure must converge.
func (s *Store) RetireServer(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		return nil // already retired
	}
	if len(v.Ranges) > 0 {
		return fmt.Errorf("%w: %q owns %d range(s)", ErrServerNotEmpty, id, len(v.Ranges))
	}
	if _, ok := s.replicas[id]; ok {
		return fmt.Errorf("%w: %q", ErrReplicated, id)
	}
	for _, m := range s.migrations {
		if (m.Source == id || m.Target == id) && !m.Complete() && !m.Cancelled {
			return fmt.Errorf("metadata: %q is party to in-flight migration %d", id, m.ID)
		}
	}
	delete(s.views, id)
	delete(s.addrs, id)
	delete(s.leases, id)
	s.changedLocked()
	return nil
}
