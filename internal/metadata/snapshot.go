package metadata

import (
	"fmt"
	"sort"
)

// ServerEntry is one registered server inside a Snapshot: its id, transport
// address ("" until SetServerAddr) and ownership view.
type ServerEntry struct {
	ID   string
	Addr string
	View View
}

// Snapshot is the cluster state at one revision: every registered server
// with its address and view, every uncollected migration, every attached
// replica and the promoted-server set. It is the only read surface of a
// Provider, and it is immutable — one value is handed to every reader and
// kept as the provider's cache, so nobody may write through anything
// reachable from it (a View's Ranges included; Clone what you need to
// change). Because all fields come from one instant, cross-field facts hold
// inside a snapshot that never held across separate reads: a view that
// grants a range appears together with the migration that moved it.
//
// The zero Snapshot is the empty cluster. Build any other with NewSnapshot:
// a literal has no owner table and routes nothing. Servers is sorted by ID,
// Migrations by ID, Replicas by PrimaryID, Promoted lexically.
type Snapshot struct {
	// Revision counts the mutations applied before this snapshot.
	Revision   uint64
	Servers    []ServerEntry
	Migrations []MigrationState
	Replicas   []ReplicaState
	// Promoted lists the ids whose replica was promoted and whose deposed
	// former primary has not restarted (the balancer's re-replication input).
	Promoted []string

	// owners is every owned range tagged with its server, sorted by Start;
	// reach[i] is the largest End among owners[:i+1]. Owner binary-searches
	// Start and walks back while reach says an earlier span can still cover
	// the hash — zero steps when ownership is disjoint, and still correct
	// when RegisterServer/RestoreServer left two views overlapping.
	owners []ownerSpan
	reach  []uint64
}

type ownerSpan struct {
	HashRange
	server string
}

// NewSnapshot assembles a snapshot from lists already in the documented
// order and builds its owner table. The snapshot takes ownership of the
// slices.
func NewSnapshot(revision uint64, servers []ServerEntry, migrations []MigrationState,
	replicas []ReplicaState, promoted []string) *Snapshot {
	s := &Snapshot{Revision: revision, Servers: servers, Migrations: migrations,
		Replicas: replicas, Promoted: promoted}
	for i := range servers {
		for _, r := range servers[i].View.Ranges {
			s.owners = append(s.owners, ownerSpan{r, servers[i].ID})
		}
	}
	sort.SliceStable(s.owners, func(i, j int) bool { return s.owners[i].Start < s.owners[j].Start })
	s.reach = make([]uint64, len(s.owners))
	var max uint64
	for i, o := range s.owners {
		if o.End > max {
			max = o.End
		}
		s.reach[i] = max
	}
	return s
}

// Owner returns the server whose view covers hash h. It allocates nothing:
// clients call it once per operation.
func (s *Snapshot) Owner(h uint64) (string, bool) {
	// First span starting above h; everything before it starts at or below.
	i := sort.Search(len(s.owners), func(i int) bool { return s.owners[i].Start > h })
	for i--; i >= 0 && s.reach[i] > h; i-- {
		if s.owners[i].End > h {
			return s.owners[i].server, true
		}
	}
	return "", false
}

func (s *Snapshot) server(id string) *ServerEntry {
	for i := range s.Servers {
		if s.Servers[i].ID == id {
			return &s.Servers[i]
		}
	}
	return nil
}

// ServerAddr returns a server's transport address.
func (s *Snapshot) ServerAddr(id string) (string, error) {
	if e := s.server(id); e != nil && e.Addr != "" {
		return e.Addr, nil
	}
	return "", fmt.Errorf("%w: no address for %q", ErrUnknownServer, id)
}

// GetView returns a server's view. Its Ranges are the snapshot's own.
func (s *Snapshot) GetView(id string) (View, error) {
	if e := s.server(id); e != nil {
		return e.View, nil
	}
	return View{}, fmt.Errorf("%w: %q", ErrUnknownServer, id)
}

// ServerIDs returns the ids of all registered servers, sorted.
func (s *Snapshot) ServerIDs() []string {
	out := make([]string, len(s.Servers))
	for i := range s.Servers {
		out[i] = s.Servers[i].ID
	}
	return out
}

// Ownership returns every server's view as a fresh map of cloned views —
// the one read whose result the caller may modify.
func (s *Snapshot) Ownership() map[string]View {
	out := make(map[string]View, len(s.Servers))
	for i := range s.Servers {
		out[s.Servers[i].ID] = s.Servers[i].View.Clone()
	}
	return out
}

// Replica returns primaryID's attached backup, if any.
func (s *Snapshot) Replica(primaryID string) (ReplicaState, bool) {
	for _, r := range s.Replicas {
		if r.PrimaryID == primaryID {
			return r, true
		}
	}
	return ReplicaState{}, false
}

// GetMigration returns an uncollected migration's state.
func (s *Snapshot) GetMigration(id uint64) (MigrationState, error) {
	for _, m := range s.Migrations {
		if m.ID == id {
			return m, nil
		}
	}
	return MigrationState{}, ErrUnknownMigration
}

// PendingMigrationsFor returns the in-flight migrations server is a party
// to, by ID (used by recovery and inbound-migration discovery, §3.3.1).
func (s *Snapshot) PendingMigrationsFor(server string) []MigrationState {
	var out []MigrationState
	for _, m := range s.Migrations {
		if (m.Source == server || m.Target == server) && m.InFlight() {
			out = append(out, m)
		}
	}
	return out
}
