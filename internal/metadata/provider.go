package metadata

import "time"

// Provider is the metadata-access surface servers, clients and the CLI
// program against: the mutations, each one linearizable step, and one read —
// Snapshot. The in-process *Store is the canonical implementation (and the
// state of record: exactly one Store backs a deployment); the remote
// provider in internal/ctlplane implements the same interface over MsgMeta*
// RPCs against a designated metadata endpoint, forwarding every mutation to
// the single backing Store, which is where linearization happens.
//
// Readers take one Snapshot per decision and answer every question of that
// decision from it, so the answers describe one instant. The value is shared
// and immutable (see Snapshot): read it, never write through it.
type Provider interface {
	// Addressing and ownership views.
	SetServerAddr(id, addr string) error
	RegisterServer(id string, ranges ...HashRange) (View, error)
	RestoreServer(id string, v View) (View, error)
	RetireServer(id string) error

	// Primary→backup replication (replica.go) and the primary liveness
	// lease fence (lease.go).
	SetReplica(primaryID, addr string) error
	MarkReplicaSynced(primaryID, addr string) error
	ClearReplica(primaryID, addr string) error
	PromoteReplica(primaryID, addr string) (View, error)
	KeepAlive(id, addr string, ttl time.Duration) error

	// Migration dependencies (§3.3.1).
	StartMigration(source, target string, rng HashRange) (MigrationState, View, View, error)
	MarkMigrationDone(id uint64, server string) error
	CancelMigration(id uint64) error
	CollectMigration(id uint64) error

	// Snapshot returns the current cluster state; it is never nil. A
	// provider that cannot reach the state of record returns the last
	// snapshot it saw (empty if none) together with the error, so a reader
	// that prefers stale routing to none can ignore the error.
	Snapshot() (*Snapshot, error)
}

var _ Provider = (*Store)(nil)
