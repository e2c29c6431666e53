package shadowfax

import (
	"context"

	"repro/internal/client"
	"repro/internal/ctlplane"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Transport moves frames between clients and servers. The concrete
// implementations are in-process channels (NewCluster's default) or real TCP
// (WithTCPNetwork); neither simulates a network.
type Transport = transport.Transport

// NetworkProfile has no fields and NetFree is its only value: a transport
// costs what the host charges for it. The frozen benchmark/ pins
// WithTCPNetwork's parameter; the next [benchmark] PR may drop it.
type NetworkProfile = transport.CostModel

// NetFree is the only NetworkProfile.
var NetFree = transport.Free

// Cluster bundles the fixtures every deployment shares: the metadata
// provider (the paper's ZooKeeper stand-in) and the transport. Servers and
// clients are created against a Cluster; multiple servers on one Cluster
// form a hash-partitioned deployment.
//
// By default the metadata provider is the in-process store — the state of
// record, served to other processes over MsgMeta* RPCs by every server
// created on this cluster. WithRemoteMetadata instead points the cluster at
// such a metadata endpoint in another process, so multi-process deployments
// share one set of live ownership views.
type Cluster struct {
	meta     metadata.Provider
	tr       Transport
	metaAddr string
	remote   *ctlplane.RemoteProvider
}

// ClusterOption configures NewCluster.
type ClusterOption func(*Cluster)

// WithTCPNetwork selects real kernel TCP with length-prefixed frames.
func WithTCPNetwork(profile NetworkProfile) ClusterOption {
	return func(c *Cluster) { c.tr = transport.NewTCP(profile) }
}

// WithTransport installs a caller-provided transport (decorators, test
// doubles).
func WithTransport(tr Transport) ClusterOption {
	return func(c *Cluster) { c.tr = tr }
}

// WithRemoteMetadata points the cluster at a metadata endpoint — a
// shadowfax server in another process, reached over this cluster's
// transport at addr — instead of an in-process store. Servers, clients and
// admins created on the cluster then observe (and mutate) the endpoint's
// live ownership views: the multi-process deployment shares one metadata
// state of record. Call Cluster.Close when done to release the provider's
// connection.
func WithRemoteMetadata(addr string) ClusterOption {
	return func(c *Cluster) { c.metaAddr = addr }
}

// NewCluster creates the shared fixtures for one deployment. The default
// transport is in-process channels (single-binary deployments and tests).
func NewCluster(opts ...ClusterOption) *Cluster {
	c := &Cluster{
		meta: metadata.NewStore(),
		tr:   transport.NewInMem(transport.Free),
	}
	for _, o := range opts {
		o(c)
	}
	if c.metaAddr != "" {
		// Built after the options ran so the provider dials over the
		// transport the options selected.
		c.remote = ctlplane.NewRemoteProvider(c.tr, c.metaAddr)
		c.meta = c.remote
	}
	return c
}

// Close releases the cluster's control-plane resources (the remote metadata
// provider's connection). Servers and clients created on the cluster are
// closed separately. Close is a no-op for fully in-process clusters.
func (c *Cluster) Close() error {
	if c.remote != nil {
		return c.remote.Close()
	}
	return nil
}

// snapshot returns the provider's current cluster state (from a remote one
// that lost its endpoint, the last it saw); the reads below copy out of it.
func (c *Cluster) snapshot() *metadata.Snapshot {
	snap, _ := c.meta.Snapshot()
	return snap
}

// Servers returns the ids of all servers registered in the metadata store,
// sorted.
func (c *Cluster) Servers() []string { return c.snapshot().ServerIDs() }

// View returns a server's current ownership view.
func (c *Cluster) View(serverID string) (View, error) {
	snap, err := c.meta.Snapshot()
	if err != nil {
		return View{}, err
	}
	v, err := snap.GetView(serverID)
	return v.Clone(), err
}

// Ownership returns every server's current ownership view — live cluster
// state when the metadata provider is remote.
func (c *Cluster) Ownership() map[string]View { return c.snapshot().Ownership() }

// PendingMigrations returns the migrations involving serverID whose
// dependency has not been collected yet (§3.3.1); an empty result means the
// server has no migration in flight.
func (c *Cluster) PendingMigrations(serverID string) []MigrationState {
	return c.snapshot().PendingMigrationsFor(serverID)
}

// Migrations returns every migration the metadata provider still tracks,
// in-flight or finished-but-uncollected, with their ranges and epochs.
// Filter with MigrationState.InFlight for the live set — the same set
// Admin.BalanceStatus reports over the wire.
func (c *Cluster) Migrations() []MigrationState {
	return append([]MigrationState(nil), c.snapshot().Migrations...)
}

// Replicas returns every attached backup keyed by primary id: who shadows
// whom, the backup's address, and whether its base sync completed. A primary
// disappears from the map when its backup detaches or promotes.
func (c *Cluster) Replicas() map[string]ReplicaState {
	out := make(map[string]ReplicaState)
	for _, r := range c.snapshot().Replicas {
		out[r.PrimaryID] = r
	}
	return out
}

// PromotedServers returns the ids whose backup won a promotion (the §3.3.1
// failover linearization point) and whose deposed former primary has not
// been restarted or re-registered. The self-healing balancer uses the same
// set to decide which primaries need a fresh standby provisioned.
func (c *Cluster) PromotedServers() []string {
	return append([]string(nil), c.snapshot().Promoted...)
}

// CancelMigration aborts an in-flight migration by id (§3.3.1): the range
// returns to the source's ownership view and both parties' views advance, so
// clients revalidate their routing. Operators use it to back out a migration
// whose target has failed or stalled; cancelling a migration that already
// completed fails.
func (c *Cluster) CancelMigration(id uint64) error { return c.meta.CancelMigration(id) }

// Discover contacts a server directly by transport address, registers its
// identity, address and ownership view in this cluster's metadata store, and
// returns its stats snapshot. It is the bootstrap handshake for talking to
// an out-of-process server (e.g. shadowfax-cli against shadowfax-server):
// after Discover, Dial and NewAdmin route to the server by its id.
func (c *Cluster) Discover(ctx context.Context, addr string) (ServerStats, error) {
	resp, err := client.NewAdmin(c.tr, c.meta).StatsAddr(ctx, addr)
	if err != nil {
		return ServerStats{}, err
	}
	if _, err := c.meta.RestoreServer(resp.ServerID, View{Number: resp.ViewNumber, Ranges: resp.Ranges}); err != nil {
		return ServerStats{}, err
	}
	if err := c.meta.SetServerAddr(resp.ServerID, addr); err != nil {
		return ServerStats{}, err
	}
	return serverStatsFromWire(resp), nil
}

// Device is an in-memory or file-backed storage device for HybridLogs and
// checkpoint images.
type Device = storage.Device

// MemDevice is an in-memory Device.
type MemDevice = storage.MemDevice

// FileDevice is a real file-backed Device.
type FileDevice = storage.FileDevice

// SharedTier is the in-memory stand-in for the shared remote storage tier
// (the paper's cloud blobs, §2.2) that decouples migration from local SSD
// I/O.
type SharedTier = storage.SharedTier

// LatencyModel has no fields: devices run at the speed of what backs them.
// The frozen benchmark/ pins the constructors' parameter; the next
// [benchmark] PR may drop it.
type LatencyModel = storage.LatencyModel

// NewMemDevice creates an in-memory device with the given I/O worker count.
func NewMemDevice(model LatencyModel, workers int) *MemDevice {
	return storage.NewMemDevice(model, workers)
}

// NewFileDevice creates (or reopens) a file-backed device.
func NewFileDevice(path string, model LatencyModel, workers int) (*FileDevice, error) {
	return storage.NewFileDevice(path, model, workers)
}

// NewSharedTier creates an empty shared remote tier.
func NewSharedTier(model LatencyModel) *SharedTier {
	return storage.NewSharedTier(model)
}
