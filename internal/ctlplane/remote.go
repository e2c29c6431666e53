// Package ctlplane is Shadowfax's elastic control plane: the remote
// metadata provider that lets out-of-process servers, clients and the CLI
// share one live metadata store over MsgMeta* RPCs, and the load-aware
// balancer that turns the manually-triggered migration machinery (§3.3)
// into automatic scale-out.
//
// The data plane stays untouched: the control plane only reads counters and
// drives the same Migrate() RPC an operator would.
package ctlplane

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrMetaUnavailable reports that the metadata endpoint could not be
// reached and no cached snapshot exists to answer from.
var ErrMetaUnavailable = errors.New("ctlplane: metadata endpoint unavailable")

// RemoteOptions tunes a RemoteProvider.
type RemoteOptions struct {
	// Timeout bounds one metadata RPC (default 3s).
	Timeout time.Duration
	// PollEvery is the watch loop's snapshot period (default 50ms). The
	// loop starts with the first Watch call.
	PollEvery time.Duration
	// MaxStaleness bounds how long the cached snapshot may answer erroring
	// reads (ServerAddr, GetView, OwnerOf) while the endpoint is
	// unreachable (default 30s). Past the bound those reads fail with
	// ErrMetaUnavailable instead of silently routing on arbitrarily stale
	// views. Negative disables the bound.
	MaxStaleness time.Duration
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout == 0 {
		o.Timeout = 3 * time.Second
	}
	if o.PollEvery == 0 {
		o.PollEvery = 50 * time.Millisecond
	}
	if o.MaxStaleness == 0 {
		o.MaxStaleness = 30 * time.Second
	}
	return o
}

// RemoteProvider implements metadata.Provider against a designated metadata
// endpoint (a server backed by the in-process Store, which serves MsgMeta*
// frames). Every mutation is one RPC — linearized by the backing Store —
// and every response carries a full snapshot, which the provider caches.
// Reads issue a snapshot RPC and fall back to the cache when the endpoint
// is briefly unreachable, so a dispatcher refreshing its view never wedges
// on a control-plane hiccup.
type RemoteProvider struct {
	tr   transport.Transport
	addr string
	opts RemoteOptions

	// connMu serializes RPCs on the one persistent connection.
	connMu sync.Mutex
	conn   transport.Conn

	// breaker fails metadata RPCs fast while the endpoint is persistently
	// unreachable: one probe per (backed-off) interval instead of every
	// caller paying the full RPC timeout.
	breaker backoff.Breaker
	// retryIn paces the in-call retry after a first-attempt failure.
	retryIn backoff.Policy

	// cacheMu guards the last observed snapshot and the watcher list.
	cacheMu    sync.Mutex
	haveSnap   bool
	lastSnap   time.Time
	revision   uint64
	servers    map[string]remoteServer
	migrations []metadata.MigrationState
	replicas   map[string]metadata.ReplicaState
	promoted   []string
	watchers   []chan struct{}
	// degradedSince is when the provider started serving from a cache it
	// could not refresh (zero while healthy).
	degradedSince time.Time

	pollOnce sync.Once
	quit     chan struct{}
	wg       sync.WaitGroup
	closed   bool
}

type remoteServer struct {
	addr string
	view metadata.View
}

// NewRemoteProvider builds a provider that forwards to the metadata
// endpoint at addr over tr. The endpoint does not need to be up yet;
// connections are (re)dialed lazily per RPC.
func NewRemoteProvider(tr transport.Transport, addr string, opts RemoteOptions) *RemoteProvider {
	return &RemoteProvider{
		tr: tr, addr: addr, opts: opts.withDefaults(),
		servers: make(map[string]remoteServer),
		quit:    make(chan struct{}),
	}
}

// Close stops the watch loop and closes the endpoint connection.
func (p *RemoteProvider) Close() error {
	p.cacheMu.Lock()
	if p.closed {
		p.cacheMu.Unlock()
		return nil
	}
	p.closed = true
	close(p.quit)
	p.cacheMu.Unlock()
	p.wg.Wait()
	p.connMu.Lock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	p.connMu.Unlock()
	return nil
}

// do performs one metadata RPC: send req, await the MsgMetaResp, retry once
// on a broken connection, and fold the response's snapshot into the cache.
//
// Retry discipline: dial and send failures always retry (a length-prefixed
// frame that failed to send was never decodable at the endpoint, so the op
// did not execute). A failure while AWAITING the response retries only
// idempotent ops — the endpoint may well have executed the request, and
// re-sending a StartMigration or Collect would execute it twice (the first
// remapping ownership, the "retry" then failing with ErrNotOwner while the
// caller never learns the migration is registered).
func (p *RemoteProvider) do(req *wire.MetaReq) (wire.MetaResp, error) {
	idempotent := req.Op != wire.MetaOpStartMigration && req.Op != wire.MetaOpCollect
	if !p.breaker.Allow() {
		p.markDegraded()
		return wire.MetaResp{}, fmt.Errorf("%w: circuit open", ErrMetaUnavailable)
	}
	p.connMu.Lock()
	defer p.connMu.Unlock()
	frame := wire.EncodeMetaReq(req)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			time.Sleep(p.retryIn.Delay(attempt - 1))
		}
		if p.conn == nil {
			c, err := p.tr.Dial(p.addr)
			if err != nil {
				lastErr = err
				continue
			}
			p.conn = c
		}
		if err := p.conn.Send(frame); err != nil {
			p.conn.Close()
			p.conn = nil
			lastErr = err
			continue
		}
		// The connection is private to the provider, so no other frame type
		// is expected on it.
		respFrame, err := transport.AwaitFrame(p.conn, byte(wire.MsgMetaResp),
			time.Now().Add(p.opts.Timeout), nil)
		if err != nil {
			p.conn.Close()
			p.conn = nil
			lastErr = err
			if !idempotent {
				break // the endpoint may have executed it; never re-send
			}
			continue
		}
		resp, err := wire.DecodeMetaResp(respFrame)
		if err != nil {
			lastErr = err
			if !idempotent {
				break // a response arrived, so the endpoint executed it
			}
			continue
		}
		p.breaker.Success()
		p.absorb(&resp)
		return resp, nil
	}
	p.breaker.Failure()
	p.markDegraded()
	return wire.MetaResp{}, fmt.Errorf("%w: %v", ErrMetaUnavailable, lastErr)
}

// markDegraded stamps the moment the provider started answering from a
// cache it could not refresh; absorb clears it on the next success.
func (p *RemoteProvider) markDegraded() {
	p.cacheMu.Lock()
	if p.degradedSince.IsZero() {
		p.degradedSince = time.Now()
	}
	p.cacheMu.Unlock()
}

// DegradedSince returns when the provider lost the metadata endpoint and
// began serving stale cached views; zero while healthy.
func (p *RemoteProvider) DegradedSince() time.Time {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return p.degradedSince
}

// absorb folds a response's snapshot into the cache and wakes watchers on a
// revision change.
func (p *RemoteProvider) absorb(resp *wire.MetaResp) {
	p.cacheMu.Lock()
	changed := !p.haveSnap || resp.Revision != p.revision
	p.haveSnap = true
	p.lastSnap = time.Now()
	p.degradedSince = time.Time{}
	p.revision = resp.Revision
	p.servers = make(map[string]remoteServer, len(resp.Servers))
	for i := range resp.Servers {
		s := &resp.Servers[i]
		p.servers[s.ID] = remoteServer{
			addr: s.Addr,
			view: metadata.View{Number: s.ViewNumber, Ranges: rangesFromWire(s.Ranges)},
		}
	}
	p.migrations = p.migrations[:0]
	for i := range resp.Migrations {
		p.migrations = append(p.migrations, migrationFromWire(&resp.Migrations[i]))
	}
	p.replicas = make(map[string]metadata.ReplicaState, len(resp.Replicas))
	for _, r := range resp.Replicas {
		p.replicas[r.PrimaryID] = metadata.ReplicaState{
			PrimaryID: r.PrimaryID, Addr: r.Addr, Synced: r.Synced,
		}
	}
	p.promoted = append(p.promoted[:0], resp.Promoted...)
	var wake []chan struct{}
	if changed {
		wake = append(wake, p.watchers...)
	}
	p.cacheMu.Unlock()
	for _, ch := range wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// refresh brings the cache up to date, issuing a snapshot RPC unless one
// landed within the last PollEvery (every mutation response and the watch
// loop also refresh the cache, so read bursts — a CLI stats invocation, a
// client re-resolving ownership during a migration — coalesce into one RPC
// instead of serializing on the connection). Returns false when the
// endpoint was unreachable AND no cache exists to answer from.
func (p *RemoteProvider) refresh() bool {
	p.cacheMu.Lock()
	fresh := p.haveSnap && time.Since(p.lastSnap) < p.opts.PollEvery
	p.cacheMu.Unlock()
	if fresh {
		return true
	}
	if _, err := p.do(&wire.MetaReq{Op: wire.MetaOpSnapshot}); err != nil {
		// Degraded: serve the cache, but only within the staleness bound —
		// past it, routing on the dead snapshot is worse than failing.
		p.cacheMu.Lock()
		ok := p.haveSnap &&
			(p.opts.MaxStaleness < 0 || time.Since(p.lastSnap) < p.opts.MaxStaleness)
		p.cacheMu.Unlock()
		return ok
	}
	return true
}

// metaErrs pairs every metadata sentinel with its wire error class. The
// server side walks it sentinel → class (fillMetaErr), the client side class
// → sentinel (metaError), so errors.Is works across the wire; an error
// matching no row travels as MetaErrOther with its text only.
var metaErrs = [...]struct {
	code     wire.MetaErr
	sentinel error
}{
	{wire.MetaErrUnknownServer, metadata.ErrUnknownServer},
	{wire.MetaErrNotOwner, metadata.ErrNotOwner},
	{wire.MetaErrOverlap, metadata.ErrOverlap},
	{wire.MetaErrUnknownMigration, metadata.ErrUnknownMigration},
	{wire.MetaErrMigrationDone, metadata.ErrMigrationDone},
	{wire.MetaErrMigrationOverlap, metadata.ErrMigrationOverlap},
	{wire.MetaErrDeposed, metadata.ErrDeposed},
	{wire.MetaErrReplicated, metadata.ErrReplicated},
	{wire.MetaErrNoReplica, metadata.ErrNoReplica},
	{wire.MetaErrReplicaNotSynced, metadata.ErrReplicaNotSynced},
	{wire.MetaErrServerNotEmpty, metadata.ErrServerNotEmpty},
	{wire.MetaErrPrimaryAlive, metadata.ErrPrimaryAlive},
}

// metaError rebuilds the metadata package's sentinel errors from a
// response's error class.
func metaError(resp *wire.MetaResp) error {
	if resp.OK {
		return nil
	}
	for _, e := range metaErrs {
		if e.code == resp.ErrCode {
			return fmt.Errorf("%w (remote: %s)", e.sentinel, resp.Err)
		}
	}
	return errors.New(resp.Err)
}

// --- metadata.Provider implementation -------------------------------------

// SetServerAddr records a server's transport address in the shared store.
// The Provider signature has no error return (the in-process store cannot
// fail); callers that must know the address landed verify with ServerAddr
// afterwards (shadowfax.NewServer does).
func (p *RemoteProvider) SetServerAddr(id, addr string) {
	p.do(&wire.MetaReq{Op: wire.MetaOpSetAddr, ServerID: id, Addr: addr}) //nolint:errcheck // see above
}

// ServerAddr returns a server's transport address.
func (p *RemoteProvider) ServerAddr(id string) (string, error) {
	if !p.refresh() {
		return "", ErrMetaUnavailable
	}
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	s, ok := p.servers[id]
	if !ok || s.addr == "" {
		return "", fmt.Errorf("%w: no address for %q", metadata.ErrUnknownServer, id)
	}
	return s.addr, nil
}

// RegisterServer creates (or resets) a server's view in the shared store.
func (p *RemoteProvider) RegisterServer(id string, ranges ...metadata.HashRange) metadata.View {
	resp, err := p.do(&wire.MetaReq{
		Op: wire.MetaOpRegister, ServerID: id, Ranges: rangesToWire(ranges),
	})
	if err != nil {
		return metadata.View{}
	}
	return viewOf(&resp, id)
}

// RestoreServer reinstates a recovered server's checkpointed view (refused
// with ErrDeposed when a promoted or promotable replica superseded it).
func (p *RemoteProvider) RestoreServer(id string, v metadata.View) (metadata.View, error) {
	resp, err := p.do(&wire.MetaReq{
		Op: wire.MetaOpRestore, ServerID: id,
		ViewNumber: v.Number, Ranges: rangesToWire(v.Ranges),
	})
	if err != nil {
		return metadata.View{}, err
	}
	if err := metaError(&resp); err != nil {
		return metadata.View{}, err
	}
	return viewOf(&resp, id), nil
}

// RetireServer removes an empty server from the shared store (scale-in).
func (p *RemoteProvider) RetireServer(id string) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpRetire, ServerID: id})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// SetReplica attaches addr as id's backup in the shared store.
func (p *RemoteProvider) SetReplica(id, addr string) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpSetReplica, ServerID: id, Addr: addr})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// MarkReplicaSynced records that id's backup at addr finished its base sync.
func (p *RemoteProvider) MarkReplicaSynced(id, addr string) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpReplicaSynced, ServerID: id, Addr: addr})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// ClearReplica detaches id's backup at addr.
func (p *RemoteProvider) ClearReplica(id, addr string) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpClearReplica, ServerID: id, Addr: addr})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// PromoteReplica promotes id's synced backup at addr (failover's
// linearization point) and returns the view the promoted server adopts.
func (p *RemoteProvider) PromoteReplica(id, addr string) (metadata.View, error) {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpPromote, ServerID: id, Addr: addr})
	if err != nil {
		return metadata.View{}, err
	}
	if err := metaError(&resp); err != nil {
		return metadata.View{}, err
	}
	return viewOf(&resp, id), nil
}

// Replicas returns every attached backup keyed by primary id.
func (p *RemoteProvider) Replicas() map[string]metadata.ReplicaState {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	out := make(map[string]metadata.ReplicaState, len(p.replicas))
	for id, r := range p.replicas {
		out[id] = r
	}
	return out
}

// KeepAlive renews (or, with ttl <= 0, releases) id's primary liveness
// lease at the metadata endpoint.
func (p *RemoteProvider) KeepAlive(id, addr string, ttl time.Duration) error {
	ms := ttl.Milliseconds()
	if ttl > 0 && ms == 0 {
		ms = 1 // sub-millisecond TTLs must still renew, not release
	}
	if ms < 0 {
		ms = 0
	}
	resp, err := p.do(&wire.MetaReq{
		Op: wire.MetaOpKeepAlive, ServerID: id, Addr: addr, MigrationID: uint64(ms),
	})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// PromotedServers returns the ids whose replica was promoted and whose
// deposed former primary has not restarted.
func (p *RemoteProvider) PromotedServers() []string {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return append([]string(nil), p.promoted...)
}

// GetView returns a server's current view.
func (p *RemoteProvider) GetView(id string) (metadata.View, error) {
	if !p.refresh() {
		return metadata.View{}, ErrMetaUnavailable
	}
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	s, ok := p.servers[id]
	if !ok {
		return metadata.View{}, fmt.Errorf("%w: %q", metadata.ErrUnknownServer, id)
	}
	return s.view.Clone(), nil
}

// Servers returns the ids of all registered servers, sorted.
func (p *RemoteProvider) Servers() []string {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	out := make([]string, 0, len(p.servers))
	for id := range p.servers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// OwnerOf returns the server owning hash h and its view.
func (p *RemoteProvider) OwnerOf(h uint64) (string, metadata.View, error) {
	if !p.refresh() {
		return "", metadata.View{}, ErrMetaUnavailable
	}
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	for id, s := range p.servers {
		if s.view.Owns(h) {
			return id, s.view.Clone(), nil
		}
	}
	return "", metadata.View{}, fmt.Errorf("%w: no owner for %#x", metadata.ErrUnknownServer, h)
}

// Ownership returns every server's view.
func (p *RemoteProvider) Ownership() map[string]metadata.View {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	out := make(map[string]metadata.View, len(p.servers))
	for id, s := range p.servers {
		out[id] = s.view.Clone()
	}
	return out
}

// StartMigration performs the atomic remap/bump/register transition at the
// metadata endpoint.
func (p *RemoteProvider) StartMigration(source, target string, rng metadata.HashRange) (metadata.MigrationState, metadata.View, metadata.View, error) {
	resp, err := p.do(&wire.MetaReq{
		Op: wire.MetaOpStartMigration, ServerID: source, Target: target,
		RangeStart: rng.Start, RangeEnd: rng.End,
	})
	if err != nil {
		return metadata.MigrationState{}, metadata.View{}, metadata.View{}, err
	}
	if err := metaError(&resp); err != nil {
		return metadata.MigrationState{}, metadata.View{}, metadata.View{}, err
	}
	return migrationFromWire(&resp.Migration), viewOf(&resp, source), viewOf(&resp, target), nil
}

// MarkMigrationDone sets one side's completion flag.
func (p *RemoteProvider) MarkMigrationDone(id uint64, server string) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpMarkDone, MigrationID: id, ServerID: server})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// CancelMigration cancels an in-flight migration (§3.3.1).
func (p *RemoteProvider) CancelMigration(id uint64) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpCancel, MigrationID: id})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// GetMigration returns a migration's state from the live snapshot.
func (p *RemoteProvider) GetMigration(id uint64) (metadata.MigrationState, error) {
	if !p.refresh() {
		return metadata.MigrationState{}, ErrMetaUnavailable
	}
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	for _, m := range p.migrations {
		if m.ID == id {
			return m, nil
		}
	}
	return metadata.MigrationState{}, metadata.ErrUnknownMigration
}

// PendingMigrationsFor returns migrations involving server whose dependency
// has not been collected.
func (p *RemoteProvider) PendingMigrationsFor(server string) []metadata.MigrationState {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	var out []metadata.MigrationState
	for _, m := range p.migrations {
		if (m.Source == server || m.Target == server) && !m.Complete() && !m.Cancelled {
			out = append(out, m)
		}
	}
	return out
}

// Migrations returns every uncollected migration.
func (p *RemoteProvider) Migrations() []metadata.MigrationState {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return append([]metadata.MigrationState(nil), p.migrations...)
}

// CollectMigration removes a completed (or cancelled) dependency.
func (p *RemoteProvider) CollectMigration(id uint64) error {
	resp, err := p.do(&wire.MetaReq{Op: wire.MetaOpCollect, MigrationID: id})
	if err != nil {
		return err
	}
	return metaError(&resp)
}

// Revision returns the last observed snapshot revision.
func (p *RemoteProvider) Revision() uint64 {
	p.refresh()
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return p.revision
}

// Watch returns a channel that receives a token when the endpoint's state
// is observed to have changed. Remote watches are poll-based: the first
// call starts a background loop snapshotting every PollEvery.
func (p *RemoteProvider) Watch() <-chan struct{} {
	ch := make(chan struct{}, 1)
	p.cacheMu.Lock()
	p.watchers = append(p.watchers, ch)
	closed := p.closed
	p.cacheMu.Unlock()
	if closed {
		return ch
	}
	p.pollOnce.Do(func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			t := time.NewTicker(p.opts.PollEvery)
			defer t.Stop()
			for {
				select {
				case <-p.quit:
					return
				case <-t.C:
					p.refresh()
				}
			}
		}()
	})
	return ch
}

// --- wire conversions ------------------------------------------------------

func rangesToWire(in []metadata.HashRange) []wire.Range {
	out := make([]wire.Range, len(in))
	for i, r := range in {
		out[i] = wire.Range{Start: r.Start, End: r.End}
	}
	return out
}

func rangesFromWire(in []wire.Range) []metadata.HashRange {
	out := make([]metadata.HashRange, len(in))
	for i, r := range in {
		out[i] = metadata.HashRange{Start: r.Start, End: r.End}
	}
	return out
}

func migrationFromWire(m *wire.MetaMigration) metadata.MigrationState {
	return metadata.MigrationState{
		ID: m.ID, Epoch: m.Epoch, Source: m.Source, Target: m.Target,
		Range:      metadata.HashRange{Start: m.RangeStart, End: m.RangeEnd},
		SourceDone: m.SourceDone, TargetDone: m.TargetDone, Cancelled: m.Cancelled,
	}
}

func migrationToWire(m metadata.MigrationState) wire.MetaMigration {
	return wire.MetaMigration{
		ID: m.ID, Epoch: m.Epoch, Source: m.Source, Target: m.Target,
		RangeStart: m.Range.Start, RangeEnd: m.Range.End,
		SourceDone: m.SourceDone, TargetDone: m.TargetDone, Cancelled: m.Cancelled,
	}
}

// viewOf extracts one server's view from a response snapshot.
func viewOf(resp *wire.MetaResp, id string) metadata.View {
	for i := range resp.Servers {
		if resp.Servers[i].ID == id {
			return metadata.View{
				Number: resp.Servers[i].ViewNumber,
				Ranges: rangesFromWire(resp.Servers[i].Ranges),
			}
		}
	}
	return metadata.View{}
}

var _ metadata.Provider = (*RemoteProvider)(nil)

// --- serving side ----------------------------------------------------------

// ServeMetaReq executes one metadata-service request against p and builds
// the response, snapshot included. Servers call this from their dispatch
// loop for inbound MsgMetaReq frames; any server whose provider is the
// local in-process store is thereby a metadata endpoint (a server pointed
// at a remote provider would merely proxy).
func ServeMetaReq(p metadata.Provider, req *wire.MetaReq) wire.MetaResp {
	resp := wire.MetaResp{OK: true}
	switch req.Op {
	case wire.MetaOpSnapshot:
		// Pure read; the snapshot below is the whole answer.
	case wire.MetaOpSetAddr:
		p.SetServerAddr(req.ServerID, req.Addr)
	case wire.MetaOpRegister:
		p.RegisterServer(req.ServerID, rangesFromWire(req.Ranges)...)
	case wire.MetaOpRestore:
		_, err := p.RestoreServer(req.ServerID, metadata.View{
			Number: req.ViewNumber, Ranges: rangesFromWire(req.Ranges),
		})
		fillMetaErr(&resp, err)
	case wire.MetaOpStartMigration:
		mig, _, _, err := p.StartMigration(req.ServerID, req.Target,
			metadata.HashRange{Start: req.RangeStart, End: req.RangeEnd})
		if err != nil {
			fillMetaErr(&resp, err)
		} else {
			resp.MigValid = true
			resp.Migration = migrationToWire(mig)
		}
	case wire.MetaOpMarkDone:
		fillMetaErr(&resp, p.MarkMigrationDone(req.MigrationID, req.ServerID))
	case wire.MetaOpCancel:
		fillMetaErr(&resp, p.CancelMigration(req.MigrationID))
	case wire.MetaOpCollect:
		fillMetaErr(&resp, p.CollectMigration(req.MigrationID))
	case wire.MetaOpSetReplica:
		fillMetaErr(&resp, p.SetReplica(req.ServerID, req.Addr))
	case wire.MetaOpReplicaSynced:
		fillMetaErr(&resp, p.MarkReplicaSynced(req.ServerID, req.Addr))
	case wire.MetaOpClearReplica:
		fillMetaErr(&resp, p.ClearReplica(req.ServerID, req.Addr))
	case wire.MetaOpPromote:
		_, err := p.PromoteReplica(req.ServerID, req.Addr)
		fillMetaErr(&resp, err)
	case wire.MetaOpRetire:
		fillMetaErr(&resp, p.RetireServer(req.ServerID))
	case wire.MetaOpKeepAlive:
		// MigrationID carries the TTL in milliseconds (MetaReq field union).
		fillMetaErr(&resp, p.KeepAlive(req.ServerID, req.Addr,
			time.Duration(req.MigrationID)*time.Millisecond))
	default:
		resp.OK = false
		resp.ErrCode = wire.MetaErrOther
		resp.Err = fmt.Sprintf("unknown meta op %d", req.Op)
	}

	// Revision is read before the content, and all views come from ONE
	// Ownership() call (atomic under the store lock): a snapshot must never
	// show a hash range owner-less or doubly-owned mid-StartMigration. A
	// concurrent mutation can only make the content newer than Revision,
	// which the poller resolves on its next refresh.
	resp.Revision = p.Revision()
	views := p.Ownership()
	ids := make([]string, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		v := views[id]
		addr, _ := p.ServerAddr(id) // a server may not have an address yet
		resp.Servers = append(resp.Servers, wire.MetaServer{
			ID: id, Addr: addr, ViewNumber: v.Number, Ranges: rangesToWire(v.Ranges),
		})
	}
	for _, m := range p.Migrations() {
		resp.Migrations = append(resp.Migrations, migrationToWire(m))
	}
	reps := p.Replicas()
	repIDs := make([]string, 0, len(reps))
	for id := range reps {
		repIDs = append(repIDs, id)
	}
	sort.Strings(repIDs)
	for _, id := range repIDs {
		r := reps[id]
		resp.Replicas = append(resp.Replicas, wire.MetaReplica{
			PrimaryID: r.PrimaryID, Addr: r.Addr, Synced: r.Synced,
		})
	}
	resp.Promoted = p.PromotedServers()
	return resp
}

// fillMetaErr records err (if any) in the response with its wire error
// class.
func fillMetaErr(resp *wire.MetaResp, err error) {
	if err == nil {
		return
	}
	resp.OK = false
	resp.Err = err.Error()
	resp.ErrCode = wire.MetaErrOther
	for _, e := range metaErrs {
		if errors.Is(err, e.sentinel) {
			resp.ErrCode = e.code
			return
		}
	}
}
