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
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrMetaUnavailable reports that the metadata endpoint could not be
// reached; a Snapshot returned with it is the last one seen, older than
// maxStaleness (or empty).
var ErrMetaUnavailable = errors.New("ctlplane: metadata endpoint unavailable")

const (
	// rpcTimeout bounds one metadata RPC.
	rpcTimeout = 3 * time.Second
	// snapshotFreshFor is how long a snapshot answers reads without a new
	// RPC. Every mutation response refreshes the cache too, so read bursts —
	// a CLI stats invocation, a client re-resolving ownership during a
	// migration — coalesce into one RPC instead of serializing on the
	// connection.
	snapshotFreshFor = 50 * time.Millisecond
	// maxStaleness bounds how long the cached snapshot may stand in for an
	// unreachable endpoint. Past it Snapshot adds ErrMetaUnavailable:
	// routing on an arbitrarily dead snapshot is worse than failing.
	maxStaleness = 30 * time.Second
)

// RemoteProvider implements metadata.Provider against a designated metadata
// endpoint (a server backed by the in-process Store, which serves MsgMeta*
// frames). Every mutation is one RPC — linearized by the backing Store —
// and every response carries the endpoint's snapshot, which the provider
// keeps as its one cached value. Snapshot issues an RPC when that value is
// older than snapshotFreshFor and falls back to it when the endpoint is
// briefly unreachable, so a dispatcher refreshing its view never wedges on
// a control-plane hiccup.
type RemoteProvider struct {
	tr   transport.Transport
	addr string

	// connMu serializes RPCs on the one persistent connection.
	connMu sync.Mutex
	conn   transport.Conn

	// breaker fails metadata RPCs fast while the endpoint is persistently
	// unreachable: one probe per (backed-off) interval instead of every
	// caller paying the full RPC timeout.
	breaker backoff.Breaker
	// retryIn paces the in-call retry after a first-attempt failure.
	retryIn backoff.Policy

	// cacheMu guards the last observed snapshot: snap is never nil, lastSnap
	// is when it arrived (zero until the first response), and degradedSince
	// is when the provider started serving a snapshot it could not refresh
	// (zero while healthy).
	cacheMu       sync.Mutex
	snap          *metadata.Snapshot
	lastSnap      time.Time
	degradedSince time.Time
}

// NewRemoteProvider builds a provider that forwards to the metadata
// endpoint at addr over tr. The endpoint does not need to be up yet;
// connections are (re)dialed lazily per RPC.
func NewRemoteProvider(tr transport.Transport, addr string) *RemoteProvider {
	return &RemoteProvider{tr: tr, addr: addr, snap: &metadata.Snapshot{}}
}

// Close closes the endpoint connection.
func (p *RemoteProvider) Close() error {
	p.connMu.Lock()
	defer p.connMu.Unlock()
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
	return nil
}

// do performs one metadata RPC: send req, await the MsgMetaResp, retry once
// on a broken connection, and keep the response's snapshot as the cache.
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
			time.Now().Add(rpcTimeout), nil)
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
		p.cacheMu.Lock()
		p.snap, p.lastSnap, p.degradedSince = &resp.Snapshot, time.Now(), time.Time{}
		p.cacheMu.Unlock()
		return resp, nil
	}
	p.breaker.Failure()
	p.markDegraded()
	return wire.MetaResp{}, fmt.Errorf("%w: %v", ErrMetaUnavailable, lastErr)
}

// call is do for a mutation: the endpoint's refusal, rebuilt into the
// metadata package's sentinel, is the error.
func (p *RemoteProvider) call(req *wire.MetaReq) (wire.MetaResp, error) {
	resp, err := p.do(req)
	if err == nil {
		err = metaError(&resp)
	}
	return resp, err
}

// markDegraded stamps the moment the provider started answering from a
// snapshot it could not refresh; the next response clears it.
func (p *RemoteProvider) markDegraded() {
	p.cacheMu.Lock()
	if p.degradedSince.IsZero() {
		p.degradedSince = time.Now()
	}
	p.cacheMu.Unlock()
}

// DegradedSince returns when the provider lost the metadata endpoint and
// began serving its stale snapshot; zero while healthy.
func (p *RemoteProvider) DegradedSince() time.Time {
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	return p.degradedSince
}

// Snapshot returns the endpoint's state: the cached value while it is
// fresh, otherwise the answer to one snapshot RPC. When the endpoint is
// unreachable the cached value keeps answering, with a nil error inside
// maxStaleness and with ErrMetaUnavailable beyond it (or when there never
// was a response) — the one place the staleness rule lives.
func (p *RemoteProvider) Snapshot() (*metadata.Snapshot, error) {
	p.cacheMu.Lock()
	snap, age := p.snap, time.Since(p.lastSnap)
	p.cacheMu.Unlock()
	if age < snapshotFreshFor {
		return snap, nil
	}
	_, err := p.do(&wire.MetaReq{Op: wire.MetaOpSnapshot})
	p.cacheMu.Lock()
	defer p.cacheMu.Unlock()
	if err != nil && !p.lastSnap.IsZero() && time.Since(p.lastSnap) < maxStaleness {
		err = nil // degraded: the stale snapshot still routes
	}
	return p.snap, err
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

// --- metadata.Provider mutations -------------------------------------------

// SetServerAddr records a server's transport address in the shared store.
func (p *RemoteProvider) SetServerAddr(id, addr string) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpSetAddr, ServerID: id, Addr: addr})
	return err
}

// viewCall is call for the mutations that answer with id's resulting view.
func (p *RemoteProvider) viewCall(req *wire.MetaReq, id string) (metadata.View, error) {
	resp, err := p.call(req)
	if err != nil {
		return metadata.View{}, err
	}
	return resp.Snapshot.GetView(id)
}

// RegisterServer creates (or resets) a server's view in the shared store.
func (p *RemoteProvider) RegisterServer(id string, ranges ...metadata.HashRange) (metadata.View, error) {
	return p.viewCall(&wire.MetaReq{Op: wire.MetaOpRegister, ServerID: id, Ranges: ranges}, id)
}

// RestoreServer reinstates a recovered server's checkpointed view (refused
// with ErrDeposed when a promoted or promotable replica superseded it).
func (p *RemoteProvider) RestoreServer(id string, v metadata.View) (metadata.View, error) {
	return p.viewCall(&wire.MetaReq{
		Op: wire.MetaOpRestore, ServerID: id, ViewNumber: v.Number, Ranges: v.Ranges,
	}, id)
}

// RetireServer removes an empty server from the shared store (scale-in).
func (p *RemoteProvider) RetireServer(id string) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpRetire, ServerID: id})
	return err
}

// SetReplica attaches addr as id's backup in the shared store.
func (p *RemoteProvider) SetReplica(id, addr string) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpSetReplica, ServerID: id, Addr: addr})
	return err
}

// MarkReplicaSynced records that id's backup at addr finished its base sync.
func (p *RemoteProvider) MarkReplicaSynced(id, addr string) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpReplicaSynced, ServerID: id, Addr: addr})
	return err
}

// ClearReplica detaches id's backup at addr.
func (p *RemoteProvider) ClearReplica(id, addr string) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpClearReplica, ServerID: id, Addr: addr})
	return err
}

// PromoteReplica promotes id's synced backup at addr (failover's
// linearization point) and returns the view the promoted server adopts.
func (p *RemoteProvider) PromoteReplica(id, addr string) (metadata.View, error) {
	return p.viewCall(&wire.MetaReq{Op: wire.MetaOpPromote, ServerID: id, Addr: addr}, id)
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
	_, err := p.call(&wire.MetaReq{
		Op: wire.MetaOpKeepAlive, ServerID: id, Addr: addr, MigrationID: uint64(ms),
	})
	return err
}

// StartMigration performs the atomic remap/bump/register transition at the
// metadata endpoint.
func (p *RemoteProvider) StartMigration(source, target string, rng metadata.HashRange) (metadata.MigrationState, metadata.View, metadata.View, error) {
	resp, err := p.call(&wire.MetaReq{
		Op: wire.MetaOpStartMigration, ServerID: source, Target: target,
		RangeStart: rng.Start, RangeEnd: rng.End,
	})
	if err != nil {
		return metadata.MigrationState{}, metadata.View{}, metadata.View{}, err
	}
	sv, _ := resp.Snapshot.GetView(source)
	tv, _ := resp.Snapshot.GetView(target)
	return resp.Migration, sv, tv, nil
}

// MarkMigrationDone sets one side's completion flag.
func (p *RemoteProvider) MarkMigrationDone(id uint64, server string) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpMarkDone, MigrationID: id, ServerID: server})
	return err
}

// CancelMigration cancels an in-flight migration (§3.3.1).
func (p *RemoteProvider) CancelMigration(id uint64) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpCancel, MigrationID: id})
	return err
}

// CollectMigration removes a completed (or cancelled) dependency.
func (p *RemoteProvider) CollectMigration(id uint64) error {
	_, err := p.call(&wire.MetaReq{Op: wire.MetaOpCollect, MigrationID: id})
	return err
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
		fillMetaErr(&resp, p.SetServerAddr(req.ServerID, req.Addr))
	case wire.MetaOpRegister:
		_, err := p.RegisterServer(req.ServerID, req.Ranges...)
		fillMetaErr(&resp, err)
	case wire.MetaOpRestore:
		_, err := p.RestoreServer(req.ServerID, metadata.View{Number: req.ViewNumber, Ranges: req.Ranges})
		fillMetaErr(&resp, err)
	case wire.MetaOpStartMigration:
		mig, _, _, err := p.StartMigration(req.ServerID, req.Target,
			metadata.HashRange{Start: req.RangeStart, End: req.RangeEnd})
		fillMetaErr(&resp, err)
		resp.MigValid, resp.Migration = err == nil, mig
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
	// Taken after the mutation, so the response shows its effect. A proxying
	// server that lost its own endpoint relays the snapshot it still has.
	snap, _ := p.Snapshot()
	resp.Snapshot = *snap
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
