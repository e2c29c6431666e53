package client

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Admin issues Shadowfax's control-plane RPCs — checkpoint, compaction,
// migration and stats — each on its own short-lived connection, exactly the
// paper's Migrate() RPC model (§3.3). The control plane is deliberately
// separate from the data-plane Thread: an Admin holds no session state, so
// unlike a Thread it is stateless and safe for concurrent use, and closing a
// Thread never strands an admin operation.
//
// Every method observes its context each poll iteration; deadline expiry and
// cancellation surface as the context's error.
type Admin struct {
	tr   transport.Transport
	meta metadata.Provider
}

// NewAdmin builds an admin handle over the cluster's transport and metadata
// provider.
func NewAdmin(tr transport.Transport, meta metadata.Provider) *Admin {
	return &Admin{tr: tr, meta: meta}
}

// roundTrip is one control-plane RPC: dial addr, send req, wait for the
// frame of type want, hang up.
func (a *Admin) roundTrip(ctx context.Context, addr string, req []byte, want wire.MsgType) ([]byte, error) {
	conn, err := a.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(req); err != nil {
		return nil, err
	}
	return transport.AwaitFrame(conn, byte(want), time.Time{}, ctx.Err)
}

// rpc is roundTrip against a registered server ID.
func (a *Admin) rpc(ctx context.Context, serverID string, req []byte, want wire.MsgType) ([]byte, error) {
	addr, err := serverAddr(a.meta, serverID)
	if err != nil {
		return nil, err
	}
	return a.roundTrip(ctx, addr, req, want)
}

// Checkpoint asks serverID to take a durable checkpoint now and waits for
// the server's acknowledgment.
func (a *Admin) Checkpoint(ctx context.Context, serverID string) (wire.CheckpointResp, error) {
	frame, err := a.rpc(ctx, serverID, wire.EncodeCheckpointReq(), wire.MsgCheckpointResp)
	if err != nil {
		return wire.CheckpointResp{}, err
	}
	resp, err := wire.DecodeCheckpointResp(frame)
	if err != nil {
		return wire.CheckpointResp{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("client: checkpoint on %s failed: %s", serverID, resp.Err)
	}
	return resp, nil
}

// Compact asks serverID to run one log-compaction pass now (§3.3.3) and
// waits for the pass's statistics.
func (a *Admin) Compact(ctx context.Context, serverID string) (wire.CompactResp, error) {
	frame, err := a.rpc(ctx, serverID, wire.EncodeCompactReq(), wire.MsgCompactResp)
	if err != nil {
		return wire.CompactResp{}, err
	}
	resp, err := wire.DecodeCompactResp(frame)
	if err != nil {
		return wire.CompactResp{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("client: compaction on %s failed: %s", serverID, resp.Err)
	}
	return resp, nil
}

// Migrate sends the Migrate() RPC (§3.3) to source, asking it to move
// [rng.Start, rng.End) to target. It returns once the source acknowledges
// that the migration has begun.
func (a *Admin) Migrate(ctx context.Context, source, target string, rng metadata.HashRange) error {
	_, err := a.rpc(ctx, source, wire.EncodeMigrate(wire.MigrateCmd{
		Target: target, RangeStart: rng.Start, RangeEnd: rng.End}), wire.MsgAck)
	return err
}

// Drain asks serverID to migrate every range it owns to the surviving
// servers and retire itself from the metadata store (scale-in). The server
// refuses when the drain would leave a range unowned or while a replica is
// attached; a drain interrupted by a failure may be retried (it re-plans
// from the current view and retiring twice is a no-op).
func (a *Admin) Drain(ctx context.Context, serverID string) (wire.DrainResp, error) {
	frame, err := a.rpc(ctx, serverID, wire.EncodeDrainReq(), wire.MsgDrainResp)
	if err != nil {
		return wire.DrainResp{}, err
	}
	resp, err := wire.DecodeDrainResp(frame)
	if err != nil {
		return wire.DrainResp{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("client: drain of %s failed: %s", serverID, resp.Err)
	}
	return resp, nil
}

// Rebalance asks serverID's hosted balancer to run one planning pass now
// and returns its decision. A server without a balancer refuses.
func (a *Admin) Rebalance(ctx context.Context, serverID string) (wire.RebalanceResp, error) {
	frame, err := a.rpc(ctx, serverID, wire.EncodeRebalanceReq(), wire.MsgRebalanceResp)
	if err != nil {
		return wire.RebalanceResp{}, err
	}
	resp, err := wire.DecodeRebalanceResp(frame)
	if err != nil {
		return wire.RebalanceResp{}, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("client: rebalance on %s failed: %s", serverID, resp.Err)
	}
	return resp, nil
}

// BalanceStatus fetches serverID's balancer status (counters, cooldown,
// last decision, observed per-server load rates).
func (a *Admin) BalanceStatus(ctx context.Context, serverID string) (wire.BalanceStatusResp, error) {
	frame, err := a.rpc(ctx, serverID, wire.EncodeBalanceStatusReq(), wire.MsgBalanceStatusResp)
	if err != nil {
		return wire.BalanceStatusResp{}, err
	}
	return wire.DecodeBalanceStatusResp(frame)
}

// Stats fetches a snapshot of serverID's identity, ownership view and
// counters.
func (a *Admin) Stats(ctx context.Context, serverID string) (wire.StatsResp, error) {
	frame, err := a.rpc(ctx, serverID, wire.EncodeStatsReq(), wire.MsgStatsResp)
	if err != nil {
		return wire.StatsResp{}, err
	}
	return wire.DecodeStatsResp(frame)
}

// StatsAddr is Stats against a transport address rather than a registered
// server ID. It is the bootstrap path for out-of-process servers: the
// response carries the server's ID and ownership view, which is everything
// needed to register it in a fresh metadata store.
func (a *Admin) StatsAddr(ctx context.Context, addr string) (wire.StatsResp, error) {
	frame, err := a.roundTrip(ctx, addr, wire.EncodeStatsReq(), wire.MsgStatsResp)
	if err != nil {
		return wire.StatsResp{}, err
	}
	return wire.DecodeStatsResp(frame)
}
