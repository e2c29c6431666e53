package core

import (
	"context"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Control-plane serving: every server answers MsgMetaReq against its own
// metadata provider — a server backed by the in-process store is thereby a
// designated metadata endpoint that out-of-process servers, clients and the
// CLI share live ownership views through — and balancer-enabled servers
// answer the MsgRebalance / MsgBalanceStatus admin RPCs.

// handleMetaReq serves one metadata-service request inline on the
// dispatcher (local store calls; microseconds).
func (s *Server) handleMetaReq(c transport.Conn, frame []byte) {
	req, err := wire.DecodeMetaReq(frame)
	if err != nil {
		s.stats.DecodeErrors.Add(1)
		return
	}
	resp := ctlplane.ServeMetaReq(s.meta, &req)
	c.Send(wire.EncodeMetaResp(&resp)) //nolint:errcheck // conn errors surface on the next poll
}

// handleRebalanceReq runs one balancer planning pass on its own goroutine
// (the pass issues Stats RPCs — to this server among others — so it must
// not block the dispatcher that would answer them).
func (s *Server) handleRebalanceReq(c transport.Conn) {
	b := s.balancer.Load()
	if b == nil {
		c.Send(wire.EncodeRebalanceResp(wire.RebalanceResp{ //nolint:errcheck // conn errors surface on the next poll
			Err: "balancer not enabled on this server (see AutoScale)",
		}))
		return
	}
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		d := b.RunOnce(ctx)
		c.Send(wire.EncodeRebalanceResp(wire.RebalanceResp{ //nolint:errcheck // conn errors surface on the next poll
			OK: true, Acted: d.Acted, Source: d.Source, Target: d.Target,
			RangeStart: d.Range.Start, RangeEnd: d.Range.End, Reason: d.Reason,
		}))
	}()
}

// handleBalanceStatusReq serves the balancer-status snapshot inline.
func (s *Server) handleBalanceStatusReq(c transport.Conn) {
	resp := wire.BalanceStatusResp{}
	if b := s.balancer.Load(); b != nil {
		st := b.Status()
		resp.Enabled = true
		resp.Passes = st.Passes
		resp.Triggered = st.Triggered
		resp.CooldownMs = uint64(st.CooldownRemaining.Milliseconds())
		resp.Last = wire.RebalanceResp{
			OK: true, Acted: st.Last.Acted, Source: st.Last.Source,
			Target: st.Last.Target, RangeStart: st.Last.Range.Start,
			RangeEnd: st.Last.Range.End, Reason: st.Last.Reason,
		}
		for id, rate := range st.Rates {
			resp.Rates = append(resp.Rates, wire.ServerRate{
				ID: id, MilliOps: uint64(rate * 1000),
			})
		}
	}
	// A remote metadata provider that lost its endpoint serves stale cached
	// views; surface how long it has been degraded so operators see the
	// partition from balance-status (zero for the in-process store).
	if dp, ok := s.meta.(interface{ DegradedSince() time.Time }); ok {
		if since := dp.DegradedSince(); !since.IsZero() {
			resp.DegradedMs = uint64(time.Since(since).Milliseconds())
		}
	}
	// The in-flight migration set is cluster state, not balancer state:
	// every server reports it (with per-migration epochs), balancer or not.
	snap, _ := s.meta.Snapshot() // degraded: the stale set, flagged by DegradedMs
	for _, m := range snap.Migrations {
		if m.InFlight() {
			resp.InFlight = append(resp.InFlight, m)
		}
	}
	c.Send(wire.EncodeBalanceStatusResp(&resp)) //nolint:errcheck // conn errors surface on the next poll
}

// loadRingSlots is each dispatcher's sampled-hash ring capacity. With
// 1-in-8 sampling a ring covers the last ~1k operations the thread served;
// hot keys recur proportionally to their load, so the ring approximates the
// thread's load distribution over the hash space — the balancer's input for
// both the imbalance split and the split-point choice.
const loadRingSlots = 128

// recordLoad samples every 8th operation's key hash into the dispatcher's
// ring. Slots are atomics only because the balancer (another goroutine)
// reads them; the dispatcher is the sole writer.
func (d *dispatcher) recordLoad(h uint64) {
	d.loadN++
	if d.loadN&7 != 0 {
		return
	}
	d.loadRing[(d.loadN>>3)%loadRingSlots].Store(h)
}

// sampleLoad gathers the dispatchers' rings into one snapshot, capped at
// max entries (zero slots — not yet written — are skipped).
func (s *Server) sampleLoad(max int) []uint64 {
	var out []uint64
	for _, d := range s.threads {
		for i := range d.loadRing {
			if h := d.loadRing[i].Load(); h != 0 {
				out = append(out, h)
				if len(out) >= max {
					return out
				}
			}
		}
	}
	return out
}
