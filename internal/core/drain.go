package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Scale-in: drain this server's ranges into the surviving servers via
// ordinary migrations (§3.3 — no new transfer mechanism), then retire it
// from the metadata store. The inverse of the balancer's split-driven
// scale-out.

// DrainReport summarizes a drain.
type DrainReport struct {
	// Moved is how many owned ranges were migrated away.
	Moved int
	// Retired is true once the server was removed from the metadata store.
	Retired bool
}

// drainPollEvery is how often Drain polls an in-flight migration, and
// drainMigrationTimeout how long it waits for one before giving up.
const (
	drainPollEvery          = 5 * time.Millisecond
	drainMigrationTimeout   = 60 * time.Second
	drainStartRetries       = 40
	drainStartRetryInterval = 25 * time.Millisecond
)

// Drain migrates every range this server owns to the other registered
// servers (round-robin) and retires it from the metadata store. Refused on a
// standby, on a replicated primary (detach the backup first: a drained
// primary has nothing left to replicate), and when no other server exists to
// take the ranges — a drain must never leave a range unowned.
//
// Drain is idempotent: retrying after a partial failure re-plans from the
// current view, and retiring an already-retired server is a no-op.
func (s *Server) Drain() (DrainReport, error) {
	var rep DrainReport
	if s.standby.Load() {
		return rep, errStandby
	}
	if rs := s.repl.Load(); rs != nil && !rs.detached.Load() {
		return rep, fmt.Errorf("core: %s: %w", s.cfg.ID, metadata.ErrReplicated)
	}

	view := s.view.Load().Clone()
	if len(view.Ranges) > 0 {
		targets := s.drainTargets()
		if len(targets) == 0 {
			return rep, fmt.Errorf("core: drain of %s would leave %d range(s) unowned: no other server registered",
				s.cfg.ID, len(view.Ranges))
		}
		for i, rng := range view.Ranges {
			target := targets[i%len(targets)]
			if err := s.drainRange(target, rng); err != nil {
				return rep, err
			}
			rep.Moved++
		}
	}

	if err := s.meta.RetireServer(s.cfg.ID); err != nil {
		return rep, err
	}
	rep.Retired = true
	return rep, nil
}

// drainTargets lists every other registered, non-retired server.
func (s *Server) drainTargets() []string {
	var targets []string
	snap, _ := s.meta.Snapshot() // a stale list is refused by StartMigration, not here
	for _, e := range snap.Servers {
		if e.ID != s.cfg.ID {
			targets = append(targets, e.ID)
		}
	}
	return targets
}

// drainRange migrates one owned range to target and waits for the migration
// to complete (or be collected). StartMigration is retried briefly: a
// concurrent compaction pass or a just-finished previous drain migration can
// make it refuse transiently.
func (s *Server) drainRange(target string, rng metadata.HashRange) error {
	var (
		id  uint64
		err error
	)
	for attempt := 0; attempt < drainStartRetries; attempt++ {
		id, err = s.StartMigration(target, rng)
		if err == nil {
			break
		}
		if s.stopping.Load() {
			return err
		}
		time.Sleep(drainStartRetryInterval)
	}
	if err != nil {
		return fmt.Errorf("core: drain %s [%#x,%#x): %w", s.cfg.ID, rng.Start, rng.End, err)
	}
	deadline := time.Now().Add(drainMigrationTimeout)
	for {
		snap, gerr := s.meta.Snapshot()
		var m metadata.MigrationState
		if gerr == nil {
			m, gerr = snap.GetMigration(id)
		}
		if errors.Is(gerr, metadata.ErrUnknownMigration) {
			return nil // completed and collected
		}
		if gerr == nil && m.Complete() {
			return nil
		}
		if gerr == nil && m.Cancelled {
			return fmt.Errorf("core: drain %s: migration %d cancelled", s.cfg.ID, id)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: drain %s: migration %d did not complete in %s",
				s.cfg.ID, id, drainMigrationTimeout)
		}
		time.Sleep(drainPollEvery)
	}
}

// handleDrainReq serves the MsgDrain admin message; the drain (minutes of
// migrations, potentially) runs on its own goroutine like admin checkpoints.
func (s *Server) handleDrainReq(c transport.Conn) {
	go func() {
		rep, err := s.Drain()
		resp := wire.DrainResp{OK: err == nil, Retired: rep.Retired, Moved: uint32(rep.Moved)}
		if err != nil {
			resp.Err = err.Error()
		}
		c.Send(wire.EncodeDrainResp(resp)) //nolint:errcheck // conn errors surface on the next poll
	}()
}
