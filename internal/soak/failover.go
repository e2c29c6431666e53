package soak

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metadata"
	"repro/shadowfax"
)

// The failover soak drives a replicated primary under the same per-key
// linearizability ledger as the cluster soak, then injects one of three
// replication faults mid-load — without pausing or draining the workers, so
// the kill genuinely lands under in-flight operations:
//
//   - KillPrimary: the primary dies abruptly; the standby must detect the
//     silence, win the metadata promotion, and serve every acked write. The
//     final sweep (acked ≤ value ≤ issued per key) is the zero-acked-write-
//     loss check: a write whose response was released before the backup
//     held it would read back low.
//   - KillBackup: the standby dies; the primary must detach it and keep
//     serving (responses stop gating on a dead backup's acks).
//   - KillMidPromotion: the primary dies and its checkpoint-backed restart
//     races the standby's promotion. The metadata store must pick exactly
//     one winner: with a synced replica attached, the restart is refused
//     with ErrDeposed whether or not the promotion has landed yet.
type FailoverFault int

const (
	// KillPrimary kills the primary abruptly mid-load.
	KillPrimary FailoverFault = iota
	// KillBackup kills the standby abruptly mid-load.
	KillBackup
	// KillMidPromotion kills the primary and races its restart against the
	// standby's promotion.
	KillMidPromotion
)

func (f FailoverFault) String() string {
	switch f {
	case KillPrimary:
		return "kill-primary"
	case KillBackup:
		return "kill-backup"
	case KillMidPromotion:
		return "kill-mid-promotion"
	}
	return fmt.Sprintf("FailoverFault(%d)", int(f))
}

// FailoverConfig sizes one failover soak. Zero fields take the documented
// defaults (Load: 3 clients, 512 keys, 64 ops per batch).
type FailoverConfig struct {
	Load
	// Duration bounds the loaded phase (default 3s); the fault lands near
	// its midpoint, jittered by the seed.
	Duration time.Duration
	// Fault selects the schedule (default KillPrimary).
	Fault FailoverFault
}

// FailoverResult is one failover soak's outcome.
type FailoverResult struct {
	Outcome
	Fault FailoverFault

	// PromotedIn is the delay from the primary's death to the standby
	// serving as primary (kill-primary schedules; 0 for kill-backup).
	PromotedIn time.Duration
}

// The replicated pair both replication soaks boot. The timing is tight
// enough that a fault resolves in hundreds of milliseconds, loose enough to
// be robust under -race on slow CI machines.
const (
	primaryID = "p0"
	standbyID = "p0-standby"

	replHeartbeat = 10 * time.Millisecond
	replFailover  = 120 * time.Millisecond
)

// replicaOf is the standby-side replication option for primaryID's backup.
func replicaOf(ackTimeout time.Duration) shadowfax.ServerOption {
	return shadowfax.WithReplication(shadowfax.ReplicationConfig{
		ReplicaOf:      primaryID,
		HeartbeatEvery: replHeartbeat,
		FailoverAfter:  replFailover,
		AckTimeout:     ackTimeout,
	})
}

// waitSynced waits for the state-of-record store behind c to show the
// primary's replica attached and base-synced.
func waitSynced(c *shadowfax.Cluster, timeout time.Duration) bool {
	return poll(timeout, 2*time.Millisecond, func() bool {
		r, ok := c.Replicas()[primaryID]
		return ok && r.Synced
	})
}

// awaitPromotion waits for the standby to promote itself after its primary
// died at killed; it returns the failover latency, or false (violation
// recorded) if the standby never took over.
func (h *harness) awaitPromotion(standby *node, killed time.Time) (time.Duration, bool) {
	if !poll(30*time.Second, time.Millisecond, func() bool { return !standby.server().IsStandby() }) {
		h.violate("standby never promoted itself after the primary died")
		return 0, false
	}
	promotedIn := time.Since(killed)
	h.cfg.Logf("soak: standby promoted %v after the kill", promotedIn.Round(time.Millisecond))
	return promotedIn, true
}

type failoverSoak struct {
	*harness
	cfg              FailoverConfig
	cluster          *shadowfax.Cluster
	primary, standby *node
}

// RunFailover executes one failover soak: boot the replicated pair, preload,
// load, inject the fault without pausing the load, keep loading, drain,
// final sweep. Harness failures (a cluster that cannot boot) come back as
// the error; correctness breaches land in Result.Violations.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	cfg.Load.withDefaults(3, 512, 64)
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	s := &failoverSoak{harness: newHarness(cfg.Load, 5*time.Second), cfg: cfg}
	defer s.close()

	if err := s.boot(); err != nil {
		return FailoverResult{}, err
	}
	if err := s.preload(s.clients[0]); err != nil {
		return FailoverResult{}, err
	}
	// A kill-mid-promotion restart attempt needs an image to recover from.
	if _, err := s.primary.server().Checkpoint(); err != nil {
		return FailoverResult{}, fmt.Errorf("soak: preload checkpoint: %w", err)
	}

	res := FailoverResult{Fault: cfg.Fault}
	s.drive(func() {
		// The fault lands near the midpoint, jittered by the seed so
		// different seeds catch the kill at different batch phases.
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0xfa11))
		killAt := cfg.Duration/2 + time.Duration(rng.Int63n(int64(cfg.Duration/8+1)))
		time.Sleep(time.Until(s.start.Add(killAt)))
		if cfg.Fault == KillBackup {
			s.killBackup()
		} else {
			res.PromotedIn = s.killPrimary(cfg.Fault == KillMidPromotion)
		}
		time.Sleep(time.Until(s.start.Add(cfg.Duration)))
	})
	res.Outcome = s.finish(fmt.Sprintf("fault=%s promoted_in=%v", res.Fault, res.PromotedIn))
	return res, nil
}

func (s *failoverSoak) boot() error {
	s.cluster = s.addCluster()
	s.primary = s.addNode(s.cluster, primaryID, true)
	if err := s.primary.start(); err != nil {
		return err
	}
	s.standby = s.addNode(s.cluster, standbyID, false, replicaOf(500*time.Millisecond))
	if err := s.standby.start(); err != nil {
		return err
	}
	if !waitSynced(s.cluster, time.Minute) {
		return errors.New("soak: standby never finished its base sync")
	}
	return s.dial(s.cluster)
}

// killPrimary kills the primary abruptly under live load and waits for the
// standby's self-promotion. With raceRestart set it also restarts the dead
// primary from its checkpoint concurrently with the promotion — the
// metadata store must refuse the restart (ErrDeposed): its synced standby
// is the designated successor whether or not the promotion landed yet.
func (s *failoverSoak) killPrimary(raceRestart bool) time.Duration {
	s.cfg.Logf("soak: killing primary (%s)", s.cfg.Fault)
	killed := time.Now()
	s.primary.kill()

	restartDone := make(chan error, 1)
	if raceRestart {
		go func() {
			err := s.primary.start(shadowfax.WithRecovery())
			switch {
			case err == nil:
				s.primary.kill()
				err = errors.New("deposed primary restart was accepted")
			case errors.Is(err, metadata.ErrDeposed):
				err = nil
			default:
				err = fmt.Errorf("deposed primary restart failed with %v, want ErrDeposed", err)
			}
			restartDone <- err
		}()
	}
	promotedIn, ok := s.awaitPromotion(s.standby, killed)
	if !ok {
		return 0
	}
	if raceRestart {
		if err := <-restartDone; err != nil {
			s.violate("%v", err)
		}
	}
	if _, ok := s.cluster.Replicas()[primaryID]; ok {
		s.violate("replica registration survived the promotion")
	}
	return promotedIn
}

// killBackup kills the standby abruptly under live load; the primary must
// detach it (stop gating responses on its acks) and keep serving.
func (s *failoverSoak) killBackup() {
	s.cfg.Logf("soak: killing backup")
	s.standby.kill()
	if !poll(30*time.Second, time.Millisecond, func() bool { return !s.primary.server().Replicating() }) {
		s.violate("primary never detached its dead backup")
		return
	}
	s.cfg.Logf("soak: primary detached the dead backup")
}
