package metadata

import (
	"errors"
	"fmt"
	"time"
)

// Primary liveness leases: the split-brain fence for failover under
// partitions. A standby's silence detector cannot distinguish "primary
// died" from "the primary⇹standby link is cut while the primary still
// serves clients". The store arbitrates: a primary that can reach the
// metadata service renews a short lease here, and PromoteReplica refuses
// promotion while an unexpired lease is held — so a partitioned-but-alive
// primary keeps its identity, and promotion happens only once the primary
// is dead OR itself cut off from metadata long enough for the lease to
// lapse (at which point it has stopped releasing acknowledgements, see
// core's detach-confirmation protocol, so no acked write can be lost).
//
// Leases are keyed by (server id, addr): promotion repoints the id's
// address, so a deposed primary's next renewal fails with ErrDeposed and
// the old incarnation learns it must stop serving. Servers that never
// renew a lease never create one, and promotion for them behaves exactly
// as before this fence existed.

// ErrPrimaryAlive refuses a promotion while the primary's liveness lease
// is unexpired: the primary is partitioned from the standby, not dead.
var ErrPrimaryAlive = errors.New("metadata: primary lease still held")

type lease struct {
	addr   string
	expiry time.Time
}

// KeepAlive renews id's liveness lease from the holder at addr for ttl.
// A non-positive ttl releases the lease (clean shutdown: failover need not
// wait out the TTL). Renewal from an address other than id's registered
// one fails with ErrDeposed — the caller was superseded (promotion
// repointed the address) and must stop serving.
func (s *Store) KeepAlive(id, addr string, ttl time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.addrs[id]; ok && cur != addr {
		return fmt.Errorf("%w: %q is registered at %s, not %s", ErrDeposed, id, cur, addr)
	}
	if s.leases == nil {
		s.leases = make(map[string]lease)
	}
	if ttl <= 0 {
		if l, ok := s.leases[id]; ok && l.addr == addr {
			delete(s.leases, id)
		}
		return nil
	}
	s.leases[id] = lease{addr: addr, expiry: time.Now().Add(ttl)}
	return nil
}

// leaseBlocksPromotionLocked reports whether an unexpired lease held by
// someone other than the candidate at addr fences off id's promotion.
func (s *Store) leaseBlocksPromotionLocked(id, addr string) (lease, bool) {
	l, ok := s.leases[id]
	if !ok || l.addr == addr || time.Now().After(l.expiry) {
		return lease{}, false
	}
	return l, true
}
