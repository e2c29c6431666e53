package faster

import (
	"sync"
	"sync/atomic"

	"repro/internal/hlog"
)

// Ownership fences (§3.3): when a server re-acquires a hash range it owned
// before — migration ping-pong, or residue from a cancelled inbound
// migration — its log and index still hold records for that range from the
// earlier tenancy. Those records are stale by construction: every write the
// range took while owned elsewhere lives on the other server, and the
// migration ships the authoritative versions over. But ConditionalInsert
// drops a shipped record whenever any local version of the key exists, and
// the read path serves whatever the chain walk finds — so without a fence
// the stale leftovers shadow the fresh data and acknowledged writes vanish.
//
// A Fence marks every record with hash in [Start, End) at a log address
// below Below as dead. It is laid down the moment the server becomes an
// inbound-migration target, with Below = the log's tail at that instant:
// everything already in the log predates the migration (stale), everything
// shipped or newly written lands above the fence (live). Hash chains walk
// addresses strictly downward, so a walk simply stops when it crosses the
// fence — the cut is sound without touching any record.
type Fence struct {
	Start, End uint64       // hash range [Start, End)
	Below      hlog.Address // records below this address in the range are dead
}

// fenceSet is the store's copy-on-write fence list: readers load the
// current slice atomically (the no-fence fast path is one pointer load),
// writers swap in a rebuilt slice under fenceMu.
type fenceSet struct {
	mu sync.Mutex
	p  atomic.Pointer[[]Fence]
}

// AddFence lays down an ownership fence: records with hash in [start, end)
// at addresses below below become invisible to every lookup, conditional
// insert, collection and compaction pass. Fences accumulate per inbound
// migration; a new fence supersedes earlier ones it fully covers (Below
// values are log tails, so later fences never sit lower).
func (s *Store) AddFence(start, end uint64, below hlog.Address) {
	if start >= end || below == hlog.InvalidAddress {
		return
	}
	s.fences.mu.Lock()
	defer s.fences.mu.Unlock()
	var cur []Fence
	if p := s.fences.p.Load(); p != nil {
		cur = *p
	}
	next := make([]Fence, 0, len(cur)+1)
	for _, f := range cur {
		if f.Start >= start && f.End <= end && f.Below <= below {
			continue // fully superseded by the new fence
		}
		next = append(next, f)
	}
	next = append(next, Fence{Start: start, End: end, Below: below})
	s.fences.p.Store(&next)
}

// Fences returns a snapshot of the live fence set (checkpointing: fences
// must survive recovery, or the recovered log re-exposes the stale records
// they retired).
func (s *Store) Fences() []Fence {
	p := s.fences.p.Load()
	if p == nil {
		return nil
	}
	out := make([]Fence, len(*p))
	copy(out, *p)
	return out
}

// RestoreFences reinstates a checkpointed fence set (recovery).
func (s *Store) RestoreFences(fs []Fence) {
	s.fences.mu.Lock()
	defer s.fences.mu.Unlock()
	if len(fs) == 0 {
		s.fences.p.Store(nil)
		return
	}
	next := make([]Fence, len(fs))
	copy(next, fs)
	s.fences.p.Store(&next)
}

// fenceBelow returns the address below which records for hash are dead
// (InvalidAddress when unfenced — no record sits below the null address, so
// the zero value disables the check).
func (s *Store) fenceBelow(hash uint64) hlog.Address {
	p := s.fences.p.Load()
	if p == nil {
		return hlog.InvalidAddress
	}
	below := hlog.InvalidAddress
	for _, f := range *p {
		if hash >= f.Start && hash < f.End && f.Below > below {
			below = f.Below
		}
	}
	return below
}
