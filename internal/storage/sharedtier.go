package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SharedTier is the in-memory stand-in for the shared remote storage tier
// (Azure page blobs in the paper, §3.3.2). Every server's HybridLog
// eventually flushes its stable region here under its own log ID; after a
// migration the target resolves indirection records by reading from the
// *source's* log through this tier. The one property the protocol depends on
// is kept: the tier is shared (any server can read any log).
type SharedTier struct {
	mu   sync.RWMutex
	logs map[string]*blobLog

	closed atomic.Bool

	stats deviceStats
}

// blobLog is one server's uploaded log: a sparse extent map like MemDevice.
type blobLog struct {
	extentMap
	written atomic.Uint64 // high-water mark
}

// NewSharedTier returns an empty shared tier.
func NewSharedTier(LatencyModel) *SharedTier {
	return &SharedTier{logs: make(map[string]*blobLog)}
}

func (t *SharedTier) log(id string) *blobLog {
	t.mu.RLock()
	l, ok := t.logs[id]
	t.mu.RUnlock()
	if ok {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok = t.logs[id]; ok {
		return l
	}
	l = &blobLog{}
	t.logs[id] = l
	return l
}

// Upload synchronously stores p at byte offset off in logID's blob. The
// HybridLog flusher calls this in the background after local-SSD flushes, so
// its latency is off the operation path.
func (t *SharedTier) Upload(logID string, p []byte, off uint64) error {
	if t.closed.Load() {
		return ErrClosed
	}
	n := len(p)
	l := t.log(logID)
	_ = l.writeAt(p, off) // an extent map write cannot fail
	raise(&l.written, off+uint64(n))
	t.stats.writes.Add(1)
	t.stats.writtenBytes.Add(uint64(n))
	return nil
}

// Read synchronously fills p from logID's blob at byte offset off. Callers
// run it on their own goroutines (the target's indirection fetches are
// asynchronous with respect to request processing).
func (t *SharedTier) Read(logID string, p []byte, off uint64) error {
	if t.closed.Load() {
		return ErrClosed
	}
	n := len(p)
	t.mu.RLock()
	l, ok := t.logs[logID]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: unknown log %q", ErrOutOfRange, logID)
	}
	if written := l.written.Load(); off+uint64(n) > written {
		return fmt.Errorf("%w: log %q [%d,%d) beyond %d", ErrOutOfRange,
			logID, off, off+uint64(n), written)
	}
	if err := l.readAt(p, off); err != nil {
		return fmt.Errorf("log %q: %w", logID, err)
	}
	t.stats.reads.Add(1)
	t.stats.readBytes.Add(uint64(n))
	return nil
}

// Truncate drops logID's extents wholly below off, releasing the shared
// tier's copy of a compacted-away log prefix (§3.3.3: after lazy compaction
// relocates disowned records to their current owners, nothing references the
// prefix any more). Returns the bytes freed. Unknown logs free nothing.
func (t *SharedTier) Truncate(logID string, off uint64) uint64 {
	if t.closed.Load() {
		return 0
	}
	t.mu.RLock()
	l, ok := t.logs[logID]
	t.mu.RUnlock()
	if !ok {
		return 0
	}
	freed := l.dropBelow(off)
	t.stats.trimmedBytes.Add(freed)
	return freed
}

// AllocatedBytes returns the memory currently backing logID's blob (0 if the
// log is unknown); compaction tests watch it shrink after Truncate.
func (t *SharedTier) AllocatedBytes(logID string) uint64 {
	t.mu.RLock()
	l, ok := t.logs[logID]
	t.mu.RUnlock()
	if !ok {
		return 0
	}
	return l.allocated()
}

// UploadedBytes returns logID's high-water mark (0 if the log is unknown).
func (t *SharedTier) UploadedBytes(logID string) uint64 {
	t.mu.RLock()
	l, ok := t.logs[logID]
	t.mu.RUnlock()
	if !ok {
		return 0
	}
	return l.written.Load()
}

// Stats returns cumulative tier-wide counters.
func (t *SharedTier) Stats() DeviceStats { return t.stats.snapshot() }

// Close marks the tier closed; subsequent operations fail.
func (t *SharedTier) Close() error {
	t.closed.Store(true)
	return nil
}
