// Package faster is a from-scratch Go implementation of the FASTER
// key-value store (§2 of the Shadowfax paper): a lock-free hash index over a
// HybridLog record heap that spans memory, local SSD and (in Shadowfax) a
// shared cloud tier. It supports reads, blind upserts, read-modify-writes
// and deletes; in-place updates in the mutable region; read-copy-update in
// the read-only region; asynchronous pending I/O for records on storage; and
// CPR-style checkpoints over asynchronous global cuts.
//
// One Store is shared by all server threads (Shadowfax's partitioned-
// dispatch/shared-data design); each thread owns one Session.
package faster

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hashidx"
	"repro/internal/hlog"
	"repro/internal/storage"
)

// Status is the result of a store operation.
type Status uint8

// Operation statuses.
const (
	// StatusOK: the operation completed.
	StatusOK Status = iota
	// StatusNotFound: the key does not exist (or is deleted).
	StatusNotFound
	// StatusPending: the operation needs storage I/O; its callback will run
	// during a later CompletePending on the same session.
	StatusPending
	// StatusIndirection: the lookup reached an indirection record covering
	// the key's hash; the caller (Shadowfax's server layer) must fetch the
	// remainder of the chain from the shared tier.
	StatusIndirection
	// StatusError: the operation failed.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NotFound"
	case StatusPending:
		return "Pending"
	case StatusIndirection:
		return "Indirection"
	default:
		return "Error"
	}
}

// RMWOps defines a read-modify-write for a Store. YCSB-F's counter update is
// the canonical instance (CounterRMW).
type RMWOps interface {
	// Initial returns the value for a key that does not exist yet.
	Initial(input []byte) []byte
	// TryInPlace attempts to apply input to value in place atomically (the
	// record is in the mutable region); it reports success. value aliases
	// the log frame: implementations use the Record's atomic accessors via
	// the provided record view.
	TryInPlace(r hlog.Record, input []byte) bool
	// Apply returns the new value derived from old (nil if absent) and
	// input, for the read-copy-update path.
	Apply(old, input []byte) []byte
}

// Config describes a Store.
type Config struct {
	// IndexBuckets is the number of main hash buckets (power of two).
	IndexBuckets int
	// Log configures the HybridLog (Device, Epoch etc. filled by caller;
	// Epoch may be nil to let the store create its own manager).
	Log hlog.Config
	// RMW implements read-modify-write semantics; defaults to CounterRMW.
	RMW RMWOps
	// ReadHintBytes sizes the first storage read of a pending operation;
	// records at most this large need a single I/O. Defaults to 256.
	ReadHintBytes int
	// ReadCache enables the second-chance read cache: disk-resident read
	// hits are (probabilistically) copied back into the mutable log region
	// so subsequent reads hit memory. See readcache.go.
	ReadCache bool
}

// Store is a FASTER instance.
type Store struct {
	cfg    Config
	epoch  *epoch.Manager
	index  *hashidx.Index
	log    *hlog.Log
	rmw    RMWOps
	device storage.Device

	// version is the CPR checkpoint version; records are stamped with it.
	version atomic.Uint32

	// cutsPending counts version cuts (SealVersion/CheckpointCut) whose
	// epoch bump has not drained yet: the version was advanced but some
	// session may still execute under the sealed version. Sessions that have
	// already adopted the new version consult CutPending and stall their
	// write intake until the cut drains — post-cut writes racing pre-cut
	// writers poison the cut (see CutPending).
	cutsPending atomic.Int32

	// sampleFilter, when set, forces accessed records below the captured
	// tail to be copied to the tail (Shadowfax's Sampling phase, §3.3).
	sampleFilter atomic.Value // func(hash uint64, addr hlog.Address) bool

	// fences retire stale records from earlier tenancies of re-acquired
	// hash ranges (see fence.go).
	fences fenceSet

	// Second-chance read cache filter tables (nil when disabled): cacheSeen
	// holds the second-chance bits, cachePromoted the tags of keys whose
	// records were copied to the tail (see readcache.go).
	cacheSeen     []atomic.Uint32
	cachePromoted []atomic.Uint32
	cacheMask     uint64

	stats StoreStats
}

// cachePad separates hot atomic counters onto their own cache lines so
// per-op updates from different session threads do not false-share.
type cachePad [56]byte

// StoreStats aggregates operation counters across sessions. Each per-op
// counter group sits on its own cache line: under a mixed workload
// different dispatcher cores bump different counters, and without padding
// every bump would invalidate the others' lines.
type StoreStats struct {
	Reads          atomic.Uint64
	_              cachePad
	Upserts        atomic.Uint64
	_              cachePad
	RMWs           atomic.Uint64
	_              cachePad
	Deletes        atomic.Uint64
	_              cachePad
	InPlaceUpdates atomic.Uint64
	RCUUpdates     atomic.Uint64
	_              cachePad
	PendingIssued  atomic.Uint64
	SampledCopies  atomic.Uint64
	_              cachePad
	// Cold-read pipeline counters (flushReads, on session goroutines):
	// PendingCoalesced counts ops that shared another op's in-flight device
	// read; DeviceBatchReads counts batch submissions; ReadaheadHits counts
	// chain hops served from a span already read.
	PendingCoalesced atomic.Uint64
	DeviceBatchReads atomic.Uint64
	ReadaheadHits    atomic.Uint64
	_                cachePad
	// Second-chance read cache counters: copies to the tail and (tag-based,
	// approximate) in-memory hits on promoted keys.
	ReadCacheCopies atomic.Uint64
	ReadCacheHits   atomic.Uint64
}

// NewStore creates a Store. The log device must be set in cfg.Log.Device.
func NewStore(cfg Config) (*Store, error) {
	if cfg.IndexBuckets == 0 {
		cfg.IndexBuckets = 1 << 16
	}
	if cfg.RMW == nil {
		cfg.RMW = CounterRMW{}
	}
	if cfg.ReadHintBytes == 0 {
		cfg.ReadHintBytes = 256
	}
	em := cfg.Log.Epoch
	if em == nil {
		em = epoch.NewManager()
		cfg.Log.Epoch = em
	}
	ix, err := hashidx.New(cfg.IndexBuckets)
	if err != nil {
		return nil, err
	}
	lg, err := hlog.New(cfg.Log)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:    cfg,
		epoch:  em,
		index:  ix,
		log:    lg,
		rmw:    cfg.RMW,
		device: cfg.Log.Device,
	}
	s.version.Store(1)
	if cfg.ReadCache {
		s.cacheSeen = make([]atomic.Uint32, readCacheSlots)
		s.cachePromoted = make([]atomic.Uint32, readCacheSlots)
		s.cacheMask = readCacheSlots - 1
	}
	return s, nil
}

// Close shuts down the store's log. Sessions must be closed first.
func (s *Store) Close() error { return s.log.Close() }

// Epoch returns the store's epoch manager (shared with the server layer for
// view changes and migration phase cuts).
func (s *Store) Epoch() *epoch.Manager { return s.epoch }

// Index exposes the hash index to the migration machinery.
func (s *Store) Index() *hashidx.Index { return s.index }

// Log exposes the HybridLog to the migration machinery.
func (s *Store) Log() *hlog.Log { return s.log }

// CurrentVersion returns the CPR version new records are stamped with.
func (s *Store) CurrentVersion() uint32 { return s.version.Load() }

// CutPending reports whether a version cut has been sealed but not yet
// crossed by every session. While it holds, sessions already at the new
// version must not execute writes: a new-version record appended while an
// old-version session still runs can be picked up by that session's
// copy-on-write, folding post-cut effects into a record stamped below the
// cut — the sealed prefix (checkpoint image or replication base scan) then
// contains operations that recovery or the live replication stream applies
// a second time. Callers stall write intake until this returns false,
// refreshing their session each spin so the cut can drain.
func (s *Store) CutPending() bool { return s.cutsPending.Load() != 0 }

// Stats returns the store's counters.
func (s *Store) Stats() *StoreStats { return &s.stats }

// tooBig reports whether a record for key and value could never be
// appended: a record does not span log pages. The write entry points refuse
// such a record with StatusError before their append loops, which take a
// failed append to mean "re-walk and retry" and would spin on it forever.
func (s *Store) tooBig(key, value []byte) bool {
	return hlog.RecordSize(len(key), len(value)) > s.log.PageSize()
}

// HashOf returns the key hash used for indexing and hash-range partitioning.
func HashOf(key []byte) uint64 { return hashfn.Hash(key) }

// IndexSlot aliases the hash-index slot type so the server layer can walk
// index regions without importing the index package directly.
type IndexSlot = hashidx.Slot

// SetSampleFilter installs (or clears, with nil) the Sampling-phase hook:
// accessed records for which fn returns true are copied to the log tail.
func (s *Store) SetSampleFilter(fn func(hash uint64, addr hlog.Address) bool) {
	s.sampleFilter.Store(fn)
}

func (s *Store) sampler() func(uint64, hlog.Address) bool {
	fn, _ := s.sampleFilter.Load().(func(uint64, hlog.Address) bool)
	return fn
}

// CounterRMW implements RMWOps for 8-byte little-endian counters: input is
// an 8-byte delta (missing/short inputs count as 1). This is YCSB workload
// F's increment.
type CounterRMW struct{}

// Initial returns input as the starting counter value.
func (CounterRMW) Initial(input []byte) []byte {
	out := make([]byte, 8)
	copy(out, input)
	return out
}

// TryInPlace atomically adds the delta when the value is exactly 8 bytes.
func (CounterRMW) TryInPlace(r hlog.Record, input []byte) bool {
	if r.ValueLen() != 8 {
		return false
	}
	r.AddValueWord(leU64(input))
	return true
}

// Apply returns old+delta.
func (CounterRMW) Apply(old, input []byte) []byte {
	out := make([]byte, 8)
	var cur uint64
	if len(old) >= 8 {
		cur = leU64(old)
	}
	putLeU64(out, cur+leU64(input))
	return out
}

func leU64(b []byte) uint64 {
	if len(b) < 8 {
		if len(b) == 0 {
			return 1
		}
		var tmp [8]byte
		copy(tmp[:], b)
		b = tmp[:]
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLeU64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("faster: session closed")

func errStatus(format string, args ...any) error {
	return fmt.Errorf("faster: "+format, args...)
}
