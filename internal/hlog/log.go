package hlog

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// Config describes a HybridLog instance.
type Config struct {
	// PageBits is log2 of the page size in bytes (records never span pages).
	PageBits uint
	// MemPages is the number of in-memory page frames (power of two).
	MemPages int
	// MutablePages is the number of trailing in-memory pages whose records
	// may be updated in place; the remaining MemPages-MutablePages frames
	// form the read-only (second-chance cache) region. Must leave at least
	// one page of slack: MutablePages <= MemPages-1.
	MutablePages int
	// Device is the local SSD holding the stable region.
	Device storage.Device
	// Tier, if non-nil, receives a copy of every flushed page; this is the
	// shared remote tier that decouples migration from local SSD I/O.
	Tier *storage.SharedTier
	// LogID names this log in the shared tier.
	LogID string
	// Epoch coordinates region shifts; required.
	Epoch *epoch.Manager
}

func (c *Config) validate() error {
	if c.PageBits < 10 || c.PageBits > 30 {
		return fmt.Errorf("hlog: PageBits %d out of range [10,30]", c.PageBits)
	}
	if c.MemPages < 2 || c.MemPages&(c.MemPages-1) != 0 {
		return fmt.Errorf("hlog: MemPages %d must be a power of two >= 2", c.MemPages)
	}
	if c.MutablePages < 1 || c.MutablePages > c.MemPages-1 {
		return fmt.Errorf("hlog: MutablePages %d must be in [1, MemPages-1]", c.MutablePages)
	}
	if c.Device == nil {
		return errors.New("hlog: Device required")
	}
	if c.Epoch == nil {
		return errors.New("hlog: Epoch manager required")
	}
	return nil
}

// Log is a HybridLog allocator. All methods are safe for concurrent use by
// epoch-registered threads.
type Log struct {
	cfg        Config
	pageSize   uint64
	pageMask   uint64
	frameMask  uint64
	memCap     uint64 // MemPages << PageBits
	mutableCap uint64 // MutablePages << PageBits

	// Region markers; all are byte addresses and only grow. Cache-line
	// padding keeps the allocation-CASed tail and the flusher-advanced
	// flushedUntil off the lines holding the read-mostly markers that every
	// chain walk loads — otherwise each allocation invalidates every
	// dispatcher's cached copy of head/readOnly/begin (false sharing).
	tail         atomic.Uint64 // next allocation point (CASed per alloc: hot write)
	_            cachePad
	readOnly     atomic.Uint64 // below this: no in-place updates (intent)
	safeReadOnly atomic.Uint64 // below this: flushable (all threads observed)
	head         atomic.Uint64 // below this: may not be in memory (intent)
	evictAllowed atomic.Uint64 // head cut completed up to here
	safeHead     atomic.Uint64 // below this: frames may be reused
	begin        atomic.Uint64 // log truncation point (compaction)
	_            cachePad
	flushedUntil atomic.Uint64 // device has everything below (flusher-written)
	_            cachePad

	frames   [][]byte // frame i backs pages p where p & frameMask == i
	frameFor []atomic.Uint64

	// preparedPage is the highest page whose frame has been zeroed and
	// published; the allocation fast path may only place records in pages
	// <= preparedPage. This matters when an allocation exactly fills a page:
	// the tail then sits on the next page boundary and the fast path must
	// not silently enter an unprepared page.
	preparedPage atomic.Uint64

	rollMu sync.Mutex // serializes page transitions (cold: once per page)

	flushTarget atomic.Uint64
	flushKick   chan struct{} // capacity 1, coalescing; never closed
	flushQuit   chan struct{}
	flushDone   sync.WaitGroup
	closed      atomic.Bool

	stats LogStats
}

// cachePad separates hot atomics onto their own cache lines so updates from
// different cores do not false-share.
type cachePad [56]byte

// LogStats counts allocator events. PageRolls/RollStalls are bumped by
// allocating dispatchers, PagesFlushed/PagesEvicted by the flusher
// goroutine; the pad keeps the two writer groups off one line.
type LogStats struct {
	PageRolls    atomic.Uint64
	RollStalls   atomic.Uint64
	_            cachePad
	PagesFlushed atomic.Uint64
	PagesEvicted atomic.Uint64
}

// New creates a HybridLog.
func New(cfg Config) (*Log, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &Log{
		cfg:       cfg,
		pageSize:  1 << cfg.PageBits,
		pageMask:  (1 << cfg.PageBits) - 1,
		frameMask: uint64(cfg.MemPages - 1),
		flushKick: make(chan struct{}, 1),
		flushQuit: make(chan struct{}),
	}
	l.memCap = uint64(cfg.MemPages) << cfg.PageBits
	l.mutableCap = uint64(cfg.MutablePages) << cfg.PageBits
	l.frames = make([][]byte, cfg.MemPages)
	l.frameFor = make([]atomic.Uint64, cfg.MemPages)
	for i := range l.frames {
		// Allocate as []uint64 to guarantee 8-byte alignment for the
		// atomic word operations on record headers and values.
		words := make([]uint64, l.pageSize/8)
		l.frames[i] = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), l.pageSize)
		l.frameFor[i].Store(uint64(i)) // identity: frame i holds page i
	}
	l.tail.Store(uint64(MinAddress))
	l.flushDone.Add(1)
	go l.flusher()
	return l, nil
}

// Close stops the background flusher. It does not flush remaining memory;
// call a checkpoint first if durability is needed.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.flushQuit)
	l.flushDone.Wait()
	return nil
}

// Accessors for the region markers.

// TailAddress returns the next allocation address.
func (l *Log) TailAddress() Address { return Address(l.tail.Load()) }

// ReadOnlyAddress returns the mutable-region boundary: records at addresses
// >= this may be updated in place.
func (l *Log) ReadOnlyAddress() Address { return Address(l.readOnly.Load()) }

// HeadAddress returns the in-memory boundary: records at addresses >= this
// are guaranteed resident in a page frame.
func (l *Log) HeadAddress() Address { return Address(l.head.Load()) }

// SafeHeadAddress returns the eviction boundary: frames holding pages wholly
// below this address may be recycled.
func (l *Log) SafeHeadAddress() Address { return Address(l.safeHead.Load()) }

// FlushedUntilAddress returns the durable prefix boundary.
func (l *Log) FlushedUntilAddress() Address { return Address(l.flushedUntil.Load()) }

// BeginAddress returns the truncation point (records below it were
// compacted away locally; the shared tier may still hold them).
func (l *Log) BeginAddress() Address {
	b := l.begin.Load()
	if b < uint64(MinAddress) {
		return MinAddress
	}
	return Address(b)
}

// PageSize returns the page size in bytes.
func (l *Log) PageSize() int { return int(l.pageSize) }

// LogID returns the shared-tier identity of this log.
func (l *Log) LogID() string { return l.cfg.LogID }

// Tier returns the shared tier (nil if unconfigured).
func (l *Log) Tier() *storage.SharedTier { return l.cfg.Tier }

// Stats returns a snapshot of allocator counters.
func (l *Log) Stats() (rolls, flushed, evicted, stalls uint64) {
	return l.stats.PageRolls.Load(), l.stats.PagesFlushed.Load(),
		l.stats.PagesEvicted.Load(), l.stats.RollStalls.Load()
}

// Allocate reserves size bytes (8-byte aligned, at most one page) and
// returns the record's address and its in-frame buffer. The caller must be
// epoch-protected via g and must fully write the record before its next
// epoch refresh. Allocation never blocks on I/O except when the in-memory
// budget is exhausted, in which case it spins (refreshing g) until eviction
// frees a frame.
func (l *Log) Allocate(g *epoch.Guard, size int) (Address, []byte, error) {
	if size <= 0 || uint64(size) > l.pageSize {
		return InvalidAddress, nil, fmt.Errorf("hlog: bad allocation size %d", size)
	}
	sz := uint64(pad8(size))
	for {
		pos := l.tail.Load()
		pageEnd := (pos | l.pageMask) + 1
		if pos+sz <= pageEnd && pos>>l.cfg.PageBits <= l.preparedPage.Load() {
			if l.tail.CompareAndSwap(pos, pos+sz) {
				return Address(pos), l.bytesAt(pos, int(sz)), nil
			}
			continue
		}
		// Page roll needed (either the record does not fit in the tail
		// page, or the tail sits at the boundary of an unprepared page).
		// Serialize transitions on a cold mutex while keeping the epoch
		// fresh so cuts (and hence eviction) progress.
		if !l.rollMu.TryLock() {
			g.Refresh()
			runtime.Gosched()
			continue
		}
		l.roll(g, sz)
		l.rollMu.Unlock()
		if l.closed.Load() {
			return InvalidAddress, nil, errors.New("hlog: closed")
		}
	}
}

// roll prepares the next page and advances the tail across the boundary if
// the pending allocation does not fit in the current page. Called with
// rollMu held.
func (l *Log) roll(g *epoch.Guard, sz uint64) {
	for {
		pos := l.tail.Load()
		pageEnd := (pos | l.pageMask) + 1
		fits := pos+sz <= pageEnd
		if fits && pos>>l.cfg.PageBits <= l.preparedPage.Load() {
			return // raced with another roller; fast path will succeed
		}
		newPage := pageEnd >> l.cfg.PageBits
		if fits {
			// Tail sits exactly at the start of an unprepared page.
			newPage = pos >> l.cfg.PageBits
		}
		newPageStart := newPage << l.cfg.PageBits
		// Wait for the new page's frame to be evictable/free.
		for !l.frameFree(newPage) {
			l.requestShifts(newPageStart)
			l.stats.RollStalls.Add(1)
			g.Refresh()
			runtime.Gosched()
			if l.closed.Load() {
				return
			}
		}
		// Zero the frame before the tail enters the page so sequential
		// scans can rely on zero length words as padding, then publish.
		frame := l.frames[newPage&l.frameMask]
		for i := range frame {
			frame[i] = 0
		}
		l.frameFor[newPage&l.frameMask].Store(newPage)
		casMax(&l.preparedPage, newPage)
		l.stats.PageRolls.Add(1)
		l.requestShifts(newPageStart)
		if fits {
			return
		}
		// Move the tail past the dead padding [pos, pageEnd). Concurrent
		// fast-path allocations within the old page may still race, so CAS
		// and re-evaluate on failure.
		if l.tail.CompareAndSwap(pos, pageEnd) {
			return
		}
	}
}

// frameFree reports whether page's frame slot can be (re)used.
func (l *Log) frameFree(page uint64) bool {
	holder := l.frameFor[page&l.frameMask].Load()
	if holder == page {
		return true // already prepared (or identity init for first lap)
	}
	if holder > page {
		return false // should not happen; be safe
	}
	// The frame holds an older page; reusable once that page is wholly
	// below the safe head.
	return (holder+1)<<l.cfg.PageBits <= l.safeHead.Load()
}

// requestShifts advances the head and read-only intents given that the tail
// is entering the page that starts at pageEnd, and schedules the matching
// global cuts.
func (l *Log) requestShifts(pageEnd uint64) {
	// After the roll, in-memory pages must fit in MemPages frames with the
	// new tail page's frame free, and the mutable region must cover at most
	// MutablePages trailing pages.
	newLimit := pageEnd + l.pageSize
	if newLimit > l.memCap {
		l.shiftHead(newLimit - l.memCap)
	}
	if newLimit > l.mutableCap {
		l.shiftReadOnly(newLimit - l.mutableCap)
	}
}

// shiftReadOnly raises the read-only intent to target and, once every thread
// has observed it (so no in-place writes can touch the frozen prefix),
// raises safeReadOnly and kicks the flusher.
func (l *Log) shiftReadOnly(target uint64) {
	if !casMax(&l.readOnly, target) {
		return
	}
	l.cfg.Epoch.BumpWithAction(func() {
		casMax(&l.safeReadOnly, target)
		casMax(&l.flushTarget, target)
		select {
		case l.flushKick <- struct{}{}:
		default:
		}
	})
}

// shiftHead raises the head intent to target and, once every thread has
// observed it (so no reader dereferences the evicted prefix), allows
// eviction up to min(target, flushedUntil).
func (l *Log) shiftHead(target uint64) {
	if fu := l.flushedUntil.Load(); target > fu {
		target = fu
	}
	if !casMax(&l.head, target) {
		return
	}
	l.cfg.Epoch.BumpWithAction(func() {
		casMax(&l.evictAllowed, target)
		l.advanceSafeHead()
	})
}

// advanceSafeHead recomputes safeHead = min(evictAllowed, flushedUntil).
func (l *Log) advanceSafeHead() {
	for {
		ea := l.evictAllowed.Load()
		fu := l.flushedUntil.Load()
		limit := ea
		if fu < limit {
			limit = fu
		}
		cur := l.safeHead.Load()
		if limit <= cur {
			return
		}
		if l.safeHead.CompareAndSwap(cur, limit) {
			l.stats.PagesEvicted.Add((limit - cur) >> l.cfg.PageBits)
			return
		}
	}
}

// casMax atomically raises v to target; reports whether it raised it.
func casMax(v *atomic.Uint64, target uint64) bool {
	for {
		cur := v.Load()
		if target <= cur {
			return false
		}
		if v.CompareAndSwap(cur, target) {
			return true
		}
	}
}

// flusher writes closed pages to the device (and shared tier) in order.
func (l *Log) flusher() {
	defer l.flushDone.Done()
	scratch := alignedBuf(int(l.pageSize))
	for {
		select {
		case <-l.flushQuit:
			return
		case <-l.flushKick:
		}
		for {
			fu := l.flushedUntil.Load()
			target := l.flushTarget.Load()
			if fu >= target {
				break
			}
			page := fu >> l.cfg.PageBits
			// The frame still holds this page: eviction can't recycle it
			// until flushedUntil covers it, which happens only below. Copy
			// with atomic word loads: chain splices may still CAS meta
			// words of flushed-region records.
			atomicCopy(scratch, l.frames[page&l.frameMask])
			frame := scratch
			if err := storage.SyncWrite(l.cfg.Device, frame, page<<l.cfg.PageBits); err != nil {
				if l.closed.Load() {
					return
				}
				// Transient device failure: back off and retry.
				runtime.Gosched()
				continue
			}
			if l.cfg.Tier != nil {
				// Mirror to the shared tier so migration never needs
				// local SSD reads (§3.3.2).
				_ = l.cfg.Tier.Upload(l.cfg.LogID, frame, page<<l.cfg.PageBits)
			}
			l.stats.PagesFlushed.Add(1)
			l.flushedUntil.Store((page + 1) << l.cfg.PageBits)
			l.advanceSafeHead()
		}
	}
}

// bytesAt returns the in-frame bytes for [addr, addr+n). The caller must
// hold epoch protection and addr must be >= SafeHeadAddress.
func (l *Log) bytesAt(pos uint64, n int) []byte {
	frame := l.frames[(pos>>l.cfg.PageBits)&l.frameMask]
	off := pos & l.pageMask
	return frame[off : off+uint64(n)]
}

// RecordAt returns a Record view over the in-memory record at addr. The
// caller must have verified addr >= HeadAddress while epoch-protected.
func (l *Log) RecordAt(addr Address) Record {
	pos := uint64(addr)
	frame := l.frames[(pos>>l.cfg.PageBits)&l.frameMask]
	off := pos & l.pageMask
	return Record(frame[off:])
}

// InMemory reports whether addr is at or above the head (resident).
func (l *Log) InMemory(addr Address) bool {
	return uint64(addr) >= l.head.Load()
}

// ReadRecordFromDevice synchronously reads the record at addr from the local
// device into a fresh aligned buffer. hint sizes the first read; a second
// read completes long records. Used by the pending-I/O path.
func (l *Log) ReadRecordFromDevice(addr Address, hint int) (Record, error) {
	return readRecordFrom(func(p []byte, off uint64) error {
		return storage.SyncRead(l.cfg.Device, p, off)
	}, l.cfg.PageBits, addr, hint)
}

// ReadRecordFromTier reads the record at addr of logID from the shared tier.
func ReadRecordFromTier(tier *storage.SharedTier, logID string, pageBits uint, addr Address, hint int) (Record, error) {
	return readRecordFrom(func(p []byte, off uint64) error {
		return tier.Read(logID, p, off)
	}, pageBits, addr, hint)
}

func readRecordFrom(read func([]byte, uint64) error, pageBits uint, addr Address, hint int) (Record, error) {
	if hint < HeaderBytes+16 {
		hint = HeaderBytes + 16
	}
	pageEnd := ((uint64(addr) >> pageBits) + 1) << pageBits
	max := int(pageEnd - uint64(addr))
	if hint > max {
		hint = max
	}
	buf := alignedBuf(hint)
	if err := read(buf, uint64(addr)); err != nil {
		return nil, err
	}
	r := Record(buf)
	if r.LenWordZero() {
		return nil, fmt.Errorf("hlog: no record at %#x (padding)", addr)
	}
	need := r.Size()
	if need > max {
		return nil, fmt.Errorf("hlog: corrupt record at %#x: size %d exceeds page", addr, need)
	}
	if need <= len(buf) {
		return r[:need], nil
	}
	// Long record: the hint read holds a valid prefix — copy it and read only
	// the missing suffix instead of re-reading the whole record from scratch.
	full := alignedBuf(need)
	have := copy(full, buf)
	if err := read(full[have:], uint64(addr)+uint64(have)); err != nil {
		return nil, err
	}
	return Record(full), nil
}

// alignedBuf allocates an 8-byte-aligned byte slice of at least n bytes.
func alignedBuf(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// AlignedBuf allocates an 8-byte-aligned byte slice of n bytes. Buffers that
// receive records from the device must be word-aligned: Record's header
// accessors are atomic word loads.
func AlignedBuf(n int) []byte { return alignedBuf(n) }

// Device exposes the log's local block device to the pending-read pipeline.
func (l *Log) Device() storage.Device { return l.cfg.Device }

// PageBits exposes the log's page size exponent.
func (l *Log) PageBits() uint { return l.cfg.PageBits }

// PlanRecordRead computes the device span for one pipelined record read:
// hint bytes forward from addr, clamped to the record's page end, plus up to
// behind bytes of readahead before it, clamped to the page start and to
// floor (the log's begin address — bytes below it may be reclaimed). Chain
// predecessors live at lower addresses on earlier-or-equal pages, so
// read-behind is what lets a follow hop land inside the span. It returns the
// device offset to read from, the span length, and the record's offset
// within the span. Records never span pages, so the span never does either.
func PlanRecordRead(addr Address, hint, behind int, pageBits uint, floor Address) (off uint64, n, recOff int) {
	if hint < HeaderBytes+16 {
		hint = HeaderBytes + 16
	}
	pageStart := (uint64(addr) >> pageBits) << pageBits
	pageEnd := pageStart + (uint64(1) << pageBits)
	end := uint64(addr) + uint64(hint)
	if end > pageEnd {
		end = pageEnd
	}
	start := uint64(addr)
	if behind > 0 {
		if uint64(behind) > start-pageStart {
			start = pageStart
		} else {
			start -= uint64(behind)
		}
		if start < uint64(floor) {
			start = uint64(floor)
		}
	}
	return start, int(end - start), int(uint64(addr) - start)
}

// ParseSpanRecord parses the record at recOff inside a span buffer read from
// the device (buf[0] is device byte spanPos; the record starts at
// spanPos+recOff). When the span holds the whole record it is returned with
// need == 0. When the record is longer than the available bytes, need is its
// full size and rec is nil: the caller must issue a continuation read (the
// prefix already in buf is valid and reusable). A zero length word (padding)
// or a size crossing the page boundary is corruption and returns an error.
func ParseSpanRecord(buf []byte, recOff int, addr Address, pageBits uint) (rec Record, need int, err error) {
	r := Record(buf[recOff:])
	if r.LenWordZero() {
		return nil, 0, fmt.Errorf("hlog: no record at %#x (padding)", addr)
	}
	need = r.Size()
	pageEnd := ((uint64(addr) >> pageBits) + 1) << pageBits
	if uint64(need) > pageEnd-uint64(addr) {
		return nil, 0, fmt.Errorf("hlog: corrupt record at %#x: size %d exceeds page", addr, need)
	}
	if recOff+need <= len(buf) {
		return r[:need], 0, nil
	}
	return nil, need, nil
}

// LenWordZero reports whether the record's length word is zero (padding /
// end of page in a sequential scan).
func (r Record) LenWordZero() bool {
	return r.KeyLen() == 0 && r.ValueLen() == 0
}

// ScanMemory walks records in [from, to) that are resident in memory,
// calling fn for each. Scanning stops early at the first padding gap within
// a page (in-flight allocations) and resumes at the next page boundary. The
// caller must be epoch-protected and from must be >= SafeHeadAddress.
func (l *Log) ScanMemory(from, to Address, fn func(addr Address, r Record) bool) {
	pos := uint64(from)
	if pos < uint64(MinAddress) {
		pos = uint64(MinAddress)
	}
	end := uint64(to)
	for pos < end {
		pageEnd := (pos | l.pageMask) + 1
		limit := pageEnd
		if end < limit {
			limit = end
		}
		for pos+HeaderBytes <= limit {
			r := l.RecordAt(Address(pos))
			if r.LenWordZero() {
				break // padding: rest of page is dead
			}
			sz := r.Size()
			if pos+uint64(sz) > limit {
				break
			}
			if !fn(Address(pos), r[:sz]) {
				return
			}
			pos += uint64(sz)
		}
		pos = pageEnd
	}
}

// ReadPageFromDevice fills buf (one page, from NewPageBuffer) with page p
// from the local device. Used by the Rocksteady-style scan-the-log migration
// pass (a source without a shared tier) and by compaction.
func (l *Log) ReadPageFromDevice(p uint64, buf []byte) error {
	return storage.SyncRead(l.cfg.Device, buf, p<<l.cfg.PageBits)
}

// NewPageBuffer allocates an 8-byte-aligned page-sized buffer suitable for
// ReadPageFromDevice and ScanPageBuffer.
func (l *Log) NewPageBuffer() []byte { return alignedBuf(int(l.pageSize)) }

// ScanPageBuffer walks the records serialized in a page buffer read from
// storage. base is the address of the buffer's first byte.
func ScanPageBuffer(base Address, buf []byte, fn func(addr Address, r Record) bool) {
	pos := 0
	if uint64(base)+uint64(pos) < uint64(MinAddress) {
		pos = int(uint64(MinAddress) - uint64(base))
	}
	for pos+HeaderBytes <= len(buf) {
		r := Record(buf[pos:])
		if r.LenWordZero() {
			break
		}
		sz := r.Size()
		if pos+sz > len(buf) {
			break
		}
		if !fn(base+Address(pos), r[:sz]) {
			return
		}
		pos += sz
	}
}

// TruncateUntil raises the begin address; compaction calls this after
// copying live records forward.
func (l *Log) TruncateUntil(addr Address) { casMax(&l.begin, uint64(addr)) }

// DiskResidentBytes returns the log's disk footprint span ([BeginAddress,
// FlushedUntil)) — a telemetry gauge. Note the compaction service's
// watermark deliberately triggers on the narrower scannable span
// [BeginAddress, SafeHead) instead (FlushedUntil can run ahead of SafeHead
// when checkpoints flush without evicting, and a pass can only scan below
// the safe head).
func (l *Log) DiskResidentBytes() uint64 {
	fu := l.flushedUntil.Load()
	b := uint64(l.BeginAddress())
	if fu <= b {
		return 0
	}
	return fu - b
}

// ReclaimUntil releases device and shared-tier storage below
// min(limit, BeginAddress): TruncateUntil only retires the address range;
// this is what actually gives disk back. The limit lets the caller hold
// space that recovery still needs (never below the latest committed
// checkpoint image's begin address). Returns the bytes freed from the local
// device and from the shared tier.
func (l *Log) ReclaimUntil(limit Address) (deviceFreed, tierFreed uint64, err error) {
	target := uint64(l.BeginAddress())
	if uint64(limit) < target {
		target = uint64(limit)
	}
	if target <= uint64(MinAddress) {
		return 0, 0, nil // nothing below the start-of-log pad to free
	}
	deviceFreed, err = storage.TruncateBefore(l.cfg.Device, target)
	if l.cfg.Tier != nil {
		tierFreed = l.cfg.Tier.Truncate(l.cfg.LogID, target)
	}
	return deviceFreed, tierFreed, err
}

// FlushUntil forces the read-only boundary up to at least addr's page start
// and waits until the device holds everything below it. Used by checkpoints.
// The caller must NOT hold epoch protection (the cut must complete).
func (l *Log) FlushUntil(addr Address) {
	target := uint64(addr) & ^l.pageMask
	tail := l.tail.Load()
	maxRO := tail & ^l.pageMask // can't freeze the open page
	if target > maxRO {
		target = maxRO
	}
	if target == 0 {
		return
	}
	l.shiftReadOnly(target)
	l.cfg.Epoch.DrainPending()
	for l.flushedUntil.Load() < target {
		if l.closed.Load() {
			return // shutdown race: a late checkpoint loses, harmlessly
		}
		l.cfg.Epoch.DrainPending()
		select {
		case l.flushKick <- struct{}{}:
		default:
		}
		runtime.Gosched()
	}
}

// FrameSnapshot copies the resident bytes of page p into dst (page-sized,
// 8-byte aligned, e.g. from NewPageBuffer). Returns false if the page is not
// resident. The caller holds epoch protection and has seen the page at or
// above the head (InMemory), so the frame cannot be recycled under the copy.
// The copy uses 8-byte atomic loads because the open page may be
// receiving in-place updates concurrently (checkpoints are fuzzy at the
// tail by design); torn words would corrupt record headers.
func (l *Log) FrameSnapshot(p uint64, dst []byte) bool {
	if l.frameFor[p&l.frameMask].Load() != p {
		return false
	}
	atomicCopy(dst, l.frames[p&l.frameMask])
	return l.frameFor[p&l.frameMask].Load() == p
}

// atomicCopy copies src into dst with 8-byte atomic loads. Page frames are
// mutated with word-level atomics (in-place updates, chain splices), so any
// concurrent whole-page copy (flush, snapshot) must read words atomically.
func atomicCopy(dst, src []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i+8 <= n; i += 8 {
		w := atomic.LoadUint64((*uint64)(unsafe.Pointer(&src[i])))
		dst[i] = byte(w)
		dst[i+1] = byte(w >> 8)
		dst[i+2] = byte(w >> 16)
		dst[i+3] = byte(w >> 24)
		dst[i+4] = byte(w >> 32)
		dst[i+5] = byte(w >> 40)
		dst[i+6] = byte(w >> 48)
		dst[i+7] = byte(w >> 56)
	}
}

// RestoreFrame loads a page image into its frame during recovery. Only safe
// before concurrent operation begins.
func (l *Log) RestoreFrame(p uint64, src []byte) {
	copy(l.frames[p&l.frameMask], src)
	l.frameFor[p&l.frameMask].Store(p)
}

// RestoreMarkers resets the region markers during recovery. Only safe before
// concurrent operation begins.
func (l *Log) RestoreMarkers(tail, readOnly, head, flushed Address) {
	l.tail.Store(uint64(tail))
	l.readOnly.Store(uint64(readOnly))
	l.safeReadOnly.Store(uint64(readOnly))
	l.head.Store(uint64(head))
	l.evictAllowed.Store(uint64(head))
	l.safeHead.Store(uint64(head))
	l.flushedUntil.Store(uint64(flushed))
	l.flushTarget.Store(uint64(flushed))
	// The page containing tail-1 is the last one whose frame content is
	// meaningful (restored); allocation must roll (and zero) anything past
	// it but must NOT re-zero a restored open page.
	t := uint64(tail)
	if t > 0 {
		t--
	}
	l.preparedPage.Store(t >> l.cfg.PageBits)
}
