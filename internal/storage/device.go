// Package storage provides the block devices under the HybridLog and the
// shared remote tier Shadowfax extends it with (§2.2, §3.3.2).
//
// The paper's testbed used local NVMe SSDs and Azure premium page blobs. The
// HybridLog and the migration protocol only require an asynchronous block
// device and a shared remote object store: FileDevice is a real file;
// MemDevice and SharedTier are in-memory stand-ins for the SSD and the blob
// store. None of them models timing — an I/O takes what the host takes.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned for operations on a closed device.
var ErrClosed = errors.New("storage: device closed")

// ErrOutOfRange is returned when a read addresses bytes never written or
// since released through TruncateBefore.
var ErrOutOfRange = errors.New("storage: read out of written range")

// Device is an asynchronous block device. The HybridLog issues page-sized
// writes at monotonically increasing offsets and record-sized reads at
// arbitrary offsets. Completion callbacks run on the device's worker
// goroutines; callers must not block in them.
type Device interface {
	// WriteAt asynchronously writes p at byte offset off. p must not be
	// modified until done runs.
	WriteAt(p []byte, off uint64, done func(error))
	// ReadAt asynchronously fills p from byte offset off; a range that is
	// not wholly readable fails with ErrOutOfRange, never with partial data.
	ReadAt(p []byte, off uint64, done func(error))
	// Stats returns cumulative I/O counters.
	Stats() DeviceStats
	// Close releases the device. In-flight operations complete first.
	Close() error
}

// DeviceStats counts completed operations.
type DeviceStats struct {
	Reads, Writes           uint64
	ReadBytes, WrittenBytes uint64
	// TrimmedBytes counts storage released through TruncateBefore.
	TrimmedBytes uint64
	// BatchReads counts ReadBatch submissions accepted natively (devices
	// without the BatchReader hook report 0; the portable fallback is
	// indistinguishable from individual ReadAt calls).
	BatchReads uint64
}

// ReadReq is one read in a ReadBatch submission: fill P from byte offset Off.
type ReadReq struct {
	P   []byte
	Off uint64
}

// BatchReader is the optional vectored-read hook on a Device. The pending-read
// pipeline submits one batch per dispatch cycle; a native implementation can
// enqueue the whole batch in one pass instead of paying per-read submission
// overhead. done(i, err) is invoked exactly once per request, from the
// device's worker goroutines, in any order; callers must not block in it.
type BatchReader interface {
	ReadBatch(reqs []ReadReq, done func(i int, err error))
}

// ReadBatch submits reqs to d, using its BatchReader hook when present and a
// portable ReadAt loop otherwise. Completion semantics match BatchReader.
func ReadBatch(d Device, reqs []ReadReq, done func(i int, err error)) {
	if br, ok := d.(BatchReader); ok {
		br.ReadBatch(reqs, done)
		return
	}
	for i := range reqs {
		i := i
		d.ReadAt(reqs[i].P, reqs[i].Off, func(err error) { done(i, err) })
	}
}

// Truncator is the optional space-reclaim hook on a Device. Log compaction
// calls it after advancing the HybridLog's begin address: bytes below off are
// dead (every live record was copied forward), so the device may release the
// backing storage. Implementations must keep bytes at or above off readable
// and must tolerate repeated calls with non-decreasing offsets.
type Truncator interface {
	// TruncateBefore releases storage backing all bytes below off and
	// returns how many bytes were actually freed (0 when the platform or
	// granularity allows none — e.g. a partial extent, or a filesystem
	// without hole punching).
	TruncateBefore(off uint64) (uint64, error)
}

// TruncateBefore invokes d's Truncator hook if it has one; devices without
// the hook reclaim nothing, harmlessly.
func TruncateBefore(d Device, off uint64) (uint64, error) {
	if tr, ok := d.(Truncator); ok {
		return tr.TruncateBefore(off)
	}
	return 0, nil
}

// LatencyModel has no fields: devices run at the speed of what backs them.
// The frozen benchmark/ pins it as the constructors' parameter; the next
// [benchmark] PR may drop it.
type LatencyModel struct{}

// ioJob is one queued operation on a device. Batch reads carry the
// request's index and the shared batch callback instead of a per-read done
// closure, so submitting a batch allocates nothing per request.
type ioJob struct {
	write bool
	buf   []byte
	off   uint64
	done  func(error)
	idx   int
	bdone func(int, error)
}

// finish invokes whichever completion style the job carries.
func (j ioJob) finish(err error) {
	if j.bdone != nil {
		j.bdone(j.idx, err)
		return
	}
	j.done(err)
}

// backing is what differs between the devices: where the bytes live. The
// engine has range-checked a read before it calls readAt.
type backing interface {
	writeAt(p []byte, off uint64) error
	readAt(p []byte, off uint64) error
}

// ioEngine is everything MemDevice and FileDevice share: the job queue and
// its workers (the queue depth), the counters, and the one range check every
// read passes. The public types embed it, so its exported methods are theirs.
type ioEngine struct {
	back backing

	written atomic.Uint64 // high-water mark of written bytes
	trimmed atomic.Uint64 // bytes below this were released via TruncateBefore

	jobs chan ioJob
	wg   sync.WaitGroup
	// closeMu makes submit's closed-check-and-send atomic with respect to
	// shutdown closing jobs: submitters share it, shutdown excludes them.
	closeMu sync.RWMutex
	closed  atomic.Bool

	stats deviceStats
}

type deviceStats struct {
	reads, writes           atomic.Uint64
	readBytes, writtenBytes atomic.Uint64
	trimmedBytes            atomic.Uint64
	batchReads              atomic.Uint64
}

func (s *deviceStats) snapshot() DeviceStats {
	return DeviceStats{
		Reads:        s.reads.Load(),
		Writes:       s.writes.Load(),
		ReadBytes:    s.readBytes.Load(),
		WrittenBytes: s.writtenBytes.Load(),
		TrimmedBytes: s.trimmedBytes.Load(),
		BatchReads:   s.batchReads.Load(),
	}
}

// start wires the engine to its backing and launches the workers. workers
// controls completion concurrency; values < 1 default to 4. written is the
// size of what the backing already holds.
func (e *ioEngine) start(back backing, workers int, written uint64) {
	if workers < 1 {
		workers = 4
	}
	e.back = back
	e.written.Store(written)
	e.jobs = make(chan ioJob, 1024)
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
}

func (e *ioEngine) worker() {
	defer e.wg.Done()
	for job := range e.jobs {
		n := uint64(len(job.buf))
		var err error
		if job.write {
			if err = e.back.writeAt(job.buf, job.off); err == nil {
				raise(&e.written, job.off+n)
			}
			e.stats.writes.Add(1)
			e.stats.writtenBytes.Add(n)
		} else {
			if err = e.checkRead(job.off, n); err == nil {
				err = e.back.readAt(job.buf, job.off)
			}
			e.stats.reads.Add(1)
			e.stats.readBytes.Add(n)
		}
		job.finish(err)
	}
}

// checkRead is the one definition of a readable range, whatever holds the
// bytes: it ends at or below the written mark and does not start in storage
// TruncateBefore released. Without it a file answers the first with a bare
// io.EOF and the second with zeros and a nil error, which a log scan parses
// as an empty page.
func (e *ioEngine) checkRead(off, n uint64) error {
	if w := e.written.Load(); off+n > w {
		return fmt.Errorf("%w: [%d,%d) beyond %d", ErrOutOfRange, off, off+n, w)
	}
	if t := e.trimmed.Load(); off < t {
		return fmt.Errorf("%w: %d below trim point %d", ErrOutOfRange, off, t)
	}
	return nil
}

// raise lifts v to at least target (workers complete writes out of order).
func raise(v *atomic.Uint64, target uint64) {
	for {
		cur := v.Load()
		if target <= cur || v.CompareAndSwap(cur, target) {
			return
		}
	}
}

// submit queues job for the workers, or fails it at once on a closed device.
func (e *ioEngine) submit(job ioJob) {
	e.closeMu.RLock()
	if e.closed.Load() {
		e.closeMu.RUnlock()
		job.finish(ErrClosed)
		return
	}
	// A full queue blocks here holding closeMu shared. That cannot deadlock:
	// the workers drain until the channel closes, and shutdown closes it only
	// once this send has returned.
	e.jobs <- job
	e.closeMu.RUnlock()
}

// WriteAt implements Device.
func (e *ioEngine) WriteAt(p []byte, off uint64, done func(error)) {
	e.submit(ioJob{write: true, buf: p, off: off, done: done})
}

// ReadAt implements Device.
func (e *ioEngine) ReadAt(p []byte, off uint64, done func(error)) {
	e.submit(ioJob{buf: p, off: off, done: done})
}

// ReadBatch implements BatchReader: the whole batch is enqueued in one pass,
// each job carrying its index and the shared callback (no closure per read).
func (e *ioEngine) ReadBatch(reqs []ReadReq, done func(int, error)) {
	if !e.closed.Load() {
		e.stats.batchReads.Add(1)
	}
	for i := range reqs {
		e.submit(ioJob{buf: reqs[i].P, off: reqs[i].Off, idx: i, bdone: done})
	}
}

// Stats implements Device.
func (e *ioEngine) Stats() DeviceStats { return e.stats.snapshot() }

// WrittenBytes returns the device's high-water mark.
func (e *ioEngine) WrittenBytes() uint64 { return e.written.Load() }

// shutdown stops the workers once in-flight operations have completed and
// reports whether this call was the one that closed the device.
func (e *ioEngine) shutdown() bool {
	e.closeMu.Lock()
	if e.closed.Swap(true) {
		e.closeMu.Unlock()
		return false
	}
	close(e.jobs)
	e.closeMu.Unlock()
	e.wg.Wait()
	return true
}

// MemDevice is an in-memory Device standing in for the local SSD. Data is
// held in fixed-size extents so the device can grow sparsely to any offset.
type MemDevice struct {
	ioEngine
	ext extentMap
}

// NewMemDevice returns an in-memory device. workers controls completion
// concurrency (the queue depth); values < 1 default to 4.
func NewMemDevice(_ LatencyModel, workers int) *MemDevice {
	d := &MemDevice{}
	d.start(&d.ext, workers, 0)
	return d
}

// WriteSync writes synchronously; a convenience for checkpoints and tests.
func (d *MemDevice) WriteSync(p []byte, off uint64) error { return SyncWrite(d, p, off) }

// ReadSync reads synchronously; a convenience for recovery and tests.
func (d *MemDevice) ReadSync(p []byte, off uint64) error { return SyncRead(d, p, off) }

// AllocatedBytes returns the memory currently backing the device; compaction
// tests watch it shrink after TruncateBefore.
func (d *MemDevice) AllocatedBytes() uint64 { return d.ext.allocated() }

// TruncateBefore implements Truncator: extents wholly below off are dropped
// and their memory released (extentMap.dropBelow).
func (d *MemDevice) TruncateBefore(off uint64) (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	freed := d.ext.dropBelow(off)
	d.stats.trimmedBytes.Add(freed)
	return freed, nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.shutdown()
	return nil
}

// waitIO runs an async I/O function and blocks for its completion.
func waitIO(op func(done func(error))) error {
	ch := make(chan error, 1)
	op(func(err error) { ch <- err })
	return <-ch
}

// SyncRead is a package-level helper for synchronous reads on any Device.
func SyncRead(d Device, p []byte, off uint64) error {
	return waitIO(func(done func(error)) { d.ReadAt(p, off, done) })
}

// SyncWrite is a package-level helper for synchronous writes on any Device.
func SyncWrite(d Device, p []byte, off uint64) error {
	return waitIO(func(done func(error)) { d.WriteAt(p, off, done) })
}
