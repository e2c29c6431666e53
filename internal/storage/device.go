// Package storage provides the block devices under the HybridLog and the
// shared remote tier Shadowfax extends it with (§2.2, §3.3.2).
//
// The paper's testbed used local NVMe SSDs (96k IOPS) and Azure premium page
// blobs (7,500 IOPS, 250 MB/s). Neither is available here, so this package
// substitutes simulated devices with configurable latency and IOPS throttles.
// The HybridLog and the migration protocol only require an asynchronous block
// device and a slow-but-shared remote object store; the simulation preserves
// exactly those properties (see "Hardware substitutions" in EXPERIMENTS.md).
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned for operations on a closed device.
var ErrClosed = errors.New("storage: device closed")

// ErrOutOfRange is returned when a read addresses bytes never written.
var ErrOutOfRange = errors.New("storage: read out of written range")

// Device is an asynchronous block device. The HybridLog issues page-sized
// writes at monotonically increasing offsets and record-sized reads at
// arbitrary offsets. Completion callbacks run on the device's worker
// goroutines; callers must not block in them.
type Device interface {
	// WriteAt asynchronously writes p at byte offset off. p must not be
	// modified until done runs.
	WriteAt(p []byte, off uint64, done func(error))
	// ReadAt asynchronously fills p from byte offset off.
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

// LatencyModel describes the simulated performance of a device.
type LatencyModel struct {
	// ReadLatency and WriteLatency are added to every operation.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// IOPS, when non-zero, rate-limits operations with a token bucket.
	IOPS int
	// BytesPerSec, when non-zero, rate-limits throughput.
	BytesPerSec int
}

// ioJob is one queued operation on a simulated device. Batch reads carry the
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

// MemDevice is an in-memory Device standing in for the local SSD. Data is
// held in fixed-size extents so the device can grow sparsely to any offset.
type MemDevice struct {
	model LatencyModel

	mu      sync.RWMutex
	extents map[uint64][]byte // extent index -> extentSize bytes
	written uint64            // high-water mark of contiguously written bytes

	jobs     chan ioJob
	throttle *throttle
	wg       sync.WaitGroup
	closed   atomic.Bool

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

const extentSize = 1 << 20 // 1 MiB extents

// NewMemDevice returns an in-memory device with the given performance model.
// workers controls completion concurrency (the simulated queue depth);
// values < 1 default to 4.
func NewMemDevice(model LatencyModel, workers int) *MemDevice {
	if workers < 1 {
		workers = 4
	}
	d := &MemDevice{
		model:    model,
		extents:  make(map[uint64][]byte),
		jobs:     make(chan ioJob, 1024),
		throttle: newThrottle(model.IOPS, model.BytesPerSec),
	}
	for i := 0; i < workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d
}

func (d *MemDevice) worker() {
	defer d.wg.Done()
	for job := range d.jobs {
		d.throttle.acquire(len(job.buf))
		if job.write {
			if d.model.WriteLatency > 0 {
				time.Sleep(d.model.WriteLatency)
			}
			d.doWrite(job.buf, job.off)
			d.stats.writes.Add(1)
			d.stats.writtenBytes.Add(uint64(len(job.buf)))
			job.finish(nil)
		} else {
			if d.model.ReadLatency > 0 {
				time.Sleep(d.model.ReadLatency)
			}
			err := d.doRead(job.buf, job.off)
			d.stats.reads.Add(1)
			d.stats.readBytes.Add(uint64(len(job.buf)))
			job.finish(err)
		}
	}
}

func (d *MemDevice) doWrite(p []byte, off uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(p) > 0 {
		ext := off / extentSize
		within := off % extentSize
		buf, ok := d.extents[ext]
		if !ok {
			buf = make([]byte, extentSize)
			d.extents[ext] = buf
		}
		n := copy(buf[within:], p)
		p = p[n:]
		off += uint64(n)
	}
	if off > d.written {
		d.written = off
	}
}

func (d *MemDevice) doRead(p []byte, off uint64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if off+uint64(len(p)) > d.written {
		return fmt.Errorf("%w: [%d,%d) beyond %d", ErrOutOfRange,
			off, off+uint64(len(p)), d.written)
	}
	for len(p) > 0 {
		ext := off / extentSize
		within := off % extentSize
		buf, ok := d.extents[ext]
		if !ok {
			return fmt.Errorf("%w: hole at %d", ErrOutOfRange, off)
		}
		n := copy(p, buf[within:])
		p = p[n:]
		off += uint64(n)
	}
	return nil
}

// WriteAt implements Device.
func (d *MemDevice) WriteAt(p []byte, off uint64, done func(error)) {
	if d.closed.Load() {
		done(ErrClosed)
		return
	}
	d.jobs <- ioJob{write: true, buf: p, off: off, done: done}
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off uint64, done func(error)) {
	if d.closed.Load() {
		done(ErrClosed)
		return
	}
	d.jobs <- ioJob{buf: p, off: off, done: done}
}

// ReadBatch implements BatchReader: the whole batch is enqueued in one pass,
// each job carrying its index and the shared callback (no closure per read).
func (d *MemDevice) ReadBatch(reqs []ReadReq, done func(int, error)) {
	if d.closed.Load() {
		for i := range reqs {
			done(i, ErrClosed)
		}
		return
	}
	d.stats.batchReads.Add(1)
	for i := range reqs {
		d.jobs <- ioJob{buf: reqs[i].P, off: reqs[i].Off, idx: i, bdone: done}
	}
}

// WriteSync writes synchronously; a convenience for checkpoints and tests.
func (d *MemDevice) WriteSync(p []byte, off uint64) error {
	return waitIO(func(done func(error)) { d.WriteAt(p, off, done) })
}

// ReadSync reads synchronously; a convenience for recovery and tests.
func (d *MemDevice) ReadSync(p []byte, off uint64) error {
	return waitIO(func(done func(error)) { d.ReadAt(p, off, done) })
}

// Stats implements Device.
func (d *MemDevice) Stats() DeviceStats { return d.stats.snapshot() }

// WrittenBytes returns the device's contiguous high-water mark.
func (d *MemDevice) WrittenBytes() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.written
}

// AllocatedBytes returns the memory currently backing the device; compaction
// tests watch it shrink after TruncateBefore.
func (d *MemDevice) AllocatedBytes() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint64(len(d.extents)) * extentSize
}

// TruncateBefore implements Truncator: extents wholly below off are dropped
// and their memory released. A partial leading extent is kept (reads just
// above off must keep working), so reclaim granularity is extentSize.
func (d *MemDevice) TruncateBefore(off uint64) (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	d.mu.Lock()
	var freed uint64
	for ext := range d.extents {
		if (ext+1)*extentSize <= off {
			delete(d.extents, ext)
			freed += extentSize
		}
	}
	d.mu.Unlock()
	d.stats.trimmedBytes.Add(freed)
	return freed, nil
}

// Close implements Device.
func (d *MemDevice) Close() error {
	if d.closed.Swap(true) {
		return nil
	}
	close(d.jobs)
	d.wg.Wait()
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

// throttle implements combined IOPS and byte-rate limiting with simple
// time-based accounting; a zero-valued limit disables that dimension.
type throttle struct {
	mu          sync.Mutex
	iops        float64
	bps         float64
	nextOpAt    time.Time
	nextBytesAt time.Time
}

func newThrottle(iops, bytesPerSec int) *throttle {
	return &throttle{iops: float64(iops), bps: float64(bytesPerSec)}
}

// acquire blocks until the operation conforms to the configured rates.
func (t *throttle) acquire(bytes int) {
	if t.iops == 0 && t.bps == 0 {
		return
	}
	t.mu.Lock()
	now := time.Now()
	wait := time.Duration(0)
	if t.iops > 0 {
		if t.nextOpAt.Before(now) {
			t.nextOpAt = now
		}
		w := t.nextOpAt.Sub(now)
		if w > wait {
			wait = w
		}
		t.nextOpAt = t.nextOpAt.Add(time.Duration(float64(time.Second) / t.iops))
	}
	if t.bps > 0 && bytes > 0 {
		if t.nextBytesAt.Before(now) {
			t.nextBytesAt = now
		}
		w := t.nextBytesAt.Sub(now)
		if w > wait {
			wait = w
		}
		t.nextBytesAt = t.nextBytesAt.Add(
			time.Duration(float64(bytes) / t.bps * float64(time.Second)))
	}
	t.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}
