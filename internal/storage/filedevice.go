package storage

import (
	"os"
	"sync"
)

// FileDevice is a file-backed Device; the durable variant of MemDevice used
// when the stable region should survive process restarts (recovery tests and
// the larger-than-memory example).
type FileDevice struct {
	ioEngine
	f      *os.File
	trimMu sync.Mutex // serializes TruncateBefore
}

// NewFileDevice opens (creating if needed) a file-backed device at path.
func NewFileDevice(path string, _ LatencyModel, workers int) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d := &FileDevice{f: f}
	d.start(d, workers, uint64(st.Size()))
	return d, nil
}

func (d *FileDevice) writeAt(p []byte, off uint64) error {
	_, err := d.f.WriteAt(p, int64(off))
	return err
}

func (d *FileDevice) readAt(p []byte, off uint64) error {
	_, err := d.f.ReadAt(p, int64(off))
	return err
}

// AllocatedBytes returns the bytes of disk the backing file actually
// occupies (not its logical size — punched holes don't count).
func (d *FileDevice) AllocatedBytes() (uint64, error) { return fileAllocatedBytes(d.f) }

// TruncateBefore implements Truncator by punching a hole over [trimmed, off)
// where the platform supports it (Linux fallocate). The file's logical size
// is unchanged — offsets stay stable for the log's absolute addressing — but
// the freed range stops occupying disk blocks. On platforms without hole
// punching the call records the logical trim and frees nothing. Either way
// reads starting below off fail from here on (ioEngine.checkRead); the trim
// point is not persisted, so a reopened file reads punched bytes as zeros.
func (d *FileDevice) TruncateBefore(off uint64) (uint64, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	d.trimMu.Lock()
	defer d.trimMu.Unlock()
	trimmed := d.trimmed.Load()
	if off <= trimmed {
		return 0, nil
	}
	freed, err := punchHole(d.f, int64(trimmed), int64(off-trimmed))
	if err != nil {
		return 0, err
	}
	d.trimmed.Store(off)
	d.stats.trimmedBytes.Add(freed)
	return freed, nil
}

// Close implements Device.
func (d *FileDevice) Close() error {
	if !d.shutdown() {
		return nil
	}
	return d.f.Close()
}
