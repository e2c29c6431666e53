package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// ImageStore keeps durable checkpoint images on a Device. Images are written
// append-only and published by updating a small superblock at offset 0 only
// after the image bytes are fully on the device, so a crash mid-checkpoint
// leaves the previous image intact and discoverable (the CPR durability
// contract the server-level checkpoint coordinator relies on).
//
// Layout: a 64-byte superblock at offset 0 (magic, generation, offset,
// length, CRC), then images at 4 KiB-aligned offsets. Each committed image
// supersedes the previous one; space is not reclaimed — checkpoint devices
// are per-server and images are far smaller than the log they cover.
type ImageStore struct {
	dev Device

	mu  sync.Mutex
	gen uint64 // generation of the latest committed image (0 = none)
	off uint64 // latest image's byte offset
	n   uint64 // latest image's length
}

// ErrNoImage is returned by Latest when no image has ever been committed.
var ErrNoImage = errors.New("storage: no checkpoint image committed")

const (
	imageMagic      = 0x53465849 // "SFXI"
	superblockSize  = 64
	imageAlign      = 4096
	superblockCRCAt = 28 // bytes covered by the CRC
)

// OpenImageStore opens (or initializes) an image store on dev. A device that
// has never held a superblock — or whose superblock fails validation — opens
// empty rather than erroring: recovery callers distinguish the two via
// Latest returning ErrNoImage. Read *errors* other than reading past the
// written extent are returned, not conflated with freshness: opening "empty"
// on a transient I/O fault would let the next Commit overwrite a committed
// image.
func OpenImageStore(dev Device) (*ImageStore, error) {
	if dev == nil {
		return nil, errors.New("storage: image store needs a device")
	}
	st := &ImageStore{dev: dev}
	var sb [superblockSize]byte
	if err := SyncRead(dev, sb[:], 0); err != nil {
		if errors.Is(err, ErrOutOfRange) {
			return st, nil // fresh device: nothing written yet
		}
		return nil, fmt.Errorf("storage: reading image superblock: %w", err)
	}
	if binary.LittleEndian.Uint32(sb[0:4]) != imageMagic {
		return st, nil
	}
	if crc32.ChecksumIEEE(sb[:superblockCRCAt]) !=
		binary.LittleEndian.Uint32(sb[superblockCRCAt:superblockCRCAt+4]) {
		return st, nil // torn superblock write: treat as empty
	}
	st.gen = binary.LittleEndian.Uint64(sb[4:12])
	st.off = binary.LittleEndian.Uint64(sb[12:20])
	st.n = binary.LittleEndian.Uint64(sb[20:28])
	return st, nil
}

// Generation returns the latest committed image's generation (0 = none).
func (st *ImageStore) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// NewWriter starts a new image after the latest committed one. The image
// becomes the store's latest only when Commit succeeds; an abandoned writer
// costs nothing but device space.
func (st *ImageStore) NewWriter() *ImageWriter {
	st.mu.Lock()
	defer st.mu.Unlock()
	off := uint64(alignUp(superblockSize, imageAlign))
	if end := st.off + st.n; end > off {
		off = alignUp(end, imageAlign)
	}
	return &ImageWriter{st: st, off: off}
}

// ImageWriter streams one image onto the device. It implements io.Writer so
// checkpoint producers (faster.Store.CheckpointCut and the server-level header)
// can serialize straight to the device without staging the image in memory.
type ImageWriter struct {
	st  *ImageStore
	off uint64
	n   uint64
	err error
}

// Write implements io.Writer with synchronous device writes.
func (w *ImageWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	// Copy before handing to the device: Device.WriteAt forbids mutating p
	// until completion, but io.Writer callers may reuse p immediately.
	buf := append([]byte(nil), p...)
	if err := SyncWrite(w.st.dev, buf, w.off+w.n); err != nil {
		w.err = err
		return 0, err
	}
	w.n += uint64(len(p))
	return len(p), nil
}

// Len returns the number of bytes written so far.
func (w *ImageWriter) Len() uint64 { return w.n }

// Commit publishes the image by rewriting the superblock. After Commit
// returns, Latest serves this image even across a process crash.
func (w *ImageWriter) Commit() error {
	if w.err != nil {
		return w.err
	}
	st := w.st
	st.mu.Lock()
	defer st.mu.Unlock()
	var sb [superblockSize]byte
	binary.LittleEndian.PutUint32(sb[0:4], imageMagic)
	binary.LittleEndian.PutUint64(sb[4:12], st.gen+1)
	binary.LittleEndian.PutUint64(sb[12:20], w.off)
	binary.LittleEndian.PutUint64(sb[20:28], w.n)
	binary.LittleEndian.PutUint32(sb[superblockCRCAt:superblockCRCAt+4],
		crc32.ChecksumIEEE(sb[:superblockCRCAt]))
	if err := SyncWrite(st.dev, sb[:], 0); err != nil {
		return err
	}
	st.gen++
	st.off = w.off
	st.n = w.n
	return nil
}

// Latest returns a reader over the most recently committed image and its
// length. The reader issues synchronous device reads in sectionSize chunks.
func (st *ImageStore) Latest() (io.Reader, uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.gen == 0 {
		return nil, 0, ErrNoImage
	}
	return &imageReader{dev: st.dev, off: st.off, remaining: st.n}, st.n, nil
}

// imageReader streams an image region off a Device.
type imageReader struct {
	dev       Device
	off       uint64
	remaining uint64
}

func (r *imageReader) Read(p []byte) (int, error) {
	if r.remaining == 0 {
		return 0, io.EOF
	}
	if uint64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	if err := SyncRead(r.dev, p, r.off); err != nil {
		return 0, fmt.Errorf("storage: image read at %d: %w", r.off, err)
	}
	r.off += uint64(len(p))
	r.remaining -= uint64(len(p))
	return len(p), nil
}

func alignUp(v, align uint64) uint64 {
	return (v + align - 1) &^ (align - 1)
}
