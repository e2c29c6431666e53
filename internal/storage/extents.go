package storage

import (
	"fmt"
	"sync"
)

const extentSize = 1 << 20 // 1 MiB extents

// extentMap is a sparse in-memory byte store: fixed-size extents allocated on
// first write, so it can grow to any offset. MemDevice is one; the shared
// tier keeps one per uploaded log. The zero value is empty and ready.
type extentMap struct {
	mu sync.RWMutex
	m  map[uint64][]byte // extent index -> extentSize bytes
}

func (x *extentMap) writeAt(p []byte, off uint64) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.m == nil {
		x.m = make(map[uint64][]byte)
	}
	for len(p) > 0 {
		ext := off / extentSize
		within := off % extentSize
		buf, ok := x.m[ext]
		if !ok {
			buf = make([]byte, extentSize)
			x.m[ext] = buf
		}
		n := copy(buf[within:], p)
		p = p[n:]
		off += uint64(n)
	}
	return nil
}

// readAt fails with ErrOutOfRange on an extent never written or dropped.
func (x *extentMap) readAt(p []byte, off uint64) error {
	x.mu.RLock()
	defer x.mu.RUnlock()
	for len(p) > 0 {
		ext := off / extentSize
		within := off % extentSize
		buf, ok := x.m[ext]
		if !ok {
			return fmt.Errorf("%w: hole at %d", ErrOutOfRange, off)
		}
		n := copy(p, buf[within:])
		p = p[n:]
		off += uint64(n)
	}
	return nil
}

// dropBelow releases the extents wholly below off and returns the bytes
// freed. A partial leading extent is kept (reads just above off must keep
// working), so reclaim granularity is extentSize.
func (x *extentMap) dropBelow(off uint64) (freed uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	for ext := range x.m {
		if (ext+1)*extentSize <= off {
			delete(x.m, ext)
			freed += extentSize
		}
	}
	return freed
}

// allocated returns the memory currently backing the map.
func (x *extentMap) allocated() uint64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return uint64(len(x.m)) * extentSize
}
