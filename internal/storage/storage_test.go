package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMemDeviceRoundTrip(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 2)
	defer d.Close()

	data := []byte("hello hybrid log")
	if err := d.WriteSync(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadSync(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestMemDeviceCrossExtent(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 2)
	defer d.Close()

	// Write spanning an extent boundary.
	off := uint64(extentSize - 7)
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i + 1)
	}
	// Fill the hole before it so the high-water mark is contiguous.
	if err := d.WriteSync(make([]byte, off), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteSync(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := d.ReadSync(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-extent round trip mismatch")
	}
}

func TestMemDeviceReadBeyondWritten(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 2)
	defer d.Close()
	if err := d.WriteSync([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	err := d.ReadSync(make([]byte, 10), 0)
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("want ErrOutOfRange, got %v", err)
	}
}

func TestMemDeviceClosed(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 1)
	d.Close()
	err := d.WriteSync([]byte("x"), 0)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// Double close is harmless.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMemDeviceStats(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 1)
	defer d.Close()
	d.WriteSync(make([]byte, 100), 0)
	d.ReadSync(make([]byte, 40), 0)
	st := d.Stats()
	if st.Writes != 1 || st.WrittenBytes != 100 || st.Reads != 1 || st.ReadBytes != 40 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestMemDeviceConcurrent(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 8)
	defer d.Close()
	const n = 64
	const sz = 512
	// Pre-extend the high-water mark.
	if err := d.WriteSync(make([]byte, n*sz), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(i + 1)}, sz)
			if err := d.WriteSync(buf, uint64(i*sz)); err != nil {
				t.Error(err)
				return
			}
			got := make([]byte, sz)
			if err := d.ReadSync(got, uint64(i*sz)); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(got, buf) {
				t.Errorf("slot %d mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}

func TestMemDeviceQuickRoundTrip(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 4)
	defer d.Close()
	var mu sync.Mutex
	high := uint64(0)
	f := func(data []byte, offSeed uint16) bool {
		if len(data) == 0 {
			return true
		}
		mu.Lock()
		off := high
		high += uint64(len(data))
		mu.Unlock()
		_ = offSeed
		if err := d.WriteSync(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := d.ReadSync(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dat")
	d, err := NewFileDevice(path, LatencyModel{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("durable bytes")
	if err := SyncWrite(d, data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := SyncRead(d, got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file round trip mismatch")
	}
	if d.WrittenBytes() != 4096+uint64(len(data)) {
		t.Fatalf("written high-water %d", d.WrittenBytes())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-open: data persists.
	d2, err := NewFileDevice(path, LatencyModel{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got2 := make([]byte, len(data))
	if err := SyncRead(d2, got2, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, data) {
		t.Fatal("data lost across reopen")
	}
}

func TestSharedTierRoundTrip(t *testing.T) {
	tier := NewSharedTier(LatencyModel{})
	defer tier.Close()

	data := []byte("page of records")
	if err := tier.Upload("log-a", data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := tier.Read("log-a", got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("tier round trip mismatch")
	}
}

func TestSharedTierIsolatesLogs(t *testing.T) {
	tier := NewSharedTier(LatencyModel{})
	defer tier.Close()
	tier.Upload("a", []byte("aaaa"), 0)
	tier.Upload("b", []byte("bbbb"), 0)
	got := make([]byte, 4)
	tier.Read("b", got, 0)
	if string(got) != "bbbb" {
		t.Fatalf("log b corrupted: %q", got)
	}
	if err := tier.Read("c", got, 0); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("unknown log should be out of range, got %v", err)
	}
}

func TestSharedTierCrossServerRead(t *testing.T) {
	// The migration use case: server B reads server A's uploaded log.
	tier := NewSharedTier(LatencyModel{})
	defer tier.Close()
	pageA := bytes.Repeat([]byte{0xAB}, 8192)
	if err := tier.Upload("server-A", pageA, 1<<20); err != nil {
		t.Fatal(err)
	}
	// Hole before the upload: fill so high-water accounting permits it.
	if err := tier.Upload("server-A", make([]byte, 1<<20), 0); err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 128)
	if err := tier.Read("server-A", rec, 1<<20+512); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, pageA[512:512+128]) {
		t.Fatal("cross-server record read mismatch")
	}
	if tier.UploadedBytes("server-A") != 1<<20+8192 {
		t.Fatalf("uploaded high-water %d", tier.UploadedBytes("server-A"))
	}
}

// TestSubmitRacingCloseFailsWithErrClosed: an I/O submitted while the device
// is being closed either completes or fails with ErrClosed — its callback
// runs exactly once, and the submitter never sends on the closed job queue.
func TestSubmitRacingCloseFailsWithErrClosed(t *testing.T) {
	const rounds, writes = 200, 50
	for name, open := range backings {
		t.Run(name, func(t *testing.T) {
			for r := 0; r < rounds; r++ {
				d := open(t)
				var calls [writes]atomic.Int32
				var completed sync.WaitGroup
				completed.Add(writes)
				// Close lands after write number r%writes has been submitted,
				// so over the rounds it meets every point of the stream.
				midway := make(chan struct{})
				closed := make(chan struct{})
				go func() {
					defer close(closed)
					<-midway
					d.Close()
				}()
				for i := 0; i < writes; i++ {
					i := i
					d.WriteAt([]byte{byte(i)}, uint64(i), func(err error) {
						if err != nil && !errors.Is(err, ErrClosed) {
							t.Errorf("write %d: %v", i, err)
						}
						calls[i].Add(1)
						completed.Done()
					})
					if i == r%writes {
						close(midway)
					}
				}
				<-closed
				completed.Wait()
				for i := range calls {
					if n := calls[i].Load(); n != 1 {
						t.Fatalf("round %d: done of write %d ran %d times", r, i, n)
					}
				}
			}
		})
	}
}
