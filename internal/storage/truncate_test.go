package storage

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
)

func TestMemDeviceTruncateBefore(t *testing.T) {
	d := NewMemDevice(LatencyModel{}, 2)
	defer d.Close()

	// Three extents of data.
	page := make([]byte, 64<<10)
	for i := range page {
		page[i] = byte(i)
	}
	for off := uint64(0); off < 3*extentSize; off += uint64(len(page)) {
		if err := d.WriteSync(page, off); err != nil {
			t.Fatal(err)
		}
	}
	before := d.AllocatedBytes()
	if before != 3*extentSize {
		t.Fatalf("allocated %d, want %d", before, 3*extentSize)
	}

	// Truncating inside extent 1 frees only extent 0.
	freed, err := d.TruncateBefore(extentSize + 512)
	if err != nil {
		t.Fatal(err)
	}
	if freed != extentSize {
		t.Fatalf("freed %d, want %d", freed, extentSize)
	}
	if got := d.AllocatedBytes(); got != 2*extentSize {
		t.Fatalf("allocated %d after trim, want %d", got, 2*extentSize)
	}
	if got := d.Stats().TrimmedBytes; got != extentSize {
		t.Fatalf("TrimmedBytes %d, want %d", got, extentSize)
	}

	// Bytes above the cut stay readable; bytes below now error.
	buf := make([]byte, len(page))
	if err := d.ReadSync(buf, extentSize); err != nil {
		t.Fatalf("read above trim: %v", err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("data above trim corrupted")
	}
	if err := d.ReadSync(buf, 0); err == nil {
		t.Fatal("read of trimmed range succeeded")
	}

	// Idempotent: re-truncating at the same offset frees nothing more.
	if freed, err := d.TruncateBefore(extentSize + 512); err != nil || freed != 0 {
		t.Fatalf("re-trim: freed %d err %v", freed, err)
	}
}

func TestFileDeviceTruncateBefore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trunc.dat")
	d, err := NewFileDevice(path, LatencyModel{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	page := make([]byte, 64<<10)
	for i := range page {
		page[i] = byte(i * 7)
	}
	const total = 32 // 2 MiB
	for i := uint64(0); i < total; i++ {
		if err := SyncWrite(d, page, i*uint64(len(page))); err != nil {
			t.Fatal(err)
		}
	}

	cut := uint64(total/2) * uint64(len(page))
	freed, err := d.TruncateBefore(cut)
	if err != nil {
		t.Fatal(err)
	}
	// freed may be 0 on filesystems without hole punching; the logical
	// contract must hold either way.
	if got := d.Stats().TrimmedBytes; got != freed {
		t.Fatalf("TrimmedBytes %d, want %d", got, freed)
	}
	buf := make([]byte, len(page))
	if err := SyncRead(d, buf, cut); err != nil {
		t.Fatalf("read above trim: %v", err)
	}
	if !bytes.Equal(buf, page) {
		t.Fatal("data above trim corrupted")
	}
	if d.WrittenBytes() != total*uint64(len(page)) {
		t.Fatal("logical size changed by hole punch")
	}
	if freed > 0 {
		alloc, err := d.AllocatedBytes()
		if err != nil {
			t.Fatal(err)
		}
		if alloc >= total*uint64(len(page)) {
			t.Fatalf("no disk released: %d bytes still allocated", alloc)
		}
	}
}

func TestSharedTierTruncate(t *testing.T) {
	tier := NewSharedTier(LatencyModel{})
	defer tier.Close()

	page := make([]byte, 128<<10)
	for i := range page {
		page[i] = byte(i * 3)
	}
	for off := uint64(0); off < 2*extentSize; off += uint64(len(page)) {
		if err := tier.Upload("log-a", page, off); err != nil {
			t.Fatal(err)
		}
		if err := tier.Upload("log-b", page, off); err != nil {
			t.Fatal(err)
		}
	}

	if freed := tier.Truncate("log-a", extentSize); freed != extentSize {
		t.Fatalf("freed %d, want %d", freed, extentSize)
	}
	if got := tier.AllocatedBytes("log-a"); got != extentSize {
		t.Fatalf("log-a allocated %d, want %d", got, extentSize)
	}
	// Other logs are untouched.
	if got := tier.AllocatedBytes("log-b"); got != 2*extentSize {
		t.Fatalf("log-b allocated %d, want %d", got, 2*extentSize)
	}
	buf := make([]byte, len(page))
	if err := tier.Read("log-a", buf, extentSize); err != nil {
		t.Fatalf("read above trim: %v", err)
	}
	if err := tier.Read("log-a", buf, 0); err == nil {
		t.Fatal("read of truncated prefix succeeded")
	}
	if err := tier.Read("log-b", buf, 0); err != nil {
		t.Fatalf("log-b prefix read: %v", err)
	}
	// Unknown logs free nothing.
	if freed := tier.Truncate("nope", extentSize); freed != 0 {
		t.Fatalf("unknown log freed %d", freed)
	}
}

// backings opens one device per backing the engine serves, for the tests that
// hold on both.
var backings = map[string]func(t *testing.T) Device{
	"mem": func(*testing.T) Device { return NewMemDevice(LatencyModel{}, 2) },
	"file": func(t *testing.T) Device {
		d, err := NewFileDevice(filepath.Join(t.TempDir(), "dev.dat"), LatencyModel{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	},
}

// TestDeviceReadRange pins the one definition of a readable range on both
// backings: the same condition is the same typed error whether the bytes
// live in extents or in a file. 2 MiB are written, the first MiB is trimmed.
func TestDeviceReadRange(t *testing.T) {
	const written, trim = 2 * extentSize, extentSize
	cases := []struct {
		name   string
		off, n uint64
		ok     bool
	}{
		{"at the trim point", trim, 4096, true},
		{"up to the written mark", written - 4096, 4096, true},
		{"past the written mark", written, 4096, false},
		{"straddling the written mark", written - 100, 4096, false},
		{"below the trim point", 0, 4096, false},
		{"from below the trim point across it", trim - 100, 4096, false},
	}
	page := make([]byte, 64<<10)
	for i := range page {
		page[i] = byte(i*5 + 1)
	}
	for name, open := range backings {
		t.Run(name, func(t *testing.T) {
			d := open(t)
			defer d.Close()
			if err := SyncRead(d, make([]byte, 8), 0); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("read of a fresh device: want ErrOutOfRange, got %v", err)
			}
			for off := uint64(0); off < written; off += uint64(len(page)) {
				if err := SyncWrite(d, page, off); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := TruncateBefore(d, trim); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				buf := make([]byte, c.n)
				err := SyncRead(d, buf, c.off)
				switch {
				case c.ok && err != nil:
					t.Errorf("%s: %v", c.name, err)
				case c.ok && !bytes.Equal(buf, page[c.off%uint64(len(page)):][:c.n]):
					t.Errorf("%s: wrong bytes", c.name)
				case !c.ok && !errors.Is(err, ErrOutOfRange):
					t.Errorf("%s: want ErrOutOfRange, got %v", c.name, err)
				}
			}
		})
	}
}
