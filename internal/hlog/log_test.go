package hlog

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/epoch"
	"repro/internal/storage"
)

// testLog builds a small log: 4 KiB pages, 8 frames, 4 mutable.
func testLog(t *testing.T) (*Log, *epoch.Manager, *storage.MemDevice) {
	t.Helper()
	em := epoch.NewManager()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	l, err := New(Config{
		PageBits: 12, MemPages: 8, MutablePages: 4,
		Device: dev, Epoch: em, LogID: "test",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); dev.Close() })
	return l, em, dev
}

func TestConfigValidation(t *testing.T) {
	em := epoch.NewManager()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 1)
	defer dev.Close()
	bad := []Config{
		{PageBits: 5, MemPages: 8, MutablePages: 4, Device: dev, Epoch: em},
		{PageBits: 12, MemPages: 7, MutablePages: 4, Device: dev, Epoch: em},
		{PageBits: 12, MemPages: 8, MutablePages: 8, Device: dev, Epoch: em},
		{PageBits: 12, MemPages: 8, MutablePages: 0, Device: dev, Epoch: em},
		{PageBits: 12, MemPages: 8, MutablePages: 4, Epoch: em},
		{PageBits: 12, MemPages: 8, MutablePages: 4, Device: dev},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestAllocateWriteRead(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()

	key, val := []byte("key-1"), []byte("value-1")
	sz := RecordSize(len(key), len(val))
	addr, buf, err := l.Allocate(g, sz)
	if err != nil {
		t.Fatal(err)
	}
	if addr < MinAddress {
		t.Fatalf("address %#x below MinAddress", addr)
	}
	WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false), key, val)

	r := l.RecordAt(addr)
	if !bytes.Equal(r.Key(), key) || !bytes.Equal(r.Value(), val) {
		t.Fatal("record round trip failed")
	}
}

func TestAllocateRejectsBadSizes(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()
	if _, _, err := l.Allocate(g, 0); err == nil {
		t.Fatal("zero-size allocation must fail")
	}
	if _, _, err := l.Allocate(g, l.PageSize()+1); err == nil {
		t.Fatal("over-page allocation must fail")
	}
}

func TestAddressesMonotonic(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()
	prev := Address(0)
	for i := 0; i < 100; i++ {
		addr, _, err := l.Allocate(g, 32)
		if err != nil {
			t.Fatal(err)
		}
		if addr <= prev {
			t.Fatalf("allocation %d: address %#x not above %#x", i, addr, prev)
		}
		prev = addr
	}
}

func TestPageRollAndRegions(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()

	// Fill several pages to force rolls and region shifts.
	recSz := RecordSize(8, 64) // 88 bytes
	perPage := l.PageSize() / recSz
	for i := 0; i < perPage*6; i++ {
		_, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64))
		g.Refresh()
	}
	rolls, _, _, _ := l.Stats()
	if rolls < 5 {
		t.Fatalf("expected >=5 page rolls, got %d", rolls)
	}
	// Mutable capacity is 4 pages; after writing 6 pages the read-only
	// boundary must have moved.
	if l.ReadOnlyAddress() == 0 {
		t.Fatal("read-only boundary never moved")
	}
	if l.TailAddress() <= l.ReadOnlyAddress() {
		t.Fatal("tail must lead read-only boundary")
	}
}

func TestEvictionAndFlushOnWrap(t *testing.T) {
	l, em, dev := testLog(t)
	g := em.Register()
	defer g.Unregister()

	// Write more than the 8-page in-memory budget (32 KiB): 16 pages.
	recSz := RecordSize(8, 56) // 80 bytes
	perPage := l.PageSize() / recSz
	for i := 0; i < perPage*16; i++ {
		_, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("k%06d", i)), make([]byte, 56))
		g.Refresh()
	}
	// Wrapping required flushing and evicting at least 8 pages.
	if l.FlushedUntilAddress() == 0 {
		t.Fatal("nothing was flushed")
	}
	if l.SafeHeadAddress() == 0 {
		t.Fatal("nothing was evicted")
	}
	if l.HeadAddress() > l.TailAddress() {
		t.Fatal("head beyond tail")
	}
	if dev.Stats().Writes == 0 {
		t.Fatal("device saw no writes")
	}
	// Region ordering invariant.
	if !(l.SafeHeadAddress() <= l.HeadAddress() &&
		uint64(l.HeadAddress()) <= l.readOnly.Load() &&
		l.ReadOnlyAddress() <= l.TailAddress()) {
		t.Fatalf("region ordering violated: safeHead=%#x head=%#x ro=%#x tail=%#x",
			l.SafeHeadAddress(), l.HeadAddress(), l.ReadOnlyAddress(), l.TailAddress())
	}
}

func TestReadRecordFromDevice(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()

	type placed struct {
		addr Address
		key  string
	}
	var all []placed
	recSz := RecordSize(8, 56)
	perPage := l.PageSize() / recSz
	for i := 0; i < perPage*16; i++ {
		addr, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		k := fmt.Sprintf("k%06d", i)
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(k), bytes.Repeat([]byte{byte(i)}, 56))
		all = append(all, placed{addr, k})
		g.Refresh()
	}
	// Read a record that has been flushed to the device.
	flushed := l.FlushedUntilAddress()
	var target placed
	for _, p := range all {
		if p.addr+Address(recSz) <= flushed {
			target = p
		}
	}
	if target.key == "" {
		t.Fatal("no record below flushed boundary")
	}
	r, err := l.ReadRecordFromDevice(target.addr, recSz)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Key()) != target.key {
		t.Fatalf("device read key %q, want %q", r.Key(), target.key)
	}
}

func TestSharedTierMirroring(t *testing.T) {
	em := epoch.NewManager()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	tier := storage.NewSharedTier(storage.LatencyModel{})
	defer tier.Close()
	l, err := New(Config{
		PageBits: 12, MemPages: 8, MutablePages: 4,
		Device: dev, Epoch: em, Tier: tier, LogID: "srv-1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := em.Register()
	defer g.Unregister()

	recSz := RecordSize(8, 56)
	perPage := l.PageSize() / recSz
	var firstAddr Address
	for i := 0; i < perPage*16; i++ {
		addr, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstAddr = addr
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("k%06d", i)), make([]byte, 56))
		g.Refresh()
	}
	// Wait for mirroring of the flushed prefix.
	deadline := time.Now().Add(2 * time.Second)
	for tier.UploadedBytes("srv-1") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tier.UploadedBytes("srv-1") == 0 {
		t.Fatal("tier never received pages")
	}
	// A flushed record is readable from the tier by log id — the
	// indirection-record resolution path.
	r, err := ReadRecordFromTier(tier, "srv-1", 12, firstAddr, recSz)
	if err != nil {
		t.Fatal(err)
	}
	if string(r.Key()) != "k000000" {
		t.Fatalf("tier read key %q", r.Key())
	}
}

func TestScanMemory(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()

	var want []string
	start := l.TailAddress()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key-%03d", i)
		sz := RecordSize(len(k), 8)
		_, buf, err := l.Allocate(g, sz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false), []byte(k), make([]byte, 8))
		want = append(want, k)
	}
	var got []string
	l.ScanMemory(start, l.TailAddress(), func(addr Address, r Record) bool {
		got = append(got, string(r.Key()))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scan found %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestScanMemorySkipsPadding(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()

	start := l.TailAddress()
	// A large record that forces padding at the end of page 0.
	big := l.PageSize() / 2
	for i := 0; i < 3; i++ {
		sz := RecordSize(8, big)
		if sz > l.PageSize() {
			t.Fatal("test record too large")
		}
		_, buf, err := l.Allocate(g, sz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("big-%03d", i)), make([]byte, big))
		g.Refresh()
	}
	count := 0
	l.ScanMemory(start, l.TailAddress(), func(addr Address, r Record) bool {
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("scan found %d records across padded pages, want 3", count)
	}
}

func TestScanPageBuffer(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()
	defer g.Unregister()

	recSz := RecordSize(8, 56)
	perPage := l.PageSize() / recSz
	total := perPage * 16
	for i := 0; i < total; i++ {
		_, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("k%06d", i)), make([]byte, 56))
		g.Refresh()
	}
	if l.FlushedUntilAddress() < Address(l.PageSize()) {
		t.Fatal("first page not flushed")
	}
	buf := l.NewPageBuffer()
	if err := l.ReadPageFromDevice(0, buf); err != nil {
		t.Fatal(err)
	}
	var keys []string
	ScanPageBuffer(0, buf, func(addr Address, r Record) bool {
		keys = append(keys, string(r.Key()))
		return true
	})
	// Page 0 starts at MinAddress (64), so it holds one record fewer than a
	// full page would.
	wantRecs := (l.PageSize() - int(MinAddress)) / recSz
	if len(keys) != wantRecs {
		t.Fatalf("page scan found %d records, want %d", len(keys), wantRecs)
	}
	if keys[0] != "k000000" {
		t.Fatalf("first key %q", keys[0])
	}
}

func TestConcurrentAllocators(t *testing.T) {
	l, em, _ := testLog(t)
	const threads = 4
	const perThread = 400

	var wg sync.WaitGroup
	addrs := make([][]Address, threads)
	for tdx := 0; tdx < threads; tdx++ {
		wg.Add(1)
		go func(tdx int) {
			defer wg.Done()
			g := em.Register()
			defer g.Unregister()
			for i := 0; i < perThread; i++ {
				k := fmt.Sprintf("t%d-%05d", tdx, i)
				sz := RecordSize(len(k), 8)
				addr, buf, err := l.Allocate(g, sz)
				if err != nil {
					t.Error(err)
					return
				}
				WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
					[]byte(k), make([]byte, 8))
				addrs[tdx] = append(addrs[tdx], addr)
				if i%16 == 0 {
					g.Refresh()
				}
			}
		}(tdx)
	}
	wg.Wait()

	// All addresses must be unique.
	seen := make(map[Address]bool)
	for _, list := range addrs {
		for _, a := range list {
			if seen[a] {
				t.Fatalf("duplicate address %#x", a)
			}
			seen[a] = true
		}
	}

	// Records still in memory must read back correctly.
	g := em.Register()
	defer g.Unregister()
	head := l.HeadAddress()
	verified := 0
	for tdx, list := range addrs {
		for i, a := range list {
			if a < head {
				continue
			}
			r := l.RecordAt(a)
			want := fmt.Sprintf("t%d-%05d", tdx, i)
			if string(r.Key()) != want {
				t.Fatalf("record at %#x: key %q, want %q", a, r.Key(), want)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no records verified")
	}
}

func TestFlushUntil(t *testing.T) {
	l, em, dev := testLog(t)
	g := em.Register()

	recSz := RecordSize(8, 56)
	for i := 0; i < 3*l.PageSize()/recSz; i++ {
		_, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("k%06d", i)), make([]byte, 56))
	}
	tail := l.TailAddress()
	g.Unregister() // FlushUntil requires no epoch protection on this thread
	l.FlushUntil(tail)
	wantPages := uint64(tail) >> 12
	if got := uint64(l.FlushedUntilAddress()) >> 12; got < wantPages {
		t.Fatalf("flushed %d pages, want >= %d", got, wantPages)
	}
	if dev.Stats().Writes < wantPages {
		t.Fatalf("device writes %d < %d", dev.Stats().Writes, wantPages)
	}
}

func TestRestoreMarkersAndFrames(t *testing.T) {
	l, em, _ := testLog(t)
	g := em.Register()

	recSz := RecordSize(8, 56)
	var page0Addr Address
	var page0Key string
	for i := 0; i < l.PageSize()/recSz; i++ {
		addr, buf, err := l.Allocate(g, recSz)
		if err != nil {
			t.Fatal(err)
		}
		k := fmt.Sprintf("k%06d", i)
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false),
			[]byte(k), make([]byte, 56))
		if addr.Page(12) == 0 {
			page0Addr, page0Key = addr, k
		}
	}
	g.Unregister()

	// Snapshot page 0, build a second log, restore into it.
	snap := l.NewPageBuffer()
	if !l.FrameSnapshot(0, snap) {
		t.Fatal("page 0 not resident")
	}
	em2 := epoch.NewManager()
	dev2 := storage.NewMemDevice(storage.LatencyModel{}, 2)
	defer dev2.Close()
	l2, err := New(Config{PageBits: 12, MemPages: 8, MutablePages: 4,
		Device: dev2, Epoch: em2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	l2.RestoreFrame(0, snap)
	l2.RestoreMarkers(l.TailAddress(), l.ReadOnlyAddress(), 0, 0)

	r := l2.RecordAt(page0Addr)
	if string(r.Key()) != page0Key {
		t.Fatalf("restored record key %q, want %q", r.Key(), page0Key)
	}
	if l2.TailAddress() != l.TailAddress() {
		t.Fatal("markers not restored")
	}
}

func BenchmarkAllocateWrite(b *testing.B) {
	em := epoch.NewManager()
	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	l, err := New(Config{PageBits: 20, MemPages: 16, MutablePages: 8,
		Device: dev, Epoch: em})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	g := em.Register()
	defer g.Unregister()
	key := []byte("bench-key")
	val := make([]byte, 64)
	sz := RecordSize(len(key), len(val))
	b.SetBytes(int64(sz))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, buf, err := l.Allocate(g, sz)
		if err != nil {
			b.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false), key, val)
		if i%64 == 0 {
			g.Refresh()
		}
	}
}

// TestLongRecordDeviceReadReusesPrefix pins the two-read path for records
// longer than the hint: the second read must fetch only the missing suffix,
// not the whole record again.
func TestLongRecordDeviceReadReusesPrefix(t *testing.T) {
	l, em, dev := testLog(t)
	g := em.Register()
	defer g.Unregister()

	key := []byte("long-rec")
	val := bytes.Repeat([]byte{0xAB}, 1500)
	sz := RecordSize(len(key), len(val))
	addr, buf, err := l.Allocate(g, sz)
	if err != nil {
		t.Fatal(err)
	}
	WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false), key, val)

	fillSz := RecordSize(8, 56)
	for i := 0; l.FlushedUntilAddress() < addr+Address(sz); i++ {
		if i > 20_000 {
			t.Fatal("record never flushed")
		}
		_, fb, err := l.Allocate(g, fillSz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(fb, NewMeta(InvalidAddress, 0, false, false),
			[]byte(fmt.Sprintf("f%07d", i)), make([]byte, 56))
		g.Refresh()
	}

	const hint = 64
	before := dev.Stats().ReadBytes
	r, err := l.ReadRecordFromDevice(addr, hint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.Key(), key) || !bytes.Equal(r.Value(), val) {
		t.Fatal("long record round trip failed")
	}
	// hint bytes + the suffix == exactly sz; re-reading the whole record
	// after the hint (the old behavior) would cost hint + sz.
	if delta := dev.Stats().ReadBytes - before; delta != uint64(sz) {
		t.Fatalf("device read %d bytes for a %d-byte record (prefix not reused)",
			delta, sz)
	}
}

// TestPlanRecordRead pins the span geometry: read-behind clamped to the page
// start and the floor, read-ahead clamped to the page end.
func TestPlanRecordRead(t *testing.T) {
	const pageBits = 12
	cases := []struct {
		addr         Address
		hint, behind int
		floor        Address
		off          uint64
		n, recOff    int
	}{
		// Mid-page: behind and hint both fit.
		{addr: 8192 + 2048, hint: 256, behind: 512, floor: 0,
			off: 8192 + 1536, n: 512 + 256, recOff: 512},
		// Behind clamped to the page start (records never span pages).
		{addr: 8192 + 100, hint: 256, behind: 512, floor: 0,
			off: 8192, n: 100 + 256, recOff: 100},
		// Behind clamped to the floor (log truncation point).
		{addr: 8192 + 300, hint: 256, behind: 512, floor: 8192 + 200,
			off: 8192 + 200, n: 100 + 256, recOff: 100},
		// Hint clamped to the page end.
		{addr: 2*4096 - 64, hint: 256, behind: 0, floor: 0,
			off: 2*4096 - 64, n: 64, recOff: 0},
		// Tiny hint raised to the header minimum (32).
		{addr: 8192, hint: 1, behind: 0, floor: 0,
			off: 8192, n: HeaderBytes + 16, recOff: 0},
	}
	for i, c := range cases {
		off, n, recOff := PlanRecordRead(c.addr, c.hint, c.behind, pageBits, c.floor)
		if off != c.off || n != c.n || recOff != c.recOff {
			t.Errorf("case %d: got (%d,%d,%d), want (%d,%d,%d)",
				i, off, n, recOff, c.off, c.n, c.recOff)
		}
	}
}

// slowWrites is a Device whose writes complete 2 ms late — a slow disk for
// TestHeadNeverPassesFlushedFrontier. The sleep holds the inner device's
// worker, so with one worker writes also queue behind each other.
type slowWrites struct{ *storage.MemDevice }

func (d slowWrites) WriteAt(p []byte, off uint64, done func(error)) {
	d.MemDevice.WriteAt(p, off, func(err error) {
		time.Sleep(2 * time.Millisecond)
		done(err)
	})
}

// TestHeadNeverPassesFlushedFrontier: readers treat every address below
// HeadAddress as device-resident, so the head intent may not run ahead of
// what the flusher has written. With a slow device it would, for as long as
// an allocation waits for its frame, and a chain walk on another thread would
// read a page the device does not hold yet.
func TestHeadNeverPassesFlushedFrontier(t *testing.T) {
	em := epoch.NewManager()
	dev := slowWrites{storage.NewMemDevice(storage.LatencyModel{}, 1)}
	l, err := New(Config{PageBits: 12, MemPages: 8, MutablePages: 4,
		Device: dev, Epoch: em, LogID: "slow-flush"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); dev.Close() })

	stop := make(chan struct{})
	var ahead atomic.Uint64 // worst head - flushedUntil seen
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Head first: both only grow, so a frontier read second that
			// covers it covered it all along.
			head, fu := l.HeadAddress(), l.FlushedUntilAddress()
			if head > fu && uint64(head-fu) > ahead.Load() {
				ahead.Store(uint64(head - fu))
			}
		}
	}()

	g := em.Register()
	key, val := []byte("key"), make([]byte, 200)
	sz := RecordSize(len(key), len(val))
	for i := 0; i < 40*4096/sz; i++ { // forty pages through eight frames
		_, buf, err := l.Allocate(g, sz)
		if err != nil {
			t.Fatal(err)
		}
		WriteRecord(buf, NewMeta(InvalidAddress, 0, false, false), key, val)
		g.Refresh()
	}
	g.Unregister()
	close(stop)
	wg.Wait()
	if l.HeadAddress() == 0 {
		t.Fatal("log never spilled")
	}
	if n := ahead.Load(); n != 0 {
		t.Fatalf("head ran %d bytes past the flushed frontier", n)
	}
}
