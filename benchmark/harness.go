package main

// The end-to-end harness: it boots server(s) and one client in this process
// through the public shadowfax API over kernel TCP on 127.0.0.1, preloads,
// warms up, drives a workload's op stream for the measured window, and
// verifies what came back. Load is sized for two cores: one dispatcher per
// server, one client thread, one connection per server, one issuing
// goroutine, a background pump.

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/shadowfax"
)

const (
	bucketNs    = int64(100 * time.Millisecond) // completion-count resolution
	graceAfter  = 10 * time.Second              // ops unfinished this long after the window count as failed
	preloadRing = 1024                          // outstanding ops during preload and read-back
	sampleEvery = 16                            // closed loops time every 16th op
	spanEvery   = 16 * sampleEvery              // and, traced, keep spans for every 256th
)

var processStart = time.Now()

// nowNs is the one clock every timestamp in the benchmark is read from.
func nowNs() int64 { return int64(time.Since(processStart)) }

// rig is one booted deployment.
type rig struct {
	w       *workload
	cluster *shadowfax.Cluster
	servers []*shadowfax.Server
	client  *shadowfax.Client
	dev     shadowfax.Device // cold workloads: the log device (closed by the rig)
	dir     string           // cold workloads: temp dir holding the log file

	// Timing decorators, installed only under -trace.
	ttr  *timedTransport
	tdev *timedDevice
}

// boot starts the workload's servers and dials the client. With tr set, the
// transport and the log device are wrapped in the timing decorators.
func boot(w *workload, outDir string, tr *tracer) (*rig, error) {
	r := &rig{w: w}
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	netOpt := shadowfax.WithTCPNetwork(shadowfax.NetFree)
	if tr != nil {
		r.ttr = newTimedTransport(tr)
		netOpt = shadowfax.WithTransport(r.ttr)
	}
	r.cluster = shadowfax.NewCluster(netOpt)

	common := []shadowfax.ServerOption{
		shadowfax.WithListenAddr("127.0.0.1:0"),
		shadowfax.WithThreads(1),
		shadowfax.WithMemoryBudget(w.pageBits, w.memPages, w.mutable),
		shadowfax.WithIndexBuckets(w.indexBuckets),
	}
	if w.coldFile {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		fd, err := shadowfax.NewFileDevice(filepath.Join(dir, "hlog.dat"), shadowfax.LatencyModel{}, 0)
		if err != nil {
			return nil, err
		}
		r.dev = fd
		if tr != nil {
			r.tdev = newTimedDevice(fd, tr)
			r.dev = r.tdev
		}
		common = append(common, shadowfax.WithLogDevice(r.dev))
	}

	ids := []string{"s1"}
	if w.migrate {
		ids = append(ids, "s2")
	}
	for i, id := range ids {
		opts := common
		if i > 0 {
			opts = append(append([]shadowfax.ServerOption(nil), common...), shadowfax.WithOwnership())
		}
		s, err := shadowfax.NewServer(r.cluster, id, opts...)
		if err != nil {
			return nil, fmt.Errorf("boot %s: %w", id, err)
		}
		r.servers = append(r.servers, s)
	}
	c, err := shadowfax.Dial(r.cluster, shadowfax.WithBackgroundPump())
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	r.client = c
	ok = true
	return r, nil
}

func (r *rig) close() {
	if r.client != nil {
		r.client.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	if r.cluster != nil {
		r.cluster.Close()
	}
	if r.dev != nil {
		r.dev.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// slot is one outstanding operation.
type slot struct {
	f    *shadowfax.Future
	kind opKind
	key  uint64
	t0   int64  // closed loop: issue time, 0 = not a latency sample; paced: the tick's due time
	t1   int64  // trace only: when the issuing call returned
	id   uint64 // trace only: the op's span id
}

// run is what one measured window recorded.
type run struct {
	start     int64 // nowNs when the window opened
	dur       time.Duration
	done      uint64   // acknowledgements while measuring, drain included
	completed uint64   // acknowledgements inside the window (= sum of buckets)
	buckets   []uint32 // completions per 100 ms of the window
	lat       []int64  // ns; closed loop: every sampleEvery-th op issue→Wait; paced: every op due→Wait
	latAt     []int32  // the 1-s window each latency sample completed in
	late      []int64  // paced: ns each tick was issued after it was due

	migAt, migDone int64 // migrate: ns into the window; migDone = 0 if it did not finish
	migErr         error
}

func newRun(dur time.Duration) *run {
	samples := int(dur/time.Second+1) << 16 // above both loops' samples per second
	return &run{dur: dur, buckets: make([]uint32, int64(dur)/bucketNs),
		lat: make([]int64, 0, samples), latAt: make([]int32, 0, samples)}
}

// credit books n acknowledgements, the last of them a latency sample of
// lat ns that returned at time t, into the 100-ms bucket of t; those after
// the window's end belong to no bucket.
func (m *run) credit(t, lat int64, n uint32) {
	m.done += uint64(n)
	i := int((t - m.start) / bucketNs)
	m.lat = append(m.lat, lat)
	m.latAt = append(m.latAt, int32(i/10))
	if i < len(m.buckets) {
		m.buckets[i] += n
		m.completed += uint64(n)
	}
}

// driver issues a workload's op stream against a rig and checks every reply.
type driver struct {
	r  *rig
	w  *workload
	s  *stream
	tr *tracer // nil unless -trace

	key   [8]byte
	val   []byte
	delta [8]byte

	ring     []slot
	head, n  int
	unbooked uint32 // closed loop: acknowledgements since the last sampled one

	attempted, failed, mismatches uint64
	ackedRMW                      uint64
	firstErr                      error
}

func newDriver(r *rig, seed uint64, tr *tracer) *driver {
	d := &driver{r: r, w: r.w, s: newStream(r.w, seed), tr: tr,
		val: make([]byte, r.w.valueBytes), ring: make([]slot, max(r.w.ring, preloadRing))}
	d.delta[0] = 1
	return d
}

func (d *driver) fail(err error) {
	d.failed++
	if d.firstErr == nil {
		d.firstErr = err
	}
}

// issue sends one operation through the public async API.
func (d *driver) issue(o op) *shadowfax.Future {
	fillKey(d.key[:], o.key)
	d.attempted++
	switch o.kind {
	case opGet:
		return d.r.client.GetAsync(d.key[:])
	case opSet:
		fillValue(d.val, o.key)
		return d.r.client.SetAsync(d.key[:], d.val)
	}
	return d.r.client.RMWAsync(d.key[:], d.delta[:])
}

// settle waits for one operation and checks its reply.
func (d *driver) settle(ctx context.Context, s *slot) {
	v, err := s.f.Wait(ctx)
	switch {
	case err != nil:
		d.fail(fmt.Errorf("op %d on key %d: %w", s.kind, s.key, err))
	case s.kind == opGet && !checkValue(v, s.key, d.w.valueBytes):
		d.mismatches++
	case s.kind == opRMW:
		d.ackedRMW++
	}
	s.f.Release()
}

func (d *driver) push(s slot) {
	d.ring[(d.head+d.n)%len(d.ring)] = s
	d.n++
}

func (d *driver) pop() slot {
	s := d.ring[d.head]
	d.head = (d.head + 1) % len(d.ring)
	d.n--
	return s
}

// reap settles the oldest outstanding operation of the closed loop; with m
// set it is counted into the window.
func (d *driver) reap(ctx context.Context, m *run) {
	s := d.pop()
	var tw int64
	if s.id != 0 {
		tw = nowNs()
	}
	d.settle(ctx, &s)
	if m == nil {
		return
	}
	d.unbooked++
	if s.t0 != 0 {
		t := nowNs()
		m.credit(t, t-s.t0, d.unbooked)
		d.unbooked = 0
		if s.id != 0 {
			d.tr.op(s.id, d.attempted, s.t0, s.t1, tw, t)
		}
	}
}

func (d *driver) drain(ctx context.Context, m *run) {
	d.r.client.Flush()
	for d.n > 0 {
		d.reap(ctx, m)
	}
	if m != nil {
		m.done += uint64(d.unbooked) // the tail after the last sampled op
		d.unbooked = 0
	}
}

// preload writes every key once: counters start at zero, values carry their
// key index.
func (d *driver) preload(ctx context.Context) error {
	for k := uint64(0); k < d.w.keys; k++ {
		if d.n == preloadRing {
			d.reap(ctx, nil)
		}
		fillKey(d.key[:], k)
		if d.w.valueBytes > 8 {
			fillValue(d.val, k)
		}
		d.attempted++
		d.push(slot{f: d.r.client.SetAsync(d.key[:], d.val), kind: opSet, key: k})
	}
	d.drain(ctx, nil)
	if d.failed > 0 {
		return fmt.Errorf("preload: %d of %d writes failed: %w", d.failed, d.w.keys, d.firstErr)
	}
	return nil
}

// drive runs the workload's traffic for dur; with m set it is the measured
// window, otherwise warm-up.
func (d *driver) drive(ctx context.Context, dur time.Duration, m *run) {
	if m != nil {
		m.start = nowNs()
	}
	var mig sync.WaitGroup
	if d.w.migrate && m != nil {
		mig.Add(1)
		go func() {
			defer mig.Done()
			d.migrate(ctx, m)
		}()
	}
	if d.w.ring > 0 {
		d.closedLoop(ctx, dur, m)
	} else {
		d.pacedLoop(ctx, dur, m)
	}
	mig.Wait()
}

// closedLoop keeps w.ring operations outstanding, reaping oldest-first, and
// times every sampleEvery-th from just before its issue to the return of Wait.
func (d *driver) closedLoop(ctx context.Context, dur time.Duration, m *run) {
	end := nowNs() + int64(dur)
	for i := 0; ; i++ {
		if d.n == d.w.ring {
			d.reap(ctx, m)
		}
		s := slot{}
		if i%sampleEvery == 0 {
			if s.t0 = nowNs(); s.t0 >= end {
				break
			}
		}
		o := d.s.next()
		s.kind, s.key = o.kind, o.key
		if d.tr != nil && i%spanEvery == 0 {
			s.id = d.tr.enter()
			s.f = d.issue(o)
			s.t1 = d.tr.leave()
		} else {
			s.f = d.issue(o)
		}
		d.push(s)
	}
	d.drain(ctx, m)
}

// pacedLoop issues rate·tick operations at every tick of a fixed schedule,
// whatever the replies are doing, then flushes; a reaper waits for them in
// issue order and times each from the instant its tick was due.
func (d *driver) pacedLoop(ctx context.Context, dur time.Duration, m *run) {
	perTick := int(int64(d.w.rate) * int64(d.w.tick) / int64(time.Second))
	// Sized so that the issuer never blocks on the reaper short of a
	// backlog of more than a second of traffic, which gen.late reports.
	ch := make(chan slot, 1<<16)
	var reaper sync.WaitGroup
	reaper.Add(1)
	go func() {
		defer reaper.Done()
		for s := range ch {
			d.settle(ctx, &s)
			if m != nil {
				t := nowNs()
				m.credit(t, t-s.t0, 1)
			}
		}
	}()
	start := nowNs()
	for k := int64(0); ; k++ {
		due := start + k*int64(d.w.tick)
		if due >= start+int64(dur) {
			break
		}
		sleepUntil(due)
		if m != nil {
			m.late = append(m.late, nowNs()-due)
		}
		for i := 0; i < perTick; i++ {
			o := d.s.next()
			ch <- slot{f: d.issue(o), kind: o.kind, key: o.key, t0: due}
		}
		d.r.client.Flush()
	}
	close(ch)
	reaper.Wait()
}

// sleepUntil blocks until nowNs reaches t. It sleeps in the kernel's
// nanosleep, which is precise to ~0.1 ms here; time.Sleep is not — the Go
// runtime's timers fire on a ~1.1-ms grid in this sandbox
// (env.sleep50us_us), which would run a 1-ms schedule up to a tick late.
func sleepUntil(t int64) {
	for {
		wait := t - nowNs()
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(wait)
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // EINTR: the loop sleeps the remainder
	}
}

// migrate moves the lower half of the hash space from s1 to s2 a quarter of
// the way into the window and records when every server's pending-migration
// list is empty again.
func (d *driver) migrate(ctx context.Context, m *run) {
	at := m.start + int64(m.dur)/4
	time.Sleep(time.Duration(at - nowNs()))
	m.migAt = nowNs() - m.start
	err := shadowfax.NewAdmin(d.r.cluster).Migrate(ctx, "s1", "s2", shadowfax.HashRange{Start: 0, End: 1 << 63})
	if err != nil {
		m.migErr = err
		return
	}
	for ctx.Err() == nil {
		if len(d.r.cluster.PendingMigrations("s1"))+len(d.r.cluster.PendingMigrations("s2")) == 0 {
			m.migDone = nowNs() - m.start
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.migErr = ctx.Err()
}

// verifyCounters reads back every key: the counters must add up to the
// number of acknowledged RMWs, across any migration (exactly-once).
func (d *driver) verifyCounters(ctx context.Context) {
	var sum uint64
	take := func() {
		s := d.pop()
		v, err := s.f.Wait(ctx)
		switch {
		case err != nil:
			d.fail(fmt.Errorf("read-back of key %d: %w", s.key, err))
		case len(v) != 8:
			d.mismatches++
		default:
			sum += binary.LittleEndian.Uint64(v)
		}
		s.f.Release()
	}
	for k := uint64(0); k < d.w.keys; k++ {
		if d.n == preloadRing {
			take()
		}
		fillKey(d.key[:], k)
		d.attempted++
		d.push(slot{f: d.r.client.GetAsync(d.key[:]), key: k})
	}
	d.r.client.Flush()
	for d.n > 0 {
		take()
	}
	if sum != d.ackedRMW {
		d.mismatches++
		if d.firstErr == nil {
			d.firstErr = fmt.Errorf("counters sum to %d, %d RMWs were acknowledged", sum, d.ackedRMW)
		}
	}
}

// setUp boots a rig, preloads it and warms it up; its duration is setup_s.
func setUp(w *workload, seed uint64, outDir string, tr *tracer) (*rig, *driver, float64, error) {
	t := nowNs()
	r, err := boot(w, outDir, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	d := newDriver(r, seed, tr)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := d.preload(ctx); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	d.drive(ctx, w.warmup, nil)
	return r, d, float64(nowNs()-t) / 1e9, nil
}
