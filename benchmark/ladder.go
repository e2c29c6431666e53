package main

// The ladder: the workload's own op stream driven at every layer, bottom
// up, timing only calls into each package's exported functions. Each rung
// contains the ones below it, so a layer's tax is the difference between
// two rungs:
//
//	gen → hashfn → hashidx → hlog → faster → wire
//	  → core      (raw-wire driver, in-memory transport)
//	  → transport (same driver over TCP loopback)
//	  → client    (client.Thread with callbacks)
//	  → shadowfax (public futures: the end-to-end run)

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/faster"
	"repro/internal/hashfn"
	"repro/internal/hashidx"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	rawBatch  = 256 // ops per raw-wire batch (the client's default)
	echoBytes = 64  // frame size of the socket-floor echo
)

// ladderSize is how much work the rungs do.
type ladderSize struct {
	ops  int           // ops per pass of the in-process rungs
	pass time.Duration // length of each closed-loop pass of the server rungs
	reps int           // one-at-a-time round trips per RTT metric
}

var fullLadder = ladderSize{ops: 1 << 20, pass: 2 * time.Second, reps: 400}

// sink keeps the compiler from discarding the measured calls.
var sink uint64

type ladder struct {
	size ladderSize
	w    *workload
	tr   *tracer
	root uint64
	dir  string
	out  map[string]float64
	errs uint64 // non-OK statuses seen by the rungs

	ops    []op     // the workload's op stream
	keys   []byte   // its keys, 8 bytes each
	hashes []uint64 // and their hashes
	val    []byte
	delta  [8]byte
}

// timed runs fn under a span and returns its duration in ns.
func (ld *ladder) timed(name string, fn func()) float64 {
	id, t0 := ld.tr.id(), nowNs()
	fn()
	t1 := nowNs()
	ld.tr.add("ladder."+name, id, ld.root, 0, t0, t1)
	return float64(t1 - t0)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (ld *ladder) nops() int { return ld.size.ops }

func (ld *ladder) key(i int) []byte { return ld.keys[i*8 : i*8+8] }

// genRung times the generator and keeps the stream it produced for the
// other rungs.
func (ld *ladder) genRung(seed uint64) {
	s := newStream(ld.w, seed)
	var buf [8]byte
	ns := ld.timed("gen", func() {
		for i := 0; i < ld.nops(); i++ {
			o := s.next()
			fillKey(buf[:], o.key)
			sink ^= uint64(buf[7])
		}
	})
	ld.out["gen.key_ns"] = ns / float64(ld.nops())

	s = newStream(ld.w, seed)
	ld.ops = make([]op, ld.nops())
	ld.keys = make([]byte, 8*ld.nops())
	for i := range ld.ops {
		ld.ops[i] = s.next()
		fillKey(ld.key(i), ld.ops[i].key)
	}
}

func (ld *ladder) hashRung() {
	ld.hashes = make([]uint64, ld.nops())
	ns := ld.timed("hashfn", func() {
		for i := range ld.hashes {
			ld.hashes[i] = hashfn.Hash(ld.key(i))
		}
	})
	ld.out["hashfn.hash_ns"] = ns / float64(ld.nops())
}

func (ld *ladder) indexRung() error {
	ix, err := hashidx.New(ld.w.indexBuckets)
	if err != nil {
		return err
	}
	var kb [8]byte
	all := make([]uint64, ld.w.keys)
	for k := range all {
		fillKey(kb[:], uint64(k))
		all[k] = hashfn.Hash(kb[:])
	}
	ns := ld.timed("hashidx.find_or_create", func() {
		for _, h := range all {
			s := ix.FindOrCreateEntry(h)
			s.CompareAndSwap(s.Load(), hashidx.PackEntry(hashidx.TagOf(h), hlog.MinAddress))
		}
	})
	ld.out["hashidx.find_or_create_ns"] = ns / float64(len(all))

	find := func(name string, hashes []uint64) float64 {
		return ld.timed(name, func() {
			for _, h := range hashes {
				if ix.FindEntry(h).Valid() {
					sink++
				}
			}
		}) / float64(len(hashes))
	}
	ld.out["hashidx.find_ns"] = find("hashidx.find", ld.hashes)
	u := rng{s: 7}
	uni := make([]uint64, ld.nops())
	for i := range uni {
		uni[i] = all[u.next()%ld.w.keys]
	}
	ld.out["hashidx.find_uniform_ns"] = find("hashidx.find_uniform", uni)
	st := ix.Stats()
	ld.out["hashidx.ovf_bucket_ratio"] = ratio(float64(st.OverflowBuckets), float64(st.MainBuckets))
	return nil
}

// logRung appends to a HybridLog with the workload's memory budget, so that
// a larger-than-memory workload pays for its flushes and evictions here too.
func (ld *ladder) logRung() error {
	val := make([]byte, 256)
	meta := hlog.NewMeta(hlog.InvalidAddress, 1, false, false)
	addrs := make([]hlog.Address, 0, ld.nops())
	// A fresh log per value size, so that each pass pays for its own flushes
	// and for nobody else's.
	for _, v := range []int{8, 100, 256} {
		err := func() error {
			em := epoch.NewManager()
			dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
			defer dev.Close()
			lg, err := hlog.New(hlog.Config{PageBits: ld.w.pageBits, MemPages: ld.w.memPages,
				MutablePages: ld.w.mutable, Device: dev, Epoch: em, LogID: "ladder"})
			if err != nil {
				return err
			}
			defer lg.Close()
			g := em.Register()
			defer g.Unregister()

			size := hlog.RecordSize(8, v)
			addrs = addrs[:0]
			var aerr error
			ns := ld.timed(fmt.Sprintf("hlog.append%d", v), func() {
				for i := 0; i < ld.nops(); i++ {
					addr, buf, err := lg.Allocate(g, size)
					if err != nil {
						aerr = err
						return
					}
					hlog.WriteRecord(buf, meta, ld.key(i), val[:v])
					addrs = append(addrs, addr)
					if i&255 == 255 {
						g.Refresh()
					}
				}
			})
			if aerr != nil {
				return aerr
			}
			ld.out[fmt.Sprintf("hlog.append%d_ns", v)] = ns / float64(ld.nops())
			if v != max(ld.w.valueBytes, 8) {
				return nil
			}
			// The workload's own value size: where its records are read.
			g.Refresh()
			live := addrs[:0]
			for _, a := range addrs {
				if lg.InMemory(a) {
					live = append(live, a)
				}
			}
			ns = ld.timed("hlog.record_at", func() {
				for i := 0; i < ld.nops(); i++ {
					sink += uint64(lg.RecordAt(live[i*7919%len(live)]).KeyLen())
				}
			})
			ld.out["hlog.record_at_ns"] = ns / float64(ld.nops())
			_, flushed, evicted, stalls := lg.Stats()
			ld.out["hlog.pages_flushed"] = float64(flushed)
			ld.out["hlog.pages_evicted"] = float64(evicted)
			ld.out["hlog.alloc_stalls"] = float64(stalls)
			return nil
		}()
		if err != nil {
			return err
		}
	}
	return nil
}

func (ld *ladder) epochRung() {
	em := epoch.NewManager()
	g := em.Register()
	ld.out["epoch.refresh_ns"] = ld.timed("epoch.refresh", func() {
		for i := 0; i < ld.nops(); i++ {
			g.Refresh()
		}
	}) / float64(ld.nops())
	g.Unregister()

	// A global cut with two other threads refreshing: the time from the
	// bump until its action runs, as migration phases and view changes pay.
	stop, exited := make(chan struct{}), make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			g := em.Register()
			defer func() { g.Unregister(); exited <- struct{}{} }()
			for {
				select {
				case <-stop:
					return
				default:
					g.Refresh()
					runtime.Gosched()
				}
			}
		}()
	}
	var drains []float64
	ld.timed("epoch.bump_drain", func() {
		for i := 0; i < ld.size.reps; i++ {
			done := make(chan struct{})
			t0 := nowNs()
			em.BumpWithAction(func() { close(done) })
			<-done
			drains = append(drains, float64(nowNs()-t0)/1e3)
		}
	})
	close(stop)
	<-exited
	<-exited
	ld.out["epoch.bump_drain_us"] = median(drains)
}

// inMemoryLog is a HybridLog budget that keeps n records of v-byte values
// mutable.
func inMemoryLog(n uint64, v int, dev storage.Device) hlog.Config {
	pages := 4
	for uint64(pages)<<20 < 2*n*uint64(hlog.RecordSize(8, v)) {
		pages *= 2
	}
	return hlog.Config{PageBits: 20, MemPages: pages, MutablePages: pages - 1, Device: dev, LogID: "ladder"}
}

// storeRung drives a faster.Session directly: the workload's key stream, in
// memory, one pass per operation kind.
func (ld *ladder) storeRung() error {
	noop := func(st faster.Status, _ []byte) {
		if st != faster.StatusOK {
			ld.errs++
		}
	}
	open := func(logCfg hlog.Config, v int) (*faster.Store, *faster.Session, error) {
		st, err := faster.NewStore(faster.Config{IndexBuckets: ld.w.indexBuckets, Log: logCfg})
		if err != nil {
			return nil, nil, err
		}
		sess := st.NewSession()
		var kb [8]byte
		val := make([]byte, v)
		for k := uint64(0); k < ld.w.keys; k++ {
			fillKey(kb[:], k)
			if v > 8 {
				fillValue(val, k)
			}
			sess.Upsert(kb[:], val, noop)
		}
		return st, sess, nil
	}
	pass := func(name string, do func(i int)) float64 {
		return ld.timed(name, func() {
			for i := 0; i < ld.nops(); i++ {
				do(i)
			}
		}) / float64(ld.nops())
	}

	dev := storage.NewMemDevice(storage.LatencyModel{}, 4)
	defer dev.Close()
	st, sess, err := open(inMemoryLog(ld.w.keys, ld.w.valueBytes, dev), ld.w.valueBytes)
	if err != nil {
		return err
	}
	m0 := mallocs()
	ld.out["faster.read_ns"] = pass("faster.read", func(i int) { sess.Read(ld.key(i), noop) })
	ld.out["faster.upsert_ns"] = pass("faster.upsert", func(i int) { sess.Upsert(ld.key(i), ld.val, noop) })
	counters := sess
	if ld.w.valueBytes != 8 {
		// RMW is a counter add: time it on 8-byte values whatever the
		// workload stores.
		cdev := storage.NewMemDevice(storage.LatencyModel{}, 4)
		defer cdev.Close()
		cst, csess, err := open(inMemoryLog(ld.w.keys, 8, cdev), 8)
		if err != nil {
			return err
		}
		defer func() { csess.Close(); cst.Close() }()
		counters = csess
		m0 = mallocs()
	}
	ld.out["faster.rmw_ns"] = pass("faster.rmw", func(i int) { counters.RMW(ld.key(i), ld.delta[:], noop) })
	passes := 3.0
	if counters != sess {
		passes = 1
	}
	ld.out["faster.allocs_per_op"] = float64(mallocs()-m0) / (passes * float64(ld.nops()))
	sess.Close()
	st.Close()

	if !ld.w.coldFile {
		return nil
	}
	// The cold half: the workload's own budget on a file; reads that miss
	// memory go through the pending pipeline and are completed in batches.
	fd, err := storage.NewFileDevice(filepath.Join(ld.dir, "ladder.dat"), storage.LatencyModel{}, 0)
	if err != nil {
		return err
	}
	defer fd.Close()
	st, sess, err = open(hlog.Config{PageBits: ld.w.pageBits, MemPages: ld.w.memPages,
		MutablePages: ld.w.mutable, Device: fd, LogID: "ladder"}, ld.w.valueBytes)
	if err != nil {
		return err
	}
	p0 := st.Stats().PendingIssued.Load()
	ns := ld.timed("faster.cold_read", func() {
		end := nowNs() + int64(ld.size.pass)
		for i := 0; nowNs() < end; i = (i + rawBatch) % (ld.nops() - rawBatch) {
			for j := i; j < i+rawBatch; j++ {
				sess.Read(ld.key(j), noop)
			}
			sess.CompletePending(true)
		}
	})
	ld.out["faster.cold_read_us"] = ratio(ns/1e3, float64(st.Stats().PendingIssued.Load()-p0))
	sess.Close()
	return st.Close()
}

// mixNs weighs three per-kind costs by the workload's op mix.
func (ld *ladder) mixNs(get, set, rmw float64) float64 {
	g, s := float64(ld.w.getPct)/100, float64(ld.w.setPct)/100
	return g*get + s*set + (1-g-s)*rmw
}

// fillBatch builds the request batch of the n ops starting at stream
// position at.
func (ld *ladder) fillBatch(b *wire.RequestBatch, vals [][]byte, at, n int, seq *uint32) {
	b.Ops = b.Ops[:0]
	for j := 0; j < n; j++ {
		i := (at + j) % ld.nops()
		o := wire.Op{Seq: *seq, Key: ld.key(i)}
		*seq++
		switch ld.ops[i].kind {
		case opGet:
			o.Kind = wire.OpRead
		case opSet:
			o.Kind = wire.OpUpsert
			fillValue(vals[j], ld.ops[i].key)
			o.Value = vals[j]
		default:
			o.Kind, o.Value = wire.OpRMW, ld.delta[:]
		}
		b.Ops = append(b.Ops, o)
	}
}

func valueBufs(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}

// wireRung times the batch codec at the batch shape the end-to-end run
// showed: its ops per batch, the workload's kinds and value sizes.
func (ld *ladder) wireRung(opsPerBatch int) error {
	opsPerBatch = max(opsPerBatch, 1)
	var (
		req, req2   wire.RequestBatch
		resp, resp2 wire.ResponseBatch
		seq         uint32
		vals        = valueBufs(opsPerBatch, ld.w.valueBytes)
	)
	ld.fillBatch(&req, vals, 0, opsPerBatch, &seq)
	for _, o := range req.Ops {
		r := wire.Result{Seq: o.Seq}
		if o.Kind == wire.OpRead {
			r.Value = ld.val
		}
		resp.Results = append(resp.Results, r)
	}
	reqBuf := wire.AppendRequestBatch(nil, &req)
	respBuf := wire.AppendResponseBatch(nil, &resp)
	iters := ld.nops() / opsPerBatch
	perOp := func(name string, fn func()) float64 {
		return ld.timed(name, func() {
			for i := 0; i < iters; i++ {
				fn()
			}
		}) / float64(iters*opsPerBatch)
	}
	var derr error
	m0 := mallocs()
	ld.out["wire.enc_req_ns"] = perOp("wire.enc_req", func() { reqBuf = wire.AppendRequestBatch(reqBuf[:0], &req) })
	ld.out["wire.dec_req_ns"] = perOp("wire.dec_req", func() {
		if err := wire.DecodeRequestBatch(reqBuf, &req2); err != nil {
			derr = err
		}
	})
	ld.out["wire.enc_resp_ns"] = perOp("wire.enc_resp", func() { respBuf = wire.AppendResponseBatch(respBuf[:0], &resp) })
	ld.out["wire.dec_resp_ns"] = perOp("wire.dec_resp", func() {
		if err := wire.DecodeResponseBatch(respBuf, &resp2); err != nil {
			derr = err
		}
	})
	ld.out["wire.allocs_per_batch"] = float64(mallocs()-m0) / float64(iters)
	ld.out["wire.req_bytes_per_op"] = float64(len(reqBuf)) / float64(opsPerBatch)
	ld.out["wire.resp_bytes_per_op"] = float64(len(respBuf)) / float64(opsPerBatch)
	return derr
}

// coreServer is a product server booted below the public API, for the raw
// rungs.
type coreServer struct {
	srv  *core.Server
	meta *metadata.Store
	dev  storage.Device
}

func (ld *ladder) bootCore(tr transport.Transport, addr string) (*coreServer, error) {
	var dev storage.Device = storage.NewMemDevice(storage.LatencyModel{}, 4)
	if ld.w.coldFile {
		fd, err := storage.NewFileDevice(filepath.Join(ld.dir, fmt.Sprintf("core-%d.dat", ld.tr.id())), storage.LatencyModel{}, 0)
		if err != nil {
			return nil, err
		}
		dev = fd
	}
	meta := metadata.NewStore()
	srv, err := core.NewServer(core.ServerConfig{
		ID: "s1", Addr: addr, Threads: 1, Transport: tr, Meta: meta,
		Store: faster.Config{IndexBuckets: ld.w.indexBuckets, Log: hlog.Config{
			PageBits: ld.w.pageBits, MemPages: ld.w.memPages, MutablePages: ld.w.mutable, Device: dev, LogID: "s1"}},
	}, metadata.FullRange)
	if err != nil {
		dev.Close()
		return nil, err
	}
	meta.SetServerAddr("s1", srv.Addr())
	return &coreServer{srv, meta, dev}, nil
}

func (c *coreServer) close() {
	c.srv.Close()
	c.dev.Close()
}

// rawDriver speaks wire frames to a server over one connection, as
// internal/bench's hot-path harness does, reusing every buffer.
type rawDriver struct {
	ld   *ladder
	conn transport.Conn
	// block waits for frames in Recv, not by spinning on TryRecv. Over TCP a
	// spinning driver and the spinning dispatcher keep both Ps busy, and the
	// Go scheduler then looks at the network only every few milliseconds;
	// over the in-memory transport spinning is what internal/bench does.
	block bool
	view  uint64
	seq   uint32
	at    int // position in the op stream
	req   wire.RequestBatch
	resp  wire.ResponseBatch
	buf   []byte
	vals  [][]byte
}

func (ld *ladder) dialRaw(tr transport.Transport, c *coreServer, block bool) (*rawDriver, error) {
	conn, err := tr.Dial(c.srv.Addr())
	if err != nil {
		return nil, err
	}
	d := &rawDriver{ld: ld, conn: conn, block: block, view: c.srv.CurrentView().Number, vals: valueBufs(rawBatch, ld.w.valueBytes)}
	d.req.SessionID = 0xbe7c4
	return d, nil
}

func (d *rawDriver) sendBatch() error {
	d.req.View = d.view
	d.buf = wire.AppendRequestBatch(d.buf[:0], &d.req)
	return d.conn.Send(d.buf)
}

// send issues the next n ops of the stream as one batch.
func (d *rawDriver) send(n int) error {
	d.ld.fillBatch(&d.req, d.vals, d.at, n, &d.seq)
	d.at = (d.at + n) % d.ld.nops()
	return d.sendBatch()
}

// recv spins for the next response frame and returns how many results it
// carried.
func (d *rawDriver) recv() (int, error) {
	for {
		var (
			frame []byte
			err   error
			ok    = true
		)
		if d.block {
			frame, err = d.conn.Recv()
		} else {
			frame, ok, err = d.conn.TryRecv()
		}
		if err != nil {
			return 0, err
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		if err := wire.DecodeResponseBatch(frame, &d.resp); err != nil {
			return 0, err
		}
		if d.resp.Rejected || d.resp.Shed {
			return 0, fmt.Errorf("raw driver: batch refused (server view %d, ours %d)", d.resp.ServerView, d.view)
		}
		for i := range d.resp.Results {
			if d.resp.Results[i].Status != wire.StatusOK {
				d.ld.errs++
			}
		}
		return len(d.resp.Results), nil
	}
}

func (d *rawDriver) await(n int) error {
	for n > 0 {
		got, err := d.recv()
		if err != nil {
			return err
		}
		n -= got
	}
	return nil
}

// preload upserts every key, a batch at a time.
func (d *rawDriver) preload() error {
	var kb [rawBatch][8]byte
	for k := uint64(0); k < d.ld.w.keys; k += rawBatch {
		d.req.Ops = d.req.Ops[:0]
		for j := uint64(0); j < rawBatch && k+j < d.ld.w.keys; j++ {
			fillKey(kb[j][:], k+j)
			if d.ld.w.valueBytes > 8 {
				fillValue(d.vals[j], k+j)
			}
			d.req.Ops = append(d.req.Ops, wire.Op{Kind: wire.OpUpsert, Seq: d.seq, Key: kb[j][:], Value: d.vals[j]})
			d.seq++
		}
		if err := d.sendBatch(); err != nil {
			return err
		}
		if err := d.await(len(d.req.Ops)); err != nil {
			return err
		}
	}
	if d.ld.w.valueBytes == 8 {
		for _, v := range d.vals {
			clear(v)
		}
	}
	return nil
}

// rtt is the median time from sending one batch of n ops to its last
// result, one batch at a time, idle sleeping between batches.
func (d *rawDriver) rtt(name string, n int, idle time.Duration) (float64, error) {
	var xs []float64
	var rerr error
	d.ld.timed(name, func() {
		for i := 0; i < d.ld.size.reps; i++ {
			sleepUntil(nowNs() + int64(idle))
			t0 := nowNs()
			if rerr = d.send(n); rerr != nil {
				return
			}
			if rerr = d.await(n); rerr != nil {
				return
			}
			xs = append(xs, float64(nowNs()-t0)/1e3)
		}
	})
	return median(xs), rerr
}

// pipelined keeps depth batches in flight for ld.size.pass and returns ns per
// op: the closed loop of the end-to-end run, without the client library.
func (d *rawDriver) pipelined(name string, depth int) (float64, error) {
	var done int
	var rerr error
	ns := d.ld.timed(name, func() {
		end := nowNs() + int64(d.ld.size.pass)
		inflight := 0
		for nowNs() < end {
			for inflight < depth*rawBatch {
				if rerr = d.send(rawBatch); rerr != nil {
					return
				}
				inflight += rawBatch
			}
			got, err := d.recv()
			if rerr = err; err != nil {
				return
			}
			inflight -= got
			done += got
		}
		rerr = d.await(inflight)
		done += inflight
	})
	return ns / float64(max(done, 1)), rerr
}

// rawRungs drives a server over tr with the raw-wire driver and returns the
// closed-loop cost per op.
func (ld *ladder) rawRungs(prefix string, tr transport.Transport, addr string, inMem bool) (*coreServer, float64, error) {
	c, err := ld.bootCore(tr, addr)
	if err != nil {
		return nil, 0, err
	}
	d, err := ld.dialRaw(tr, c, !inMem)
	if err == nil {
		defer d.conn.Close()
		err = d.preload()
	}
	if err == nil && inMem {
		if ld.out["core.batch256_rtt_us"], err = d.rtt("core.batch256_rtt", rawBatch, 0); err == nil {
			// Two idle milliseconds before each single op, as between the
			// paced workload's ticks: the dispatcher has gone to sleep.
			ld.out["core.batch1_rtt_us"], err = d.rtt("core.batch1_rtt", 1, 2*time.Millisecond)
		}
	}
	var ns float64
	if err == nil {
		ns, err = d.pipelined(prefix+".raw", max(ld.w.ring, rawBatch)/rawBatch)
	}
	if err != nil {
		c.close()
		return nil, 0, err
	}
	return c, ns, nil
}

// echoRTT is one small frame to a benchmark-owned echo listener and back:
// what the socket and the transport's reader goroutines cost with no
// server behind them.
func (ld *ladder) echoRTT(tr transport.Transport) (float64, error) {
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := c.Recv()
			if err != nil || c.Send(f) != nil {
				return
			}
		}
	}()
	conn, err := tr.Dial(l.Addr())
	if err != nil {
		l.Close()
		<-echoed
		return 0, err
	}
	var xs []float64
	frame := make([]byte, echoBytes)
	ld.timed("transport.echo", func() {
		for i := 0; i < ld.size.reps && err == nil; i++ {
			t0 := nowNs()
			if err = conn.Send(frame); err == nil {
				_, err = conn.Recv()
			}
			xs = append(xs, float64(nowNs()-t0)/1e3)
		}
	})
	conn.Close()
	l.Close()
	<-echoed
	return median(xs), err
}

// clientRung runs the closed loop on a client.Thread with callbacks: the
// library under the public API, polled by the issuing goroutine itself.
func (ld *ladder) clientRung(tr transport.Transport, c *coreServer) error {
	th, err := client.NewThread(client.Config{Transport: tr, Meta: c.meta})
	if err != nil {
		return err
	}
	defer th.Close()
	cb := func(st wire.ResultStatus, _ []byte) {
		if st != wire.StatusOK {
			ld.errs++
		}
	}
	ring := max(ld.w.ring, rawBatch)
	var issueNs, issued, pollNs int64
	var ierr error
	ns := ld.timed("client.thread", func() {
		end := nowNs() + int64(ld.size.pass)
		for i := 0; ; i++ {
			for th.Outstanding() >= ring {
				t0 := nowNs()
				n := th.Poll()
				pollNs += nowNs() - t0
				if n == 0 {
					// Sleep in the kernel, not in a Gosched spin: with the
					// dispatcher spinning too, both Ps would stay busy and
					// the scheduler would leave the sockets unread.
					sleepUntil(nowNs() + int64(50*time.Microsecond))
				}
			}
			// Every 17th call is timed: a stride coprime with the batch
			// size, so the calls that fill and send a batch are sampled
			// in proportion.
			var t0 int64
			if i%17 == 0 {
				if t0 = nowNs(); t0 >= end {
					break
				}
			}
			j := i % ld.nops()
			switch ld.ops[j].kind {
			case opGet:
				ierr = th.Read(ld.key(j), cb)
			case opSet:
				fillValue(ld.val, ld.ops[j].key)
				ierr = th.Upsert(ld.key(j), ld.val, cb)
			default:
				ierr = th.RMW(ld.key(j), ld.delta[:], cb)
			}
			if ierr != nil {
				return
			}
			issued++
			if t0 != 0 {
				issueNs += 17 * (nowNs() - t0)
			}
		}
		if !th.Drain(30 * time.Second) {
			ierr = fmt.Errorf("client rung: %d ops still outstanding", th.Outstanding())
		}
	})
	if ierr != nil {
		return ierr
	}
	n := float64(max(issued, 1))
	ld.out["client.thread_ns_per_op"] = ns / n
	ld.out["client.issue_ns"] = float64(issueNs) / n
	ld.out["client.poll_ns"] = float64(pollNs) / n
	return nil
}

// tracedRun is the -trace 1 run of one workload: the undecorated end-to-end
// run (the ladder's top rung), the rungs below it, then the end-to-end run
// again under the timing decorators.
func tracedRun(w *workload, seed uint64, dur time.Duration, outDir string, size ladderSize) (*outcome, error) {
	tr := newTracer()
	ld := &ladder{size: size, w: w, tr: tr, root: tr.id(), out: map[string]float64{}, val: make([]byte, w.valueBytes)}
	ld.delta[0] = 1
	t0 := nowNs()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "ladder-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ld.dir = dir
	ld.out["env.sleep50us_us"] = sleep50us()

	// The top rung first: the codec rung needs the batch shape it shows.
	var syncRTT []float64
	top, err := measure(w, seed, dur, outDir, nil, func(r *rig) {
		var kb [8]byte
		for i := 0; i < ld.size.reps; i++ {
			fillKey(kb[:], uint64(i)*7919%w.keys)
			t := nowNs()
			if _, err := r.client.Get(context.Background(), kb[:]); err != nil {
				ld.errs++
			}
			syncRTT = append(syncRTT, float64(nowNs()-t)/1e3)
		}
	})
	if err != nil {
		return nil, err
	}
	tr.add("ladder.shadowfax", tr.id(), ld.root, 0, top.m.start, top.m.start+int64(dur))

	ld.genRung(seed)
	ld.hashRung()
	if err := ld.indexRung(); err != nil {
		return nil, err
	}
	if err := ld.logRung(); err != nil {
		return nil, err
	}
	ld.epochRung()
	if err := ld.storeRung(); err != nil {
		return nil, err
	}
	if err := ld.wireRung(int(top.layer["client.ops_per_batch"] + 0.5)); err != nil {
		return nil, err
	}
	c, coreNs, err := ld.rawRungs("core", transport.NewInMem(transport.Free), "ladder-core", true)
	if err != nil {
		return nil, err
	}
	c.close()
	tcp := transport.NewTCP(transport.Free)
	c, tcpNs, err := ld.rawRungs("transport", tcp, "127.0.0.1:0", false)
	if err != nil {
		return nil, err
	}
	err = ld.clientRung(tcp, c)
	c.close()
	if err != nil {
		return nil, err
	}
	if ld.out["transport.echo_rtt_us"], err = ld.echoRTT(tcp); err != nil {
		return nil, err
	}

	// The same end-to-end run under the decorators.
	dec, err := measure(w, seed, dur, outDir, tr, nil)
	if err != nil {
		return nil, err
	}
	tr.add("ladder", ld.root, 0, 0, t0, nowNs())

	o := top
	o.attempted += dec.attempted
	o.failed += dec.failed + ld.errs
	o.mismatches += dec.mismatches
	if o.firstErr == nil {
		o.firstErr = dec.firstErr
	}
	l := o.layer
	for k, v := range ld.out {
		l[k] = v
	}
	for k, v := range dec.layer {
		if _, ok := l[k]; !ok {
			l[k] = v // decorator metrics; the counts stay the undecorated run's
		}
	}
	ld.derive(o, dec, coreNs, tcpNs, median(syncRTT))
	if tr.dropped > 0 {
		o.notes = append(o.notes, fmt.Sprintf("trace kept %d spans and dropped %d", len(tr.spans), tr.dropped))
	}
	path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	o.notes = append(o.notes, "spans written to "+path)
	printSelfTimes(tr)
	return o, nil
}

// derive closes the ladder: the rungs' differences and how they add up to
// the end-to-end cost per op.
func (ld *ladder) derive(o, dec *outcome, coreNs, tcpNs, syncRTT float64) {
	l := o.layer
	// What an op costs end to end: the inverse of throughput in a closed
	// loop at saturation; in an open loop, whose rate is the schedule's, the
	// CPU it took.
	api := 1e9 / o.e2e["tput_ops_s"]
	if o.w.ring == 0 {
		api = l["shadowfax.cpu_ns_per_op"]
	}
	store := ld.mixNs(l["faster.read_ns"], l["faster.upsert_ns"], l["faster.rmw_ns"])
	codec := l["wire.enc_req_ns"] + l["wire.dec_req_ns"] + l["wire.enc_resp_ns"] + l["wire.dec_resp_ns"]
	l["core.raw_ns_per_op"] = coreNs
	l["transport.raw_ns_per_op"] = tcpNs
	l["core.dispatch_ns_per_op"] = l["core.batch256_rtt_us"]*1e3/rawBatch - store - codec
	l["shadowfax.api_ns_per_op"] = api
	l["shadowfax.api_tax_ns"] = api - l["client.thread_ns_per_op"]
	l["shadowfax.sync_get_rtt_us"] = syncRTT
	l["faster.e2e_ratio"] = store / api // = end-to-end rate over the store's own rate
	l["trace.overhead_ratio"] = ratio(dec.e2e["tput_ops_s"], o.e2e["tput_ops_s"])
	if o.w.ring == 0 { // open loop: both runs hold the schedule; compare what the schedule cost
		l["trace.overhead_ratio"] = ratio(l["shadowfax.cpu_ns_per_op"], dec.layer["shadowfax.cpu_ns_per_op"])
	}
	sum := store + codec + l["core.dispatch_ns_per_op"] + (tcpNs - coreNs) +
		(l["client.thread_ns_per_op"] - tcpNs) + l["shadowfax.api_tax_ns"]
	l["ladder.closure_ratio"] = sum / api

	fmt.Printf("   ladder (ns per op, each rung contains those above it)\n")
	rung := func(name string, cum, prev float64) {
		fmt.Printf("   %-44s %10.1f   %+.1f\n", name, cum, cum-prev)
	}
	rung("faster: session direct, the workload's mix", store, 0)
	rung("wire: + request and response codec", store+codec, store)
	rung("core: raw-wire driver, in-memory transport", coreNs, store+codec)
	rung("transport: same driver, TCP loopback", tcpNs, coreNs)
	rung("client: client.Thread, callbacks", l["client.thread_ns_per_op"], tcpNs)
	rung("shadowfax: public futures, end to end", api, l["client.thread_ns_per_op"])
	fmt.Printf("   beside latency: shadowfax.lat_p50_us %.0f, transport.echo_rtt_us %.0f, core.batch1_rtt_us %.0f, shadowfax.sync_get_rtt_us %.0f, env.sleep50us_us %.0f\n",
		l["shadowfax.lat_p50_us"], l["transport.echo_rtt_us"], l["core.batch1_rtt_us"], syncRTT, l["env.sleep50us_us"])
}

// printSelfTimes prints, per span name, the total and the self time.
func printSelfTimes(tr *tracer) {
	st := selfTimes(tr.spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("   spans: %-28s %9s %14s %14s\n", "name", "count", "total ms", "self ms")
	for _, n := range names {
		s := st[n]
		fmt.Printf("          %-28s %9d %14.2f %14.2f\n", n, s.count, float64(s.total)/1e6, float64(s.selfNs)/1e6)
	}
}
