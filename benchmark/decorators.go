package main

// Timing decorators around the product's two pluggable boundaries: the
// transport (WithTransport) and the log device (WithLogDevice). They are
// installed only under -trace, and they forward every optional hook the
// product type-asserts for, so that wrapping changes what is measured and
// not what runs: transport.BatchedSender on connections, and
// storage.BatchReader and storage.Truncator on the device.

import (
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/transport"
)

// Spans are kept for one transport call in frameSpanEvery and one device read
// in readSpanEvery, evenly through the run; every call is counted and timed.
const (
	frameSpanEvery = 8
	readSpanEvery  = 32
)

// connStats counts one side's (client or server) connection traffic.
type connStats struct {
	sendNs             atomic.Int64 // time inside Send, SendNoFlush and Flush
	frames, bytes      atomic.Int64 // frames and payload bytes handed to the transport
	polls, emptyPolls  atomic.Int64 // TryRecv calls, and those that returned nothing
	recvFrames, recvNs atomic.Int64 // frames received and the time of the calls that returned them
}

// connCounts is a reading of connStats.
type connCounts struct {
	sendNs, frames, bytes, polls, emptyPolls, recvFrames, recvNs int64
}

func (s *connStats) counts() connCounts {
	return connCounts{s.sendNs.Load(), s.frames.Load(), s.bytes.Load(), s.polls.Load(),
		s.emptyPolls.Load(), s.recvFrames.Load(), s.recvNs.Load()}
}

func (a connCounts) plus(b connCounts) connCounts {
	return connCounts{a.sendNs + b.sendNs, a.frames + b.frames, a.bytes + b.bytes, a.polls + b.polls,
		a.emptyPolls + b.emptyPolls, a.recvFrames + b.recvFrames, a.recvNs + b.recvNs}
}

func (a connCounts) minus(b connCounts) connCounts {
	return connCounts{a.sendNs - b.sendNs, a.frames - b.frames, a.bytes - b.bytes, a.polls - b.polls,
		a.emptyPolls - b.emptyPolls, a.recvFrames - b.recvFrames, a.recvNs - b.recvNs}
}

// timedTransport wraps a TCP transport.
type timedTransport struct {
	inner          transport.Transport
	tr             *tracer
	client, server connStats
}

func newTimedTransport(tr *tracer) *timedTransport {
	return &timedTransport{inner: transport.NewTCP(transport.Free), tr: tr}
}

func (t *timedTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &timedListener{l, t}, nil
}

func (t *timedTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return wrapConn(c, t.tr, &t.client, true), nil
}

type timedListener struct {
	transport.Listener
	t *timedTransport
}

func (l *timedListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wrapConn(c, l.t.tr, &l.t.server, false), nil
}

// timedConn times a connection that has no optional hooks.
type timedConn struct {
	inner  transport.Conn
	tr     *tracer
	st     *connStats
	dialed bool // client side: spans are parented to the benchmark call in progress
	name   [2]string
}

// timedBatchConn adds the BatchedSender hook for connections that have it.
type timedBatchConn struct {
	timedConn
	bs transport.BatchedSender
}

// wrapConn decorates c, keeping exactly the optional interfaces c has.
func wrapConn(c transport.Conn, tr *tracer, st *connStats, dialed bool) transport.Conn {
	tc := timedConn{inner: c, tr: tr, st: st, dialed: dialed,
		name: [2]string{"transport.server_send", "transport.server_recv"}}
	if dialed {
		tc.name = [2]string{"transport.client_send", "transport.client_recv"}
	}
	if bs, ok := c.(transport.BatchedSender); ok {
		return &timedBatchConn{tc, bs}
	}
	return &tc
}

func (c *timedConn) parent() uint64 {
	if c.dialed {
		return c.tr.cur.Load()
	}
	return 0
}

func (c *timedConn) sent(t0 int64, frames, bytes int) {
	t1 := nowNs()
	c.st.sendNs.Add(t1 - t0)
	n := c.st.frames.Add(int64(frames))
	c.st.bytes.Add(int64(bytes))
	if n%frameSpanEvery == 0 {
		c.tr.add(c.name[0], c.tr.id(), c.parent(), uint64(n), t0, t1)
	}
}

func (c *timedConn) received(t0 int64) {
	t1 := nowNs()
	c.st.recvNs.Add(t1 - t0)
	if n := c.st.recvFrames.Add(1); n%frameSpanEvery == 0 {
		c.tr.add(c.name[1], c.tr.id(), c.parent(), uint64(n), t0, t1)
	}
}

func (c *timedConn) Send(frame []byte) error {
	t0 := nowNs()
	err := c.inner.Send(frame)
	c.sent(t0, 1, len(frame))
	return err
}

func (c *timedConn) Recv() ([]byte, error) {
	t0 := nowNs()
	f, err := c.inner.Recv()
	if err == nil {
		c.received(t0)
	}
	return f, err
}

func (c *timedConn) TryRecv() ([]byte, bool, error) {
	t0 := nowNs()
	f, ok, err := c.inner.TryRecv()
	c.st.polls.Add(1)
	if ok {
		c.received(t0)
	} else {
		c.st.emptyPolls.Add(1)
	}
	return f, ok, err
}

func (c *timedConn) Close() error { return c.inner.Close() }

func (c *timedBatchConn) SendNoFlush(frame []byte) error {
	t0 := nowNs()
	err := c.bs.SendNoFlush(frame)
	c.sent(t0, 1, len(frame))
	return err
}

func (c *timedBatchConn) Flush() error {
	t0 := nowNs()
	err := c.bs.Flush()
	c.sent(t0, 0, 0)
	return err
}

// fullDevice is a device with both optional hooks, as FileDevice has.
type fullDevice interface {
	storage.Device
	storage.BatchReader
	storage.Truncator
}

// timedDevice times a log device from submission to completion callback.
type timedDevice struct {
	inner fullDevice
	tr    *tracer

	mu     sync.Mutex
	readNs []int64 // one per completed read
}

// reads is how many reads have completed.
func (d *timedDevice) reads() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.readNs)
}

// readsSince copies the durations of reads from the lo-th to the hi-th.
func (d *timedDevice) readsSince(lo, hi int) []int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int64(nil), d.readNs[lo:hi]...)
}

func newTimedDevice(inner fullDevice, tr *tracer) *timedDevice {
	return &timedDevice{inner: inner, tr: tr}
}

func (d *timedDevice) WriteAt(p []byte, off uint64, done func(error)) {
	t0, id := nowNs(), d.tr.id()
	d.inner.WriteAt(p, off, func(err error) {
		d.tr.add("storage.write", id, 0, id, t0, nowNs())
		done(err)
	})
}

func (d *timedDevice) readDone(t0 int64, id, parent uint64) {
	t1 := nowNs()
	d.mu.Lock()
	d.readNs = append(d.readNs, t1-t0)
	n := len(d.readNs)
	d.mu.Unlock()
	if n%readSpanEvery == 0 {
		d.tr.add("storage.read", id, parent, parent, t0, t1)
	}
}

func (d *timedDevice) ReadAt(p []byte, off uint64, done func(error)) {
	t0, id := nowNs(), d.tr.id()
	d.inner.ReadAt(p, off, func(err error) {
		d.readDone(t0, id, 0)
		done(err)
	})
}

func (d *timedDevice) ReadBatch(reqs []storage.ReadReq, done func(int, error)) {
	t0, id := nowNs(), d.tr.id()
	var left atomic.Int64
	left.Store(int64(len(reqs)))
	d.inner.ReadBatch(reqs, func(i int, err error) {
		d.readDone(t0, d.tr.id(), id)
		if left.Add(-1) == 0 {
			d.tr.add("storage.read_batch", id, 0, id, t0, nowNs())
		}
		done(i, err)
	})
}

func (d *timedDevice) TruncateBefore(off uint64) (uint64, error) { return d.inner.TruncateBefore(off) }
func (d *timedDevice) Stats() storage.DeviceStats                { return d.inner.Stats() }
func (d *timedDevice) Close() error                              { return d.inner.Close() }
