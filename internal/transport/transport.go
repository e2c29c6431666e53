// Package transport provides the message transports under Shadowfax's
// sessions (§3.1.2). The TCP transport is real net.Listen/net.Dial TCP with
// length-prefixed frames; the in-process transport is a pair of channels for
// single-binary clusters and tests. Neither models a network: a frame costs
// what the host charges for it.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Errors.
var (
	ErrClosed = errors.New("transport: closed")
	// ErrAwaitTimeout is AwaitFrame's error once its deadline has passed.
	ErrAwaitTimeout = errors.New("transport: timed out awaiting frame")
)

// Conn is a message-oriented view of a connection. TryRecv never blocks
// (server dispatch loops poll with it).
type Conn interface {
	Send(frame []byte) error
	Recv() ([]byte, error)
	TryRecv() ([]byte, bool, error)
	Close() error
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// Transport creates listeners and outbound connections.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(addr string) (Conn, error)
}

// BatchedSender is an optional Conn extension for send coalescing:
// SendNoFlush enqueues a frame into a per-connection write buffer and Flush
// pushes the whole buffer to the wire in a single write. Server dispatch
// loops use it so every response produced in one poll iteration costs one
// syscall per connection instead of one per frame. Send remains valid on
// such conns and flushes any buffered frames first (frame order is
// preserved). The in-process transport does not implement it — a channel
// send has no per-call kernel cost to amortize.
type BatchedSender interface {
	SendNoFlush(frame []byte) error
	Flush() error
}

// awaitPoll is how long AwaitFrame sleeps after an empty poll.
const awaitPoll = 100 * time.Microsecond

// AwaitFrame is the one way to wait on a single connection for a reply: it
// polls conn until a frame whose first byte — its wire type — is want
// arrives, and returns that frame; frames of any other type are discarded.
// It gives up with the connection's error, with ErrAwaitTimeout once
// deadline has passed (the zero deadline never does), or with the first
// non-nil error cancelled returns (nil: not cancellable). Loops that serve
// many connections at once poll them directly.
func AwaitFrame(conn Conn, want byte, deadline time.Time, cancelled func() error) ([]byte, error) {
	for {
		frame, ok, err := conn.TryRecv()
		if err != nil {
			return nil, err
		}
		if ok {
			if len(frame) > 0 && frame[0] == want {
				return frame, nil
			}
			continue
		}
		if cancelled != nil {
			if err := cancelled(); err != nil {
				return nil, err
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrAwaitTimeout
		}
		time.Sleep(awaitPoll)
	}
}

// CostModel has no fields: the transports charge nothing beyond the work
// they do. The frozen benchmark/ pins it as the constructors' parameter; the
// next [benchmark] PR may drop it.
type CostModel struct{}

// Free is the only CostModel.
var Free CostModel

// Stats counts transport traffic.
type Stats struct {
	FramesSent, FramesRecv atomic.Uint64
	BytesSent, BytesRecv   atomic.Uint64
}

// ---------------------------------------------------------------------------
// In-process transport

// InMem is a registry-based in-process Transport; addresses are arbitrary
// strings. Useful for single-binary experiments and tests.
type InMem struct {
	Depth int // per-direction queue depth (default 256)

	mu        sync.Mutex
	listeners map[string]*inMemListener
	stats     Stats
}

// NewInMem creates an in-process transport.
func NewInMem(CostModel) *InMem {
	return &InMem{Depth: 256, listeners: make(map[string]*inMemListener)}
}

// Stats returns traffic counters.
func (t *InMem) Stats() *Stats { return &t.stats }

type inMemListener struct {
	t      *InMem
	addr   string
	accept chan *inMemConn
	closed atomic.Bool
}

type inMemConn struct {
	t      *InMem
	in     chan []byte
	out    chan []byte
	closed atomic.Bool
	peer   *inMemConn
}

// Listen implements Transport.
func (t *InMem) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.listeners[addr]; dup {
		return nil, fmt.Errorf("transport: address %q in use", addr)
	}
	l := &inMemListener{t: t, addr: addr, accept: make(chan *inMemConn, 64)}
	t.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (t *InMem) Dial(addr string) (Conn, error) {
	a2b := make(chan []byte, t.Depth)
	b2a := make(chan []byte, t.Depth)
	client := &inMemConn{t: t, in: b2a, out: a2b}
	server := &inMemConn{t: t, in: a2b, out: b2a}
	client.peer, server.peer = server, client
	// The accept send must happen under t.mu: Close closes l.accept under
	// the same lock, so a dial that passed the closed check cannot race a
	// concurrent close of the channel. The send is non-blocking.
	t.mu.Lock()
	defer t.mu.Unlock()
	l, ok := t.listeners[addr]
	if !ok || l.closed.Load() {
		return nil, fmt.Errorf("transport: no listener at %q", addr)
	}
	select {
	case l.accept <- server:
		return client, nil
	default:
		return nil, fmt.Errorf("transport: accept queue full at %q", addr)
	}
}

func (l *inMemListener) Accept() (Conn, error) {
	c, ok := <-l.accept
	if !ok {
		return nil, ErrClosed
	}
	return c, nil
}

func (l *inMemListener) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	l.t.mu.Lock()
	delete(l.t.listeners, l.addr)
	close(l.accept)
	l.t.mu.Unlock()
	return nil
}

func (l *inMemListener) Addr() string { return l.addr }

func (c *inMemConn) Send(frame []byte) error {
	if c.closed.Load() || c.peer.closed.Load() {
		return ErrClosed
	}
	// Copy: the caller reuses its buffer.
	msg := append([]byte(nil), frame...)
	select {
	case c.out <- msg:
		c.t.stats.FramesSent.Add(1)
		c.t.stats.BytesSent.Add(uint64(len(frame)))
		return nil
	default:
	}
	// Queue full: block (flow control), but fail fast if the peer dies.
	for {
		select {
		case c.out <- msg:
			c.t.stats.FramesSent.Add(1)
			c.t.stats.BytesSent.Add(uint64(len(frame)))
			return nil
		case <-time.After(5 * time.Millisecond):
			if c.closed.Load() || c.peer.closed.Load() {
				return ErrClosed
			}
		}
	}
}

func (c *inMemConn) Recv() ([]byte, error) {
	for {
		select {
		case msg, ok := <-c.in:
			if !ok {
				return nil, ErrClosed
			}
			c.t.stats.FramesRecv.Add(1)
			c.t.stats.BytesRecv.Add(uint64(len(msg)))
			return msg, nil
		case <-time.After(5 * time.Millisecond):
			if c.closed.Load() || c.peer.closed.Load() {
				return nil, ErrClosed
			}
		}
	}
}

func (c *inMemConn) TryRecv() ([]byte, bool, error) {
	if c.closed.Load() {
		return nil, false, ErrClosed
	}
	select {
	case msg, ok := <-c.in:
		if !ok {
			return nil, false, ErrClosed
		}
		c.t.stats.FramesRecv.Add(1)
		c.t.stats.BytesRecv.Add(uint64(len(msg)))
		return msg, true, nil
	default:
		// Like a TCP read returning EOF: a dead peer surfaces as an error,
		// but only after every already-delivered frame has been consumed.
		if c.peer.closed.Load() {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
}

func (c *inMemConn) Close() error {
	c.closed.Store(true)
	return nil
}

// ---------------------------------------------------------------------------
// TCP transport

// TCP is a Transport over real kernel TCP with 4-byte length-prefixed
// frames. Each connection runs a reader goroutine feeding a frame queue so
// dispatch loops can poll without syscalls.
type TCP struct {
	Depth int

	stats Stats
}

// NewTCP creates a TCP transport.
func NewTCP(CostModel) *TCP {
	return &TCP{Depth: 256}
}

// Stats returns traffic counters.
func (t *TCP) Stats() *Stats { return &t.stats }

type tcpListener struct {
	t *TCP
	l net.Listener
}

type tcpConn struct {
	t       *TCP
	c       net.Conn
	wmu     sync.Mutex
	wbuf    []byte // length-prefixed frames awaiting one writev-style flush
	wframes uint64 // frames in wbuf (stats are counted on successful flush)
	wbytes  uint64 // payload bytes in wbuf
	frames  chan []byte
	rerr    atomic.Value // error
	closed  atomic.Bool
}

const (
	// tcpCoalesceBytes caps the per-conn send buffer: SendNoFlush flushes
	// eagerly past this point so a long poll iteration cannot buffer
	// unbounded response bytes.
	tcpCoalesceBytes = 256 << 10
	// tcpSendBufKeep is the largest buffer capacity retained across
	// flushes (a single huge migration frame should not pin its footprint
	// on the conn forever).
	tcpSendBufKeep = 1 << 20
)

// Listen implements Transport.
func (t *TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{t: t, l: l}, nil
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return t.wrap(c), nil
}

func (t *TCP) wrap(c net.Conn) *tcpConn {
	tc := &tcpConn{t: t, c: c, frames: make(chan []byte, t.Depth)}
	go tc.readLoop()
	return tc
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return l.t.wrap(c), nil
}

func (l *tcpListener) Close() error { return l.l.Close() }

func (l *tcpListener) Addr() string { return l.l.Addr().String() }

func (c *tcpConn) readLoop() {
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(c.c, lenBuf[:]); err != nil {
			c.rerr.Store(err)
			close(c.frames)
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > 64<<20 {
			c.rerr.Store(fmt.Errorf("transport: oversized frame %d", n))
			close(c.frames)
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(c.c, buf); err != nil {
			c.rerr.Store(err)
			close(c.frames)
			return
		}
		c.frames <- buf
	}
}

// Send writes one frame. The length prefix and payload go out in a single
// Write (one syscall), together with any frames buffered by SendNoFlush —
// ordering between buffered and direct sends on one conn is preserved.
func (c *tcpConn) Send(frame []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.appendFrameLocked(frame)
	return c.flushLocked()
}

// SendNoFlush implements BatchedSender: the frame is queued on the conn's
// write buffer and hits the wire at the next Flush (or when the buffer
// exceeds tcpCoalesceBytes).
func (c *tcpConn) SendNoFlush(frame []byte) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.appendFrameLocked(frame)
	if len(c.wbuf) >= tcpCoalesceBytes {
		return c.flushLocked()
	}
	return nil
}

// Flush implements BatchedSender: buffered frames go out in one write.
func (c *tcpConn) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *tcpConn) appendFrameLocked(frame []byte) {
	c.wbuf = binary.LittleEndian.AppendUint32(c.wbuf, uint32(len(frame)))
	c.wbuf = append(c.wbuf, frame...)
	c.wframes++
	c.wbytes += uint64(len(frame))
}

func (c *tcpConn) flushLocked() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.c.Write(c.wbuf)
	if err == nil {
		// Stats count frames that actually reached the wire; a failed
		// flush drops its frames from buffer and counters alike.
		c.t.stats.FramesSent.Add(c.wframes)
		c.t.stats.BytesSent.Add(c.wbytes)
	}
	c.wframes, c.wbytes = 0, 0
	if cap(c.wbuf) > tcpSendBufKeep {
		c.wbuf = nil
	} else {
		c.wbuf = c.wbuf[:0]
	}
	return err
}

func (c *tcpConn) Recv() ([]byte, error) {
	msg, ok := <-c.frames
	if !ok {
		return nil, c.readErr()
	}
	c.t.stats.FramesRecv.Add(1)
	c.t.stats.BytesRecv.Add(uint64(len(msg)))
	return msg, nil
}

func (c *tcpConn) TryRecv() ([]byte, bool, error) {
	select {
	case msg, ok := <-c.frames:
		if !ok {
			return nil, false, c.readErr()
		}
		c.t.stats.FramesRecv.Add(1)
		c.t.stats.BytesRecv.Add(uint64(len(msg)))
		return msg, true, nil
	default:
		return nil, false, nil
	}
}

func (c *tcpConn) readErr() error {
	if err, ok := c.rerr.Load().(error); ok {
		return err
	}
	return ErrClosed
}

func (c *tcpConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.c.Close()
}
