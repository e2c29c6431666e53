package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func transports(t *testing.T) map[string]Transport {
	return map[string]Transport{
		"inmem": NewInMem(Free),
		"tcp":   NewTCP(Free),
	}
}

func addrFor(name string, i int) string {
	if name == "tcp" {
		return "127.0.0.1:0"
	}
	return fmt.Sprintf("srv-%d", i)
}

func TestSendRecvRoundTrip(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			l, err := tr.Listen(addrFor(name, 1))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			done := make(chan error, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				for i := 0; i < 10; i++ {
					msg, err := c.Recv()
					if err != nil {
						done <- err
						return
					}
					if err := c.Send(append([]byte("echo:"), msg...)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			c, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 10; i++ {
				msg := []byte(fmt.Sprintf("frame-%d", i))
				if err := c.Send(msg); err != nil {
					t.Fatal(err)
				}
				got, err := c.Recv()
				if err != nil {
					t.Fatal(err)
				}
				want := append([]byte("echo:"), msg...)
				if !bytes.Equal(got, want) {
					t.Fatalf("got %q want %q", got, want)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTryRecvNonBlocking(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			l, err := tr.Listen(addrFor(name, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			connCh := make(chan Conn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					connCh <- c
				}
			}()
			c, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			server := <-connCh
			defer server.Close()

			// Empty: TryRecv returns immediately with ok=false.
			start := time.Now()
			if _, ok, err := server.TryRecv(); ok || err != nil {
				t.Fatalf("TryRecv on empty: ok=%v err=%v", ok, err)
			}
			if time.Since(start) > 50*time.Millisecond {
				t.Fatal("TryRecv blocked")
			}
			// After a send it eventually yields the frame.
			if err := c.Send([]byte("ping")); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for {
				msg, ok, err := server.TryRecv()
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					if string(msg) != "ping" {
						t.Fatalf("got %q", msg)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("frame never arrived")
				}
			}
		})
	}
}

func TestLargeFrames(t *testing.T) {
	for name, tr := range transports(t) {
		t.Run(name, func(t *testing.T) {
			l, _ := tr.Listen(addrFor(name, 3))
			defer l.Close()
			go func() {
				c, err := l.Accept()
				if err != nil {
					return
				}
				msg, err := c.Recv()
				if err != nil {
					return
				}
				c.Send(msg)
			}()
			c, err := tr.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			big := bytes.Repeat([]byte{0xAB}, 1<<20)
			if err := c.Send(big); err != nil {
				t.Fatal(err)
			}
			got, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, big) {
				t.Fatal("1 MiB frame corrupted")
			}
		})
	}
}

func TestSenderBufferReuseSafe(t *testing.T) {
	tr := NewInMem(Free)
	l, _ := tr.Listen("reuse")
	defer l.Close()
	var got [][]byte
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		for i := 0; i < 5; i++ {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			got = append(got, msg)
			mu.Unlock()
		}
	}()
	c, _ := tr.Dial("reuse")
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		copy(buf, fmt.Sprintf("msg-%03d", i))
		if err := c.Send(buf); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, msg := range got {
		want := fmt.Sprintf("msg-%03d", i)
		if string(msg[:7]) != want {
			t.Fatalf("frame %d = %q, want %q (sender buffer reuse corrupted it)", i, msg[:7], want)
		}
	}
}

func TestDialUnknownAddr(t *testing.T) {
	tr := NewInMem(Free)
	if _, err := tr.Dial("nowhere"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	tr := NewInMem(Free)
	l, _ := tr.Listen("closer")
	defer l.Close()
	go func() { l.Accept() }()
	c, _ := tr.Dial("closer")
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("Recv returned nil after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
}

func BenchmarkInMemSendRecv(b *testing.B) {
	tr := NewInMem(Free)
	l, _ := tr.Listen("bench")
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(msg); err != nil {
				return
			}
		}
	}()
	c, _ := tr.Dial("bench")
	defer c.Close()
	frame := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Send(frame); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
}

// countingConn wraps a net.Conn and counts Write syscall-equivalents.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestTCPSendSingleWrite verifies a frame's length prefix and payload leave
// in one Write call (one syscall on a real socket).
func TestTCPSendSingleWrite(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	tr := NewTCP(Free)
	cc := &countingConn{Conn: a}
	conn := tr.wrap(cc)
	defer conn.Close()

	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	if err := conn.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 1 {
		t.Fatalf("Send used %d writes, want 1", got)
	}
}

// TestTCPSendCoalescing verifies SendNoFlush buffers frames and Flush ships
// them all in a single write, preserving frame boundaries and order — also
// interleaved with a direct Send.
func TestTCPSendCoalescing(t *testing.T) {
	a, b := net.Pipe()
	tr := NewTCP(Free)
	cc := &countingConn{Conn: a}
	conn := tr.wrap(cc)
	peer := tr.wrap(b)
	defer conn.Close()
	defer peer.Close()

	bs, ok := Conn(conn).(BatchedSender)
	if !ok {
		t.Fatal("tcpConn does not implement BatchedSender")
	}
	frames := [][]byte{[]byte("one"), []byte("two-two"), []byte("three")}
	for _, f := range frames {
		if err := bs.SendNoFlush(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.writes.Load(); got != 0 {
		t.Fatalf("SendNoFlush hit the wire early: %d writes", got)
	}
	done := make(chan error, 1)
	go func() { done <- bs.Flush() }()
	for i, want := range frames {
		got, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 1 {
		t.Fatalf("Flush used %d writes, want 1", got)
	}

	// A direct Send after buffering more frames flushes buffer + frame
	// together, in order.
	if err := bs.SendNoFlush([]byte("four")); err != nil {
		t.Fatal(err)
	}
	go func() { done <- conn.Send([]byte("five")) }()
	for _, want := range []string{"four", "five"} {
		got, err := peer.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 2 {
		t.Fatalf("Send-after-buffer used %d total writes, want 2", got)
	}
}

// TestAwaitFrame covers the four ways the single-connection wait ends: the
// wanted frame (unrelated and empty frames before it discarded), the
// deadline, the caller's cancellation, and the connection's own error.
func TestAwaitFrame(t *testing.T) {
	tr := NewInMem(Free)
	l, err := tr.Listen("await")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	for _, f := range [][]byte{{1, 'x'}, {}, {7, 'a'}, {7, 'b'}} {
		if err := peer.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	got, err := AwaitFrame(c, 7, time.Time{}, nil)
	if err != nil || !bytes.Equal(got, []byte{7, 'a'}) {
		t.Fatalf("wanted frame: got %q, %v", got, err)
	}
	if got, err = AwaitFrame(c, 7, time.Now().Add(time.Second), nil); err != nil || got[1] != 'b' {
		t.Fatalf("next wanted frame: got %q, %v", got, err)
	}

	if _, err := AwaitFrame(c, 7, time.Now().Add(5*time.Millisecond), nil); !errors.Is(err, ErrAwaitTimeout) {
		t.Fatalf("deadline: want ErrAwaitTimeout, got %v", err)
	}
	stop := errors.New("stop")
	if _, err := AwaitFrame(c, 7, time.Time{}, func() error { return stop }); err != stop {
		t.Fatalf("cancellation: want %v, got %v", stop, err)
	}
	peer.Close()
	if _, err := AwaitFrame(c, 7, time.Now().Add(5*time.Second), nil); err == nil || errors.Is(err, ErrAwaitTimeout) {
		t.Fatalf("closed peer: want the connection's error, got %v", err)
	}
}
