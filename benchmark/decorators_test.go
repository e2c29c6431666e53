package main

import (
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/transport"
)

// The product type-asserts its transport connections for
// transport.BatchedSender (core's response coalescing) and its log device
// for storage.BatchReader and storage.Truncator (the pending-read pipeline
// and compaction). A decorator that hid one of them would change what runs,
// not only what is measured: these tests make each assertion on the wrapped
// value, and check that a hook the inner value lacks is not invented.

func TestTimedConnKeepsBatchedSender(t *testing.T) {
	tr := newTracer()
	tt := newTimedTransport(tr)
	l, err := tt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	dialed, err := tt.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	served, ok := <-accepted
	if !ok {
		t.Fatal("accept failed")
	}
	defer served.Close()

	for side, c := range map[string]transport.Conn{"dialed": dialed, "accepted": served} {
		if _, ok := c.(transport.BatchedSender); !ok {
			t.Errorf("%s TCP conn lost transport.BatchedSender under the decorator", side)
		}
	}

	// Frames pass through in order, buffered sends included, and are counted.
	bs := served.(transport.BatchedSender)
	if err := bs.SendNoFlush([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := bs.SendNoFlush([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := bs.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"one", "two"} {
		got, err := dialed.Recv()
		if err != nil || string(got) != want {
			t.Fatalf("received %q, %v; want %q", got, err, want)
		}
	}
	if c := tt.server.counts(); c.frames != 2 || c.bytes != 6 {
		t.Errorf("server side counted %d frames, %d bytes; want 2, 6", c.frames, c.bytes)
	}
	if c := tt.client.counts(); c.recvFrames != 2 {
		t.Errorf("client side counted %d received frames, want 2", c.recvFrames)
	}
}

func TestTimedConnInventsNoHook(t *testing.T) {
	inmem := transport.NewInMem(transport.Free)
	l, err := inmem.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := inmem.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(transport.BatchedSender); ok {
		t.Skip("the in-memory transport now batches sends; nothing to check")
	}
	var st connStats
	if _, ok := wrapConn(c, newTracer(), &st, true).(transport.BatchedSender); ok {
		t.Error("the decorator gave an in-memory conn a BatchedSender hook it does not have")
	}
}

func TestTimedDeviceKeepsHooks(t *testing.T) {
	fd, err := storage.NewFileDevice(filepath.Join(t.TempDir(), "log.dat"), storage.LatencyModel{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var dev storage.Device = newTimedDevice(fd, tr)
	defer dev.Close()
	if _, ok := dev.(storage.BatchReader); !ok {
		t.Error("the device lost storage.BatchReader under the decorator")
	}
	if _, ok := dev.(storage.Truncator); !ok {
		t.Error("the device lost storage.Truncator under the decorator")
	}

	page := make([]byte, 1<<16)
	for i := range page {
		page[i] = byte(i)
	}
	if err := storage.SyncWrite(dev, page, 0); err != nil {
		t.Fatal(err)
	}
	reqs := []storage.ReadReq{{P: make([]byte, 8), Off: 8}, {P: make([]byte, 8), Off: 256}}
	done := make(chan error, len(reqs))
	storage.ReadBatch(dev, reqs, func(_ int, err error) { done <- err })
	for range reqs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if reqs[0].P[0] != 8 || reqs[1].P[0] != 0 {
		t.Errorf("batched reads returned %v and %v", reqs[0].P, reqs[1].P)
	}
	if got := dev.Stats().BatchReads; got != 1 {
		t.Errorf("inner device saw %d native batch reads, want 1: the decorator fell back to single reads", got)
	}
	if _, err := storage.TruncateBefore(dev, 1<<16); err != nil {
		t.Errorf("TruncateBefore through the decorator: %v", err)
	}
	if n := dev.(*timedDevice).reads(); n != 2 {
		t.Errorf("decorator timed %d reads, want 2", n)
	}
	st := selfTimes(tr.spans)
	if st["storage.read_batch"].count != 1 || st["storage.write"].count != 1 {
		t.Errorf("spans recorded: %+v", st)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "issue", ID: 2, Parent: 1, Start: 0, End: 30},
		{Name: "send", ID: 3, Parent: 2, Start: 10, End: 20},
		{Name: "wait", ID: 4, Parent: 1, Start: 20, End: 100}, // overlaps issue by 10
	}
	st := selfTimes(spans)
	if st["op"].selfNs != 0 || st["issue"].selfNs != 20 || st["wait"].selfNs != 80 || st["send"].selfNs != 10 {
		t.Errorf("self times: %+v", st)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}
