//go:build !race

// The client twin of core's allocation-budget guard: at steady state the
// callback path — Issue → flush → handleResponse → complete — allocates
// nothing per operation. Excluded under -race: instrumentation allocates.
package client_test

import (
	"errors"
	"testing"

	"repro/internal/client"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// loopback is a transport whose one connection answers every request batch
// on the spot, out of reused buffers, so the only allocations a run can see
// are the client's.
type loopback struct {
	req   wire.RequestBatch
	resp  wire.ResponseBatch
	frame []byte
	ready bool
}

func (l *loopback) Listen(string) (transport.Listener, error) {
	return nil, errors.New("loopback: dial only")
}
func (l *loopback) Dial(string) (transport.Conn, error) { return l, nil }
func (l *loopback) Recv() ([]byte, error)               { return nil, errors.New("loopback: poll with TryRecv") }
func (l *loopback) Close() error                        { return nil }

func (l *loopback) Send(frame []byte) error {
	if err := wire.DecodeRequestBatch(frame, &l.req); err != nil {
		return err
	}
	l.resp.SessionID = l.req.SessionID
	l.resp.Results = l.resp.Results[:0]
	for _, op := range l.req.Ops {
		r := wire.Result{Seq: op.Seq, Status: wire.StatusOK}
		if op.Kind == wire.OpRead {
			r.Value = op.Key // aliases the request frame, copied by the encode below
		}
		l.resp.Results = append(l.resp.Results, r)
	}
	l.frame = wire.AppendResponseBatch(l.frame[:0], &l.resp)
	l.ready = true
	return nil
}

func (l *loopback) TryRecv() ([]byte, bool, error) {
	ok := l.ready
	l.ready = false
	return l.frame, ok, nil
}

func TestHotPathClientAllocBudget(t *testing.T) {
	meta := metadata.NewStore()
	meta.RegisterServer("s1", metadata.FullRange)
	meta.SetServerAddr("s1", "s1")
	const batch = 64
	th, err := client.NewThread(client.Config{Transport: &loopback{}, Meta: meta, BatchOps: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()

	var key [8]byte
	value := make([]byte, 100)
	completed := 0
	cb := func(st wire.ResultStatus, _ []byte) {
		if st == wire.StatusOK {
			completed++
		}
	}
	// One round: a full batch of each kind, issued, answered and completed.
	round := func() {
		for i := 0; i < 3*batch; i++ {
			key[0], key[1] = byte(i), byte(i>>8)
			switch i / batch {
			case 0:
				th.RMW(key[:], value[:8], cb)
			case 1:
				th.Read(key[:], cb)
			default:
				th.Upsert(key[:], value, cb)
			}
			if th.Outstanding() == batch { // the batch just went out
				th.Poll()
			}
		}
	}
	// Warm the slot table, the session's buffers and the decode slices.
	for i := 0; i < 10; i++ {
		round()
	}
	before := completed
	const runs = 100
	perRound := testing.AllocsPerRun(runs, round)
	if got := completed - before; got != (runs+1)*3*batch || th.Outstanding() != 0 {
		t.Fatalf("completed %d ops with %d outstanding, want %d and 0", got, th.Outstanding(), (runs+1)*3*batch)
	}
	if perRound != 0 {
		t.Fatalf("%.0f allocs per %d-op round (%.2f allocs/op), want 0", perRound, 3*batch, perRound/(3*batch))
	}
	t.Logf("0 allocs/op over %d callback-style RMW/Read/Upsert operations", runs*3*batch)
}
