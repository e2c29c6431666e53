package ctlplane

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stubFleet fakes a fleet at the transport layer: Stats RPCs answer from
// scripted per-server counters, Migrate RPCs are recorded (and held at a
// barrier so the test can observe whether the balancer issued them
// concurrently), and servers in down refuse to dial. This isolates the
// balancer's planning/execution behavior from real servers' timing.
type stubFleet struct {
	mu     sync.Mutex
	ops    map[string]uint64
	ranges map[string]metadata.HashRange
	down   map[string]bool

	expectMigrates int
	migrates       []recordedMigrate
	inflight       int
	maxInflight    int
	release        chan struct{}
}

type recordedMigrate struct {
	Source string
	Cmd    wire.MigrateCmd
}

func newStubFleet(expectMigrates int) *stubFleet {
	return &stubFleet{
		ops: map[string]uint64{}, ranges: map[string]metadata.HashRange{},
		down: map[string]bool{}, expectMigrates: expectMigrates,
		release: make(chan struct{}),
	}
}

func (f *stubFleet) Listen(addr string) (transport.Listener, error) {
	return nil, errors.New("stub fleet has no listeners")
}

func (f *stubFleet) Dial(addr string) (transport.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[addr] {
		return nil, errors.New("connection refused")
	}
	return &stubConn{fleet: f, addr: addr}, nil
}

type stubConn struct {
	fleet *stubFleet
	addr  string

	mu     sync.Mutex
	queued [][]byte
}

func (c *stubConn) Send(frame []byte) error {
	typ, err := wire.PeekType(frame)
	if err != nil {
		return err
	}
	switch typ {
	case wire.MsgStats:
		f := c.fleet
		f.mu.Lock()
		rng := f.ranges[c.addr]
		st := wire.StatsResp{
			ServerID: c.addr, ViewNumber: 1,
			Ranges:       []metadata.HashRange{rng},
			OpsCompleted: f.ops[c.addr],
		}
		f.mu.Unlock()
		span := rng.End - rng.Start
		for i := uint64(0); i < 64; i++ {
			st.HashSample = append(st.HashSample, rng.Start+i*span/64)
		}
		c.push(wire.EncodeStatsResp(st))
	case wire.MsgMigrate:
		cmd, err := wire.DecodeMigrate(frame)
		if err != nil {
			return err
		}
		f := c.fleet
		f.mu.Lock()
		f.migrates = append(f.migrates, recordedMigrate{Source: c.addr, Cmd: cmd})
		f.inflight++
		if f.inflight > f.maxInflight {
			f.maxInflight = f.inflight
		}
		if len(f.migrates) == f.expectMigrates {
			close(f.release)
		}
		f.mu.Unlock()
		// Hold the ack at the barrier: if the balancer issues its moves
		// serially, the first ack only comes after the timeout and the
		// concurrency assertion fails loudly instead of deadlocking.
		go func() {
			select {
			case <-f.release:
			case <-time.After(time.Second):
			}
			f.mu.Lock()
			f.inflight--
			f.mu.Unlock()
			ack := wire.MigrationMsg{Type: wire.MsgAck, MigrationID: 0}
			c.push(wire.EncodeMigrationMsg(&ack))
		}()
	default:
		return errors.New("stub fleet: unexpected frame")
	}
	return nil
}

func (c *stubConn) push(frame []byte) {
	c.mu.Lock()
	c.queued = append(c.queued, frame)
	c.mu.Unlock()
}

func (c *stubConn) Recv() ([]byte, error) {
	for {
		if frame, ok, _ := c.TryRecv(); ok {
			return frame, nil
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (c *stubConn) TryRecv() ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queued) == 0 {
		return nil, false, nil
	}
	frame := c.queued[0]
	c.queued = c.queued[1:]
	return frame, true, nil
}

func (c *stubConn) Close() error { return nil }

// TestBalancerPassWithUnreachableServerStillActsConcurrently pins the
// degraded-fleet behavior: one server refusing connections must not disable
// elasticity — the pass skips it and still plans and executes migrations
// for the remaining servers concurrently (two Migrate RPCs demonstrably in
// flight at once, over disjoint ranges).
func TestBalancerPassWithUnreachableServerStillActsConcurrently(t *testing.T) {
	fleet := newStubFleet(2)
	store := metadata.NewStore()
	width := uint64(1) << 61
	ids := []string{"hot1", "hot2", "cool1", "cool2", "down"}
	for i, id := range ids {
		rng := metadata.HashRange{Start: uint64(i) * width, End: uint64(i+1) * width}
		store.RegisterServer(id, rng)
		store.SetServerAddr(id, id)
		fleet.mu.Lock()
		fleet.ranges[id] = rng
		fleet.mu.Unlock()
	}
	fleet.mu.Lock()
	fleet.down["down"] = true
	fleet.mu.Unlock()

	b := NewBalancer(BalancerConfig{
		Self: "hot1", Meta: store, Transport: fleet,
		Imbalance: 2.0, MinOpsPerSec: 1, MaxConcurrent: 4,
		RPCTimeout: 5 * time.Second,
	})
	defer b.Stop()

	// First pass primes the counters.
	if d := b.RunOnce(context.Background()); d.Acted {
		t.Fatalf("priming pass acted: %+v", d)
	}
	// Advance the counters so the second pass sees two hot servers.
	fleet.mu.Lock()
	fleet.ops["hot1"] = 1_000_000
	fleet.ops["hot2"] = 800_000
	fleet.ops["cool1"] = 1_000
	fleet.ops["cool2"] = 2_000
	fleet.mu.Unlock()
	time.Sleep(20 * time.Millisecond) // non-zero elapsed for the rate math

	d := b.RunOnce(context.Background())
	if !d.Acted {
		t.Fatalf("pass did not act: %s", d.Reason)
	}
	if len(d.Moves) != 2 {
		t.Fatalf("planned %d moves, want 2: %+v", len(d.Moves), d.Moves)
	}
	for _, m := range d.Moves {
		if m.Err != "" {
			t.Fatalf("move %s->%s failed: %s", m.Source, m.Target, m.Err)
		}
		if m.Source == "down" || m.Target == "down" {
			t.Fatalf("unreachable server used in a move: %+v", m)
		}
	}
	if d.Moves[0].Range.Overlaps(d.Moves[1].Range) {
		t.Fatalf("concurrent moves overlap: %s and %s", d.Moves[0].Range, d.Moves[1].Range)
	}

	fleet.mu.Lock()
	got, maxInflight := len(fleet.migrates), fleet.maxInflight
	fleet.mu.Unlock()
	if got != 2 {
		t.Fatalf("%d Migrate RPCs issued, want 2", got)
	}
	if maxInflight < 2 {
		t.Fatalf("max concurrent Migrate RPCs = %d, want >= 2 (moves executed serially)", maxInflight)
	}
}
