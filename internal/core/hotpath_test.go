// The dispatch hot-path driver and its microbenchmarks: one server, one
// dispatcher thread, one wire-level session, everything served from memory.
// It exercises exactly the normal-operation path the paper's single-server
// throughput rests on (§3.1–3.2, Fig. 5): RequestBatch in → execute against
// the shared store → ResponseBatch out, with no migration, no pending I/O and
// no view churn. The driver speaks raw wire frames over a cost-free
// in-process transport and reuses every buffer, so allocations measured
// around runBatch are the server's dispatch path plus the transport's two
// frame copies — which is what the allocation-budget guard
// (hotpath_alloc_test.go) pins down.
package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/ycsb"
)

// hotPathMix is an operation mix in percent; the remainder is RMW.
type hotPathMix struct{ readPct, upsertPct int }

var (
	hotPathMixed  = hotPathMix{readPct: 50, upsertPct: 50} // YCSB-A shaped
	hotPathRead   = hotPathMix{readPct: 100}               // YCSB-C shaped
	hotPathUpsert = hotPathMix{upsertPct: 100}             // in-place updates at steady state
	hotPathRMW    = hotPathMix{}                           // YCSB-F shaped; 8-byte values take the in-place counter path
)

// hotPathBatchOps is the number of operations per runBatch call.
const hotPathBatchOps = 64

// hotPathDriver drives one dispatcher's normal-operation path with reused
// buffers. Not safe for concurrent use.
type hotPathDriver struct {
	conn transport.Conn
	view uint64
	seq  uint32
	next func() uint64 // key index of the next operation
	lcg  uint64        // op-kind selector

	req     wire.RequestBatch
	resp    wire.ResponseBatch
	reqBuf  []byte
	keyBufs [hotPathBatchOps][ycsb.DefaultKeyBytes]byte
	val     []byte
	delta   []byte
}

// newHotPathDriver boots the server, dials the driver connection and loads
// keys records of valueBytes. memPages (64 KiB each) must hold the dataset:
// the inline path is the subject.
func newHotPathDriver(tb testing.TB, keys uint64, valueBytes, memPages int) *hotPathDriver {
	tb.Helper()
	tr := transport.NewInMem(transport.Free)
	dev := storage.NewMemDevice(storage.LatencyModel{}, 1)
	srv, err := core.NewServer(core.ServerConfig{
		ID: "hot", Addr: "hot", Threads: 1,
		Transport: tr, Meta: metadata.NewStore(),
		Store: faster.Config{
			IndexBuckets: 1 << 16,
			Log: hlog.Config{PageBits: 16, MemPages: memPages,
				MutablePages: memPages / 2, Device: dev},
		},
	}, metadata.FullRange)
	if err != nil {
		dev.Close()
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close(); dev.Close() })
	conn, err := tr.Dial(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { conn.Close() })

	d := &hotPathDriver{
		conn:  conn,
		view:  srv.CurrentView().Number,
		lcg:   1,
		val:   make([]byte, valueBytes),
		delta: []byte{1, 0, 0, 0, 0, 0, 0, 0},
	}
	d.req.Ops = make([]wire.Op, 0, hotPathBatchOps)
	var loaded uint64
	d.next = func() uint64 { loaded++; return loaded - 1 }
	for loaded < keys {
		if err := d.runBatch(hotPathUpsert); err != nil {
			tb.Fatal(err)
		}
	}
	d.next = ycsb.NewUniform(keys, 1).Next
	return d
}

// pickOp selects the next operation kind from the mix (cheap LCG, no
// allocation) and returns its value/input payload.
func (d *hotPathDriver) pickOp(mix hotPathMix) (wire.OpKind, []byte) {
	d.lcg = d.lcg*6364136223846793005 + 1442695040888963407
	r := int((d.lcg >> 33) % 100)
	switch {
	case r < mix.readPct:
		return wire.OpRead, nil
	case r < mix.readPct+mix.upsertPct:
		return wire.OpUpsert, d.val
	default:
		return wire.OpRMW, d.delta
	}
}

// runBatch issues one request batch of the given mix and spins until every
// operation's result has come back.
func (d *hotPathDriver) runBatch(mix hotPathMix) error {
	b := &d.req
	b.View = d.view
	b.SessionID = 0x710a
	b.Ops = b.Ops[:0]
	for i := 0; i < hotPathBatchOps; i++ {
		d.seq++
		k := d.keyBufs[i][:]
		ycsb.FillKey(k, d.next())
		kind, val := d.pickOp(mix)
		b.Ops = append(b.Ops, wire.Op{Kind: kind, Seq: d.seq, Key: k, Value: val})
	}
	d.reqBuf = wire.AppendRequestBatch(d.reqBuf[:0], b)
	if err := d.conn.Send(d.reqBuf); err != nil {
		return err
	}
	for got := 0; got < hotPathBatchOps; {
		frame, ok, err := d.conn.TryRecv()
		if err != nil {
			return err
		}
		if !ok {
			runtime.Gosched()
			continue
		}
		if err := wire.DecodeResponseBatch(frame, &d.resp); err != nil {
			return err
		}
		if d.resp.Rejected {
			// No migrations or view churn run here; a rejection means the
			// driver's view bootstrap is broken, not a transient.
			return fmt.Errorf("hot-path batch rejected (server view %d, ours %d)",
				d.resp.ServerView, d.view)
		}
		got += len(d.resp.Results)
	}
	return nil
}

// benchHotPath runs one mix over a dataset small enough to stay fully in
// memory but large enough that the hash index sees realistic chains.
func benchHotPath(b *testing.B, mix hotPathMix, valueBytes int) {
	d := newHotPathDriver(b, 20_000, valueBytes, 256)
	// Warm one batch so lazily-grown buffers (response path, arena, index)
	// reach steady state before counting.
	if err := d.runBatch(mix); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.runBatch(mix); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// One iteration is a whole batch; also report the per-KV-op cost the
	// paper's Fig. 5 throughput numbers are quoted in.
	if ops := float64(b.N * hotPathBatchOps); ops > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ops, "ns/kvop")
	}
}

// BenchmarkDispatchHotPath is the headline normal-operation microbenchmark:
// a 50/50 read/upsert mix served entirely from memory, measured per batch
// (allocs/op is allocations per 64-op batch).
func BenchmarkDispatchHotPath(b *testing.B) { benchHotPath(b, hotPathMixed, 64) }

func BenchmarkDispatchHotPathRead(b *testing.B) { benchHotPath(b, hotPathRead, 64) }

func BenchmarkDispatchHotPathUpsert(b *testing.B) { benchHotPath(b, hotPathUpsert, 64) }

// BenchmarkDispatchHotPathRMW uses 8-byte values so the store's in-place
// counter path applies (YCSB-F's increment).
func BenchmarkDispatchHotPathRMW(b *testing.B) { benchHotPath(b, hotPathRMW, 8) }
