package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/metadata"
	"repro/internal/storage"
	"repro/internal/wire"
)

// TestRecordBatchCutsFrames pins the batcher's framing: 1,025 records leave
// as frames of 512, 512 and 1, and only the last carries final.
func TestRecordBatchCutsFrames(t *testing.T) {
	var sizes []int
	var finals []bool
	out := recordBatch{max: frameRecords, send: func(recs []wire.MigrationRecord, final bool) bool {
		sizes = append(sizes, len(recs))
		finals = append(finals, final)
		return true
	}}
	for i := 0; i < 1025; i++ {
		if !out.add(faster.CollectedRecord{Hash: uint64(i), Key: []byte{byte(i)}}) {
			t.Fatalf("add %d reported a failed send", i)
		}
	}
	out.flush(true)
	if fmt.Sprint(sizes) != "[512 512 1]" || fmt.Sprint(finals) != "[false false true]" || out.frames != 3 {
		t.Fatalf("frames %v finals %v sent %d; want [512 512 1] [false false true] 3", sizes, finals, out.frames)
	}
	if !out.flush(false) || out.frames != 3 {
		t.Fatal("a non-final flush of an empty batch sent a frame")
	}
}

// frameSink is a transport.Conn that records the frames sent on it.
type frameSink struct{ frames [][]byte }

func (c *frameSink) Send(f []byte) error {
	c.frames = append(c.frames, append([]byte(nil), f...))
	return nil
}
func (c *frameSink) Recv() ([]byte, error)          { return nil, nil }
func (c *frameSink) TryRecv() ([]byte, bool, error) { return nil, false, nil }
func (c *frameSink) Close() error                   { return nil }

// TestRecordFramesMatchWireSeeds feeds the record set of internal/wire's
// golden seeds (a live record, a tombstone, an indirection payload) through
// the batcher and each real framing function, and requires the bytes the wire
// encoder produces for the same records written out by hand: the one
// CollectedRecord → wire.MigrationRecord conversion sets exactly the seeds'
// flags, once.
func TestRecordFramesMatchWireSeeds(t *testing.T) {
	collected := []faster.CollectedRecord{
		{Hash: 150, Key: []byte("k"), Value: []byte("v")},
		{Hash: 151, Key: []byte("dead"), Tombstone: true},
		{Hash: 152, Value: []byte("payload"), Indirection: true},
	}
	seed := []wire.MigrationRecord{
		{Hash: 150, Key: []byte("k"), Value: []byte("v")},
		{Hash: 151, Flags: wire.RecFlagTombstone, Key: []byte("dead")},
		{Hash: 152, Flags: wire.RecFlagIndirection, Value: []byte("payload")},
	}
	s := &Server{cfg: ServerConfig{ID: "s1"}}
	sm := &sourceMigration{s: s, mig: metadata.MigrationState{ID: 7},
		rng: metadata.HashRange{Start: 100, End: 900}}
	rel := newRelocator(s, &metadata.Snapshot{})
	sink := &frameSink{}
	rel.conns["s2"] = sink

	for _, tc := range []struct {
		name string
		send func(recs []wire.MigrationRecord, final bool) bool
		want []byte
	}{
		{"MsgMigrationRecords",
			func(recs []wire.MigrationRecord, final bool) bool { return sm.sendRecords(sink, recs, final) },
			wire.EncodeMigrationMsg(&wire.MigrationMsg{Type: wire.MsgMigrationRecords, MigrationID: 7,
				SourceID: "s1", RangeStart: 100, RangeEnd: 900, Final: true, Records: seed})},
		{"MsgCompacted",
			func(recs []wire.MigrationRecord, _ bool) bool { return rel.sendCompacted("s2", recs) },
			wire.EncodeMigrationMsg(&wire.MigrationMsg{Type: wire.MsgCompacted, SourceID: "s1", Records: seed})},
		{"MsgReplRecords",
			func(recs []wire.MigrationRecord, _ bool) bool {
				return sink.Send(wire.StampSeq(wire.EncodeReplRecords(&wire.ReplRecords{Records: recs}), 2)) == nil
			},
			wire.EncodeReplRecords(&wire.ReplRecords{Seq: 2, Records: seed})},
	} {
		sink.frames = nil
		out := recordBatch{max: frameRecords, send: tc.send}
		for _, rec := range collected {
			out.add(rec)
		}
		out.flush(true)
		if len(sink.frames) != 1 || !bytes.Equal(sink.frames[0], tc.want) {
			t.Errorf("%s: frames %x, want one frame %x", tc.name, sink.frames, tc.want)
		}
	}
}

// TestMigrationCompletionCheckpointUnderCkptMu pins who may seal a CPR
// version when a migration completes. With ckptMu held on both sides (a
// durable checkpoint in progress) a memory-only pair finishes the migration
// without ever advancing the store version; a pair with checkpoint devices
// waits for the mutex, and then each side commits exactly one real image.
func TestMigrationCompletionCheckpointUnderCkptMu(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			cl := newCluster()
			boot := func(id string, ranges ...metadata.HashRange) *Server {
				if !durable {
					return cl.newServer(t, id, 2, ranges...)
				}
				logDev := storage.NewMemDevice(storage.LatencyModel{}, 4)
				ckptDev := storage.NewMemDevice(storage.LatencyModel{}, 2)
				cfg := durableServerConfig(cl, id, logDev, ckptDev, false)
				cfg.SampleDuration = 10 * time.Millisecond
				srv, err := NewServer(cfg, ranges...)
				if err != nil {
					t.Fatal(err)
				}
				cl.meta.SetServerAddr(id, srv.Addr())
				t.Cleanup(func() { srv.Close(); logDev.Close(); ckptDev.Close() })
				return srv
			}
			src, dst := boot("src", metadata.FullRange), boot("dst")
			ct := cl.newClient(t)
			const n = 400
			loadKeys(t, ct, n)

			sides := []*Server{src, dst}
			var ver [2]uint32
			var gen [2]uint64
			for i, s := range sides {
				ver[i] = s.store.CurrentVersion()
				if durable {
					gen[i] = s.images.Generation()
				}
				s.ckptMu.Lock()
			}
			held := true
			unlock := func() {
				if held {
					held = false
					src.ckptMu.Unlock()
					dst.ckptMu.Unlock()
				}
			}
			defer unlock()

			if _, err := src.StartMigration("dst", metadata.HashRange{Start: 0, End: 1 << 63}); err != nil {
				t.Fatal(err)
			}
			if durable {
				// Both sides reach their completion checkpoint and must wait
				// there; the grace period only gives a second, unserialized
				// sealer the time to show itself.
				deadline := time.Now().Add(15 * time.Second)
				for {
					sm := src.sourceState()
					tms := dst.targetSnapshot(nil)
					if sm != nil && migPhase(sm.phase.Load()) == phaseComplete &&
						len(tms) == 1 && tms[0].completed.Load() {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("migration never reached its completion checkpoint")
					}
					time.Sleep(time.Millisecond)
				}
				time.Sleep(100 * time.Millisecond)
			} else {
				waitMigrationsDone(t, cl.meta, 15*time.Second)
			}
			for i, s := range sides {
				if v := s.store.CurrentVersion(); v != ver[i] {
					t.Fatalf("%s: CPR version %d -> %d while ckptMu was held", s.ID(), ver[i], v)
				}
			}
			unlock()
			waitMigrationsDone(t, cl.meta, 15*time.Second)
			for i, s := range sides {
				want := uint32(0)
				if durable {
					want = 1
					if c, g := s.Stats().Checkpoints.Load(), s.images.Generation(); c != 1 || g != gen[i]+1 {
						t.Fatalf("%s: %d checkpoints, image generation %d -> %d; want one committed image",
							s.ID(), c, gen[i], g)
					}
				}
				if v := s.store.CurrentVersion(); v != ver[i]+want {
					t.Fatalf("%s: CPR version %d -> %d after the migration, want +%d", s.ID(), ver[i], v, want)
				}
			}
			verifyKeys(t, ct, n)
		})
	}
}
