package wire

import (
	"bytes"
	"testing"

	"repro/internal/metadata"
)

// fuzzSeeds returns one valid encoding of every frame type, so the fuzzer
// starts from the real format instead of rediscovering it byte by byte.
func fuzzSeeds() [][]byte {
	req := AppendRequestBatch(nil, &RequestBatch{
		View: 3, SessionID: 9,
		Ops: []Op{
			{Kind: OpRead, Seq: 1, Key: []byte("key")},
			{Kind: OpUpsert, Seq: 2, Key: []byte("key"), Value: []byte("value")},
			{Kind: OpRMW, Seq: 3, Key: []byte("ctr"), Value: []byte("12345678")},
			{Kind: OpDelete, Seq: 4, Key: []byte("gone")},
		},
	})
	resp := AppendResponseBatch(nil, &ResponseBatch{
		SessionID: 9, ServerView: 3,
		Results: []Result{
			{Seq: 1, Status: StatusOK, Value: []byte("value")},
			{Seq: 2, Status: StatusNotFound},
		},
	})
	rej := AppendResponseBatch(nil, &ResponseBatch{SessionID: 9, Rejected: true, ServerView: 4})
	mig := EncodeMigrationMsg(&MigrationMsg{
		Type: MsgMigrationRecords, MigrationID: 7, SourceID: "s1",
		RangeStart: 100, RangeEnd: 900, ViewNumber: 2, Final: true,
		Records: []MigrationRecord{
			{Hash: 150, Key: []byte("k"), Value: []byte("v")},
			{Hash: 151, Flags: RecFlagTombstone, Key: []byte("dead")},
			{Hash: 152, Flags: RecFlagIndirection, Value: []byte("payload")},
		},
	})
	compacted := EncodeMigrationMsg(&MigrationMsg{
		Type: MsgCompacted, SourceID: "s2", RangeStart: 1, RangeEnd: 2,
		Records: []MigrationRecord{{Hash: 1, Key: []byte("relocated"), Value: []byte("v")}},
	})
	// The migration handshake frames carry no records but still cross the
	// wire; seed each so the fuzzer mutates real handshakes too.
	prep := EncodeMigrationMsg(&MigrationMsg{
		Type: MsgPrepForTransfer, MigrationID: 7, SourceID: "s1",
		RangeStart: 100, RangeEnd: 900,
	})
	xfer := EncodeMigrationMsg(&MigrationMsg{
		Type: MsgTransferOwnership, MigrationID: 7, SourceID: "s1",
		RangeStart: 100, RangeEnd: 900, ViewNumber: 5,
	})
	complete := EncodeMigrationMsg(&MigrationMsg{
		Type: MsgCompleteMigration, MigrationID: 7, SourceID: "s1",
		RangeStart: 100, RangeEnd: 900,
	})
	ack := EncodeMigrationMsg(&MigrationMsg{Type: MsgAck, MigrationID: 7, SourceID: "s2"})
	metaSnap := EncodeMetaReq(&MetaReq{Op: MetaOpSnapshot})
	metaStart := EncodeMetaReq(&MetaReq{
		Op: MetaOpStartMigration, ServerID: "s1", Target: "s2",
		RangeStart: 1 << 62, RangeEnd: 1 << 63,
	})
	metaRestore := EncodeMetaReq(&MetaReq{
		Op: MetaOpRestore, ServerID: "s1", ViewNumber: 7,
		Ranges: []metadata.HashRange{{Start: 0, End: 1 << 62}},
	})
	metaResp := EncodeMetaResp(&MetaResp{
		OK:       true,
		MigValid: true,
		Migration: metadata.MigrationState{ID: 3, Epoch: 7, Source: "s1", Target: "s2",
			Range: metadata.HashRange{Start: 100, End: 900}, SourceDone: true},
		Snapshot: *metadata.NewSnapshot(42,
			[]metadata.ServerEntry{
				{ID: "s1", Addr: "127.0.0.1:7777", View: metadata.View{Number: 4,
					Ranges: []metadata.HashRange{{Start: 0, End: 1 << 62}}}},
				{ID: "s2", View: metadata.View{Number: 2}},
			},
			[]metadata.MigrationState{
				{ID: 3, Epoch: 7, Source: "s1", Target: "s2", Range: metadata.HashRange{Start: 100, End: 900}},
				{ID: 4, Epoch: 8, Source: "s2", Target: "s1", Range: metadata.HashRange{Start: 2000, End: 3000}},
			}, nil, nil),
	})
	metaErrResp := EncodeMetaResp(&MetaResp{
		ErrCode: MetaErrUnknownServer, Err: "metadata: unknown server",
	})
	balStatus := EncodeBalanceStatusResp(&BalanceStatusResp{
		Enabled: true, Passes: 12, Triggered: 1, CooldownMs: 9500,
		Last: RebalanceResp{OK: true, Acted: true, Source: "s1", Target: "s2",
			RangeStart: 1 << 62, RangeEnd: ^uint64(0), Reason: "split at load median"},
		Rates: []ServerRate{{ID: "s1", MilliOps: 1_200_000}, {ID: "s2", MilliOps: 45_000}},
		InFlight: []metadata.MigrationState{
			{ID: 5, Epoch: 11, Source: "s1", Target: "s2", Range: metadata.HashRange{Start: 1 << 62, End: 1 << 63}},
			{ID: 6, Epoch: 12, Source: "s3", Target: "s4", Range: metadata.HashRange{Start: 0, End: 1 << 60}, SourceDone: true},
		},
	})
	replBatch := EncodeReplBatch(&ReplBatch{Seq: 12, Batch: req})
	replRecs := EncodeReplRecords(&ReplRecords{
		Seq: 2,
		Records: []MigrationRecord{
			{Hash: 150, Key: []byte("k"), Value: []byte("v")},
			{Hash: 151, Flags: RecFlagTombstone, Key: []byte("dead")},
		},
	})
	replSess := EncodeReplSessTab(&ReplSessTab{
		Seq: 3, Sealed: 5,
		Sessions: []ReplSession{{ID: 9, LastSeq: 44}, {ID: 10, LastSeq: 0}},
	})
	return [][]byte{
		req, resp, rej, mig, compacted, prep, xfer, complete, ack,
		EncodeReplAttach(ReplAttach{PrimaryID: "s1", ReplicaAddr: "127.0.0.1:8888",
			HeartbeatMs: 100, AckTimeoutMs: 2000}),
		EncodeReplAttachResp(ReplAttachResp{OK: true}),
		EncodeReplAttachResp(ReplAttachResp{Err: "already replicated"}),
		EncodeReplBaseBegin(ReplBaseBegin{Seq: 1, Sealed: 5, CutTail: 0x40000}),
		replRecs, replSess,
		EncodeReplBaseDone(ReplBaseDone{Seq: 4, SkippedIndirections: 2}),
		replBatch,
		EncodeReplAck(ReplAck{Seq: 12}),
		EncodeReplHeartbeat(ReplHeartbeat{Seq: 12}),
		EncodeDrainReq(),
		EncodeDrainResp(DrainResp{OK: true, Retired: true, Moved: 3}),
		EncodeDrainResp(DrainResp{Err: "would leave 2 range(s) unowned"}),
		EncodeMigrate(MigrateCmd{Target: "s2", RangeStart: 10, RangeEnd: 20}),
		EncodeCheckpointReq(),
		EncodeCheckpointResp(CheckpointResp{OK: true, Version: 5, Tail: 0x10000}),
		EncodeCheckpointResp(CheckpointResp{Err: "boom"}),
		EncodeCompactReq(),
		EncodeCompactResp(CompactResp{OK: true, Scanned: 100, Kept: 40, Dropped: 50,
			Relocated: 10, Begin: 0x20000, ReclaimedBytes: 1 << 20, TierReclaimed: 1 << 20}),
		EncodeSessionRecover(SessionRecover{SessionID: 9}),
		EncodeSessionRecoverResp(SessionRecoverResp{SessionID: 9, Known: true, LastSeq: 44}),
		EncodeStatsReq(),
		EncodeStatsResp(StatsResp{
			ServerID: "s1", ViewNumber: 3,
			Ranges:       []metadata.HashRange{{Start: 0, End: 1 << 62}, {Start: 1 << 63, End: ^uint64(0)}},
			OpsCompleted: 1000, BatchesAccepted: 10, BatchesRejected: 1,
			PendingOps: 5, Checkpoints: 2, CompactReclaimedBytes: 1 << 20,
			LogBytes: 1 << 24, BalancePasses: 12, BalanceMigrations: 1,
			HashSample: []uint64{1 << 10, 1 << 40, ^uint64(0)},
		}),
		metaSnap, metaStart, metaRestore, metaResp, metaErrResp,
		EncodeRebalanceReq(),
		EncodeRebalanceResp(RebalanceResp{OK: true, Acted: true, Source: "s1",
			Target: "s2", RangeStart: 1 << 62, RangeEnd: ^uint64(0),
			Reason: "s1 hot"}),
		EncodeRebalanceResp(RebalanceResp{Err: "balancer not enabled"}),
		EncodeBalanceStatusReq(),
		balStatus,
	}
}

// FuzzDecode throws arbitrary bytes at every decoder. The decoders must
// never panic or over-allocate — they face frames straight off the network —
// and any frame that does decode must survive a re-encode/re-decode round
// trip (no state smuggled outside the format).
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	// Adversarial seeds: truncations of the replication stream frames, so
	// the fuzzer starts at the short-frame edges a dropped connection or
	// corrupted length field produces mid-failover.
	for _, frame := range replStreamFrames() {
		for _, n := range []int{1, len(frame) / 2, len(frame) - 1} {
			if n > 0 && n < len(frame) {
				f.Add(append([]byte(nil), frame[:n]...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		if _, err := PeekType(buf); err != nil {
			if len(buf) != 0 {
				t.Fatalf("PeekType rejected non-empty frame: %v", err)
			}
			return
		}
		var rb RequestBatch
		if err := DecodeRequestBatch(buf, &rb); err == nil {
			re := AppendRequestBatch(nil, &rb)
			var rb2 RequestBatch
			if err := DecodeRequestBatch(re, &rb2); err != nil {
				t.Fatalf("re-decode of re-encoded request batch failed: %v", err)
			}
		}
		var resp ResponseBatch
		if err := DecodeResponseBatch(buf, &resp); err == nil {
			re := AppendResponseBatch(nil, &resp)
			var resp2 ResponseBatch
			if err := DecodeResponseBatch(re, &resp2); err != nil {
				t.Fatalf("re-decode of re-encoded response batch failed: %v", err)
			}
		}
		if m, err := DecodeMigrationMsg(buf); err == nil {
			re := EncodeMigrationMsg(&m)
			if m2, err := DecodeMigrationMsg(re); err != nil || m2.Type != m.Type {
				t.Fatalf("migration msg round trip: %v", err)
			}
		}
		if c, err := DecodeMigrate(buf); err == nil {
			if c2, err := DecodeMigrate(EncodeMigrate(c)); err != nil || c2 != c {
				t.Fatalf("migrate cmd round trip: %v", err)
			}
		}
		if r, err := DecodeCheckpointResp(buf); err == nil {
			if r2, err := DecodeCheckpointResp(EncodeCheckpointResp(r)); err != nil || r2 != r {
				t.Fatalf("checkpoint resp round trip: %v", err)
			}
		}
		if r, err := DecodeCompactResp(buf); err == nil {
			if r2, err := DecodeCompactResp(EncodeCompactResp(r)); err != nil || r2 != r {
				t.Fatalf("compact resp round trip: %v", err)
			}
		}
		if r, err := DecodeSessionRecover(buf); err == nil {
			if r2, err := DecodeSessionRecover(EncodeSessionRecover(r)); err != nil || r2 != r {
				t.Fatalf("session recover round trip: %v", err)
			}
		}
		if r, err := DecodeSessionRecoverResp(buf); err == nil {
			if r2, err := DecodeSessionRecoverResp(EncodeSessionRecoverResp(r)); err != nil || r2 != r {
				t.Fatalf("session recover resp round trip: %v", err)
			}
		}
		if r, err := DecodeStatsResp(buf); err == nil {
			// StatsResp holds a slice, so compare via canonical re-encoding:
			// the re-decoded value must re-encode to the same bytes.
			re := EncodeStatsResp(r)
			r2, err := DecodeStatsResp(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded stats resp failed: %v", err)
			}
			if !bytes.Equal(EncodeStatsResp(r2), re) {
				t.Fatal("stats resp round trip not canonical")
			}
		}
		if r, err := DecodeMetaReq(buf); err == nil {
			re := EncodeMetaReq(&r)
			r2, err := DecodeMetaReq(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded meta req failed: %v", err)
			}
			if !bytes.Equal(EncodeMetaReq(&r2), re) {
				t.Fatal("meta req round trip not canonical")
			}
		}
		if r, err := DecodeMetaResp(buf); err == nil {
			re := EncodeMetaResp(&r)
			r2, err := DecodeMetaResp(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded meta resp failed: %v", err)
			}
			if !bytes.Equal(EncodeMetaResp(&r2), re) {
				t.Fatal("meta resp round trip not canonical")
			}
		}
		if r, err := DecodeRebalanceResp(buf); err == nil {
			if r2, err := DecodeRebalanceResp(EncodeRebalanceResp(r)); err != nil || r2 != r {
				t.Fatalf("rebalance resp round trip: %v", err)
			}
		}
		if r, err := DecodeBalanceStatusResp(buf); err == nil {
			re := EncodeBalanceStatusResp(&r)
			r2, err := DecodeBalanceStatusResp(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded balance status failed: %v", err)
			}
			if !bytes.Equal(EncodeBalanceStatusResp(&r2), re) {
				t.Fatal("balance status round trip not canonical")
			}
		}
		if r, err := DecodeReplAttach(buf); err == nil {
			if r2, err := DecodeReplAttach(EncodeReplAttach(r)); err != nil || r2 != r {
				t.Fatalf("repl attach round trip: %v", err)
			}
		}
		if r, err := DecodeReplAttachResp(buf); err == nil {
			if r2, err := DecodeReplAttachResp(EncodeReplAttachResp(r)); err != nil || r2 != r {
				t.Fatalf("repl attach resp round trip: %v", err)
			}
		}
		if r, err := DecodeReplBaseBegin(buf); err == nil {
			if r2, err := DecodeReplBaseBegin(EncodeReplBaseBegin(r)); err != nil || r2 != r {
				t.Fatalf("repl base begin round trip: %v", err)
			}
		}
		if r, err := DecodeReplRecords(buf); err == nil {
			re := EncodeReplRecords(&r)
			r2, err := DecodeReplRecords(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded repl records failed: %v", err)
			}
			if !bytes.Equal(EncodeReplRecords(&r2), re) {
				t.Fatal("repl records round trip not canonical")
			}
		}
		if r, err := DecodeReplSessTab(buf); err == nil {
			re := EncodeReplSessTab(&r)
			r2, err := DecodeReplSessTab(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded repl sess tab failed: %v", err)
			}
			if !bytes.Equal(EncodeReplSessTab(&r2), re) {
				t.Fatal("repl sess tab round trip not canonical")
			}
		}
		if r, err := DecodeReplBaseDone(buf); err == nil {
			if r2, err := DecodeReplBaseDone(EncodeReplBaseDone(r)); err != nil || r2 != r {
				t.Fatalf("repl base done round trip: %v", err)
			}
		}
		if r, err := DecodeReplBatch(buf); err == nil {
			re := EncodeReplBatch(&r)
			r2, err := DecodeReplBatch(re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded repl batch failed: %v", err)
			}
			if !bytes.Equal(EncodeReplBatch(&r2), re) {
				t.Fatal("repl batch round trip not canonical")
			}
		}
		if r, err := DecodeReplAck(buf); err == nil {
			if r2, err := DecodeReplAck(EncodeReplAck(r)); err != nil || r2 != r {
				t.Fatalf("repl ack round trip: %v", err)
			}
		}
		if r, err := DecodeReplHeartbeat(buf); err == nil {
			if r2, err := DecodeReplHeartbeat(EncodeReplHeartbeat(r)); err != nil || r2 != r {
				t.Fatalf("repl heartbeat round trip: %v", err)
			}
		}
		if r, err := DecodeDrainResp(buf); err == nil {
			if r2, err := DecodeDrainResp(EncodeDrainResp(r)); err != nil || r2 != r {
				t.Fatalf("drain resp round trip: %v", err)
			}
		}
	})
}

func TestCompactRoundTrip(t *testing.T) {
	req := EncodeCompactReq()
	if typ, err := PeekType(req); err != nil || typ != MsgCompact {
		t.Fatalf("compact req type: %v %v", typ, err)
	}
	for _, in := range []CompactResp{
		{OK: true, Scanned: 1000, Kept: 200, Dropped: 700, Relocated: 100,
			Begin: 0x40000, ReclaimedBytes: 2 << 20, TierReclaimed: 1 << 20},
		{OK: false, Err: "compaction already running"},
	} {
		out, err := DecodeCompactResp(EncodeCompactResp(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("compact resp mismatch: %+v vs %+v", out, in)
		}
	}
	if _, err := DecodeCompactResp(req); err == nil {
		t.Fatal("decoded a request frame as a response")
	}
}

// TestDecodeCountGuards locks in the allocation guards: a frame whose count
// field claims more elements than the frame could possibly hold must be
// rejected before any slice allocation (OOM defense for network input).
func TestDecodeCountGuards(t *testing.T) {
	huge := []byte{byte(MsgRequestBatch)}
	huge = appendU64(huge, 1) // view
	huge = appendU64(huge, 1) // session
	huge = appendU32(huge, 0xFFFFFFFF)
	var rb RequestBatch
	if err := DecodeRequestBatch(huge, &rb); err == nil {
		t.Fatal("request batch with absurd op count accepted")
	}

	hr := []byte{byte(MsgResponseBatch)}
	hr = appendU64(hr, 1) // session
	hr = append(hr, 0)    // not rejected
	hr = appendU64(hr, 1) // server view
	hr = appendU32(hr, 0xFFFFFFFF)
	var resp ResponseBatch
	if err := DecodeResponseBatch(hr, &resp); err == nil {
		t.Fatal("response batch with absurd result count accepted")
	}

	hm := []byte{byte(MsgMigrationRecords)}
	hm = appendU64(hm, 1)          // migration id
	hm = append(hm, 2, 's', '1')   // source id
	hm = appendU64(hm, 0)          // range start
	hm = appendU64(hm, 100)        // range end
	hm = appendU64(hm, 1)          // view number
	hm = append(hm, 0)             // final
	hm = appendU32(hm, 0xFFFFFFFF) // record count
	if _, err := DecodeMigrationMsg(hm); err == nil {
		t.Fatal("migration msg with absurd record count accepted")
	}

	// MsgMetaReq: an absurd range count must be rejected before allocation.
	hq := EncodeMetaReq(&MetaReq{Op: MetaOpRegister, ServerID: "s1"})
	hq = hq[:len(hq)-4] // strip the honest zero range count
	hq = appendU32(hq, 0xFFFFFFFF)
	if _, err := DecodeMetaReq(hq); err == nil {
		t.Fatal("meta req with absurd range count accepted")
	}

	// MsgMetaResp: absurd server, migration and promoted counts. The empty
	// frame ends with four zero counts (servers, migrations, replicas,
	// promoted), 4 bytes each.
	base := EncodeMetaResp(&MetaResp{OK: true})
	hsrv := append([]byte(nil), base[:len(base)-16]...) // at the server count
	hsrv = appendU32(hsrv, 0xFFFFFFFF)
	if _, err := DecodeMetaResp(hsrv); err == nil {
		t.Fatal("meta resp with absurd server count accepted")
	}
	hmig := append([]byte(nil), base[:len(base)-12]...) // at the migration count
	hmig = appendU32(hmig, 0xFFFFFFFF)
	if _, err := DecodeMetaResp(hmig); err == nil {
		t.Fatal("meta resp with absurd migration count accepted")
	}
	hprom := append([]byte(nil), base[:len(base)-4]...) // at the promoted count
	hprom = appendU32(hprom, 0xFFFFFFFF)
	if _, err := DecodeMetaResp(hprom); err == nil {
		t.Fatal("meta resp with absurd promoted count accepted")
	}

	// MsgStatsResp: absurd hash-sample count. The empty frame ends with
	// [sample count u32][BatchesShed u64][4 cold-read counter u64s]; strip
	// all five u64s and the count to sit at the count.
	hs := EncodeStatsResp(StatsResp{ServerID: "s1"})
	hs = hs[:len(hs)-44]
	hs = appendU32(hs, 0xFFFFFFFF)
	if _, err := DecodeStatsResp(hs); err == nil {
		t.Fatal("stats resp with absurd sample count accepted")
	}

	// MsgBalanceStatusResp: absurd rate and in-flight migration counts. The
	// empty frame ends with [rate count u32][in-flight count u32]
	// [degraded-ms u64].
	bb := EncodeBalanceStatusResp(&BalanceStatusResp{Enabled: true})
	hb := append([]byte(nil), bb[:len(bb)-16]...) // at the rate count
	hb = appendU32(hb, 0xFFFFFFFF)
	if _, err := DecodeBalanceStatusResp(hb); err == nil {
		t.Fatal("balance status resp with absurd rate count accepted")
	}
	hf := append([]byte(nil), bb[:len(bb)-12]...) // at the in-flight count
	hf = appendU32(hf, 0xFFFFFFFF)
	if _, err := DecodeBalanceStatusResp(hf); err == nil {
		t.Fatal("balance status resp with absurd in-flight count accepted")
	}

	// MsgReplRecords: absurd record count (each record needs ≥15 bytes).
	rr := []byte{byte(MsgReplRecords)}
	rr = appendU64(rr, 1) // seq
	rr = appendU32(rr, 0xFFFFFFFF)
	if _, err := DecodeReplRecords(rr); err == nil {
		t.Fatal("repl records with absurd record count accepted")
	}

	// MsgReplSessTab: absurd session count (each entry is 12 bytes).
	rs := []byte{byte(MsgReplSessTab)}
	rs = appendU64(rs, 1) // seq
	rs = appendU32(rs, 0) // sealed
	rs = appendU32(rs, 0xFFFFFFFF)
	if _, err := DecodeReplSessTab(rs); err == nil {
		t.Fatal("repl sess tab with absurd session count accepted")
	}
}

// TestFuzzSeedsDecode keeps the seed corpus honest: every seed must decode
// through its own decoder (a seed that no longer parses would silently
// degrade the fuzzer to random bytes).
func TestFuzzSeedsDecode(t *testing.T) {
	for i, seed := range fuzzSeeds() {
		typ, err := PeekType(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		var ok bool
		switch typ {
		case MsgRequestBatch:
			var rb RequestBatch
			ok = DecodeRequestBatch(seed, &rb) == nil
		case MsgResponseBatch:
			var r ResponseBatch
			ok = DecodeResponseBatch(seed, &r) == nil
		case MsgMigrate:
			_, err := DecodeMigrate(seed)
			ok = err == nil
		case MsgPrepForTransfer, MsgTransferOwnership, MsgMigrationRecords,
			MsgCompleteMigration, MsgAck, MsgCompacted:
			m, err := DecodeMigrationMsg(seed)
			ok = err == nil && bytes.Equal(EncodeMigrationMsg(&m), seed)
		case MsgCheckpoint, MsgCompact, MsgStats, MsgSessionRecover:
			ok = true // bare request frames
			if typ == MsgSessionRecover {
				_, err := DecodeSessionRecover(seed)
				ok = err == nil
			}
		case MsgCheckpointResp:
			_, err := DecodeCheckpointResp(seed)
			ok = err == nil
		case MsgCompactResp:
			_, err := DecodeCompactResp(seed)
			ok = err == nil
		case MsgSessionRecoverResp:
			_, err := DecodeSessionRecoverResp(seed)
			ok = err == nil
		case MsgStatsResp:
			r, err := DecodeStatsResp(seed)
			ok = err == nil && bytes.Equal(EncodeStatsResp(r), seed)
		case MsgMetaReq:
			r, err := DecodeMetaReq(seed)
			ok = err == nil && bytes.Equal(EncodeMetaReq(&r), seed)
		case MsgMetaResp:
			r, err := DecodeMetaResp(seed)
			ok = err == nil && bytes.Equal(EncodeMetaResp(&r), seed)
		case MsgRebalance, MsgBalanceStatus:
			ok = true // bare request frames
		case MsgRebalanceResp:
			r, err := DecodeRebalanceResp(seed)
			ok = err == nil && bytes.Equal(EncodeRebalanceResp(r), seed)
		case MsgBalanceStatusResp:
			r, err := DecodeBalanceStatusResp(seed)
			ok = err == nil && bytes.Equal(EncodeBalanceStatusResp(&r), seed)
		case MsgReplAttach:
			r, err := DecodeReplAttach(seed)
			ok = err == nil && bytes.Equal(EncodeReplAttach(r), seed)
		case MsgReplAttachResp:
			r, err := DecodeReplAttachResp(seed)
			ok = err == nil && bytes.Equal(EncodeReplAttachResp(r), seed)
		case MsgReplBaseBegin:
			r, err := DecodeReplBaseBegin(seed)
			ok = err == nil && bytes.Equal(EncodeReplBaseBegin(r), seed)
		case MsgReplRecords:
			r, err := DecodeReplRecords(seed)
			ok = err == nil && bytes.Equal(EncodeReplRecords(&r), seed)
		case MsgReplSessTab:
			r, err := DecodeReplSessTab(seed)
			ok = err == nil && bytes.Equal(EncodeReplSessTab(&r), seed)
		case MsgReplBaseDone:
			r, err := DecodeReplBaseDone(seed)
			ok = err == nil && bytes.Equal(EncodeReplBaseDone(r), seed)
		case MsgReplBatch:
			r, err := DecodeReplBatch(seed)
			ok = err == nil && bytes.Equal(EncodeReplBatch(&r), seed)
		case MsgReplAck:
			r, err := DecodeReplAck(seed)
			ok = err == nil && bytes.Equal(EncodeReplAck(r), seed)
		case MsgReplHeartbeat:
			r, err := DecodeReplHeartbeat(seed)
			ok = err == nil && bytes.Equal(EncodeReplHeartbeat(r), seed)
		case MsgDrain:
			ok = true // bare request frame
		case MsgDrainResp:
			r, err := DecodeDrainResp(seed)
			ok = err == nil && bytes.Equal(EncodeDrainResp(r), seed)
		}
		if !ok {
			t.Fatalf("seed %d (type %d) does not decode", i, typ)
		}
	}
}
