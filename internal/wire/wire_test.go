package wire

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/metadata"
)

func TestRequestBatchRoundTrip(t *testing.T) {
	in := RequestBatch{
		View:      7,
		SessionID: 99,
		Ops: []Op{
			{Kind: OpRead, Seq: 1, Key: []byte("k1")},
			{Kind: OpUpsert, Seq: 2, Key: []byte("k2"), Value: []byte("v2")},
			{Kind: OpRMW, Seq: 3, Key: []byte("k3"), Value: []byte("12345678")},
			{Kind: OpDelete, Seq: 4, Key: []byte("k4")},
		},
	}
	frame := AppendRequestBatch(nil, &in)
	var out RequestBatch
	if err := DecodeRequestBatch(frame, &out); err != nil {
		t.Fatal(err)
	}
	if out.View != in.View || out.SessionID != in.SessionID || len(out.Ops) != len(in.Ops) {
		t.Fatalf("header mismatch: %+v", out)
	}
	for i := range in.Ops {
		if out.Ops[i].Kind != in.Ops[i].Kind || out.Ops[i].Seq != in.Ops[i].Seq ||
			!bytes.Equal(out.Ops[i].Key, in.Ops[i].Key) ||
			!bytes.Equal(out.Ops[i].Value, in.Ops[i].Value) {
			t.Fatalf("op %d mismatch: %+v vs %+v", i, out.Ops[i], in.Ops[i])
		}
	}
}

func TestRequestBatchQuick(t *testing.T) {
	f := func(view, sid uint64, key, val []byte, seq uint32) bool {
		in := RequestBatch{View: view, SessionID: sid,
			Ops: []Op{{Kind: OpUpsert, Seq: seq, Key: key, Value: val}}}
		frame := AppendRequestBatch(nil, &in)
		var out RequestBatch
		if err := DecodeRequestBatch(frame, &out); err != nil {
			return false
		}
		return out.View == view && out.SessionID == sid &&
			bytes.Equal(out.Ops[0].Key, key) && bytes.Equal(out.Ops[0].Value, val) &&
			out.Ops[0].Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResponseBatchRoundTrip(t *testing.T) {
	in := ResponseBatch{
		SessionID: 5, ServerView: 9,
		Results: []Result{
			{Seq: 1, Status: StatusOK, Value: []byte("hello")},
			{Seq: 2, Status: StatusNotFound},
			{Seq: 3, Status: StatusErr, Value: []byte("boom")},
		},
	}
	frame := AppendResponseBatch(nil, &in)
	var out ResponseBatch
	if err := DecodeResponseBatch(frame, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rejected || out.ServerView != 9 || len(out.Results) != 3 {
		t.Fatalf("decoded %+v", out)
	}
	if out.Results[0].Status != StatusOK || !bytes.Equal(out.Results[0].Value, []byte("hello")) {
		t.Fatal("result 0 mismatch")
	}
}

func TestRejectionRoundTrip(t *testing.T) {
	in := ResponseBatch{SessionID: 5, Rejected: true, ServerView: 42}
	frame := AppendResponseBatch(nil, &in)
	var out ResponseBatch
	if err := DecodeResponseBatch(frame, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Rejected || out.ServerView != 42 || len(out.Results) != 0 {
		t.Fatalf("rejection decoded as %+v", out)
	}
}

func TestMigrateRoundTrip(t *testing.T) {
	in := MigrateCmd{Target: "server-b", RangeStart: 100, RangeEnd: 900}
	out, err := DecodeMigrate(EncodeMigrate(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("%+v != %+v", out, in)
	}
}

func TestMigrationMsgRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgPrepForTransfer, MsgTransferOwnership,
		MsgMigrationRecords, MsgCompleteMigration, MsgAck, MsgCompacted} {
		in := MigrationMsg{
			Type: typ, MigrationID: 77, SourceID: "src-1",
			RangeStart: 10, RangeEnd: 20, ViewNumber: 3, Final: typ == MsgMigrationRecords,
			Records: []MigrationRecord{
				{Hash: 15, Flags: RecFlagTombstone, Key: []byte("k"), Value: nil},
				{Hash: 16, Flags: RecFlagIndirection, Value: []byte("payload")},
				{Hash: 17, Key: []byte("k2"), Value: []byte("v2")},
			},
		}
		frame := EncodeMigrationMsg(&in)
		if pt, _ := PeekType(frame); pt != typ {
			t.Fatalf("peek %d != %d", pt, typ)
		}
		out, err := DecodeMigrationMsg(frame)
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if out.Type != typ || out.MigrationID != 77 || out.SourceID != "src-1" ||
			out.RangeStart != 10 || out.RangeEnd != 20 || out.ViewNumber != 3 ||
			out.Final != in.Final || len(out.Records) != 3 {
			t.Fatalf("type %d decoded %+v", typ, out)
		}
		if out.Records[0].Flags&RecFlagTombstone == 0 ||
			out.Records[1].Flags&RecFlagIndirection == 0 {
			t.Fatal("flags lost")
		}
		if !bytes.Equal(out.Records[2].Value, []byte("v2")) {
			t.Fatal("record value lost")
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	req := EncodeCheckpointReq()
	if typ, err := PeekType(req); err != nil || typ != MsgCheckpoint {
		t.Fatalf("checkpoint req type: %v %v", typ, err)
	}
	for _, in := range []CheckpointResp{
		{OK: true, Version: 7, Tail: 0xdeadbeef},
		{OK: false, Err: "no checkpoint device configured"},
	} {
		out, err := DecodeCheckpointResp(EncodeCheckpointResp(in))
		if err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("checkpoint resp mismatch: %+v vs %+v", out, in)
		}
	}
	if _, err := DecodeCheckpointResp(req); err == nil {
		t.Fatal("decoded a request frame as a response")
	}
}

func TestSessionRecoverRoundTrip(t *testing.T) {
	f := func(sid uint64, known bool, lastSeq uint32) bool {
		req, err := DecodeSessionRecover(EncodeSessionRecover(SessionRecover{SessionID: sid}))
		if err != nil || req.SessionID != sid {
			return false
		}
		in := SessionRecoverResp{SessionID: sid, Known: known, LastSeq: lastSeq}
		out, err := DecodeSessionRecoverResp(EncodeSessionRecoverResp(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if _, err := DecodeSessionRecover([]byte{byte(MsgSessionRecover)}); err == nil {
		t.Fatal("short session-recover frame accepted")
	}
	if _, err := DecodeSessionRecoverResp([]byte{byte(MsgSessionRecoverResp), 1}); err == nil {
		t.Fatal("short session-recover response accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	var rb RequestBatch
	if err := DecodeRequestBatch(nil, &rb); err == nil {
		t.Fatal("nil frame accepted")
	}
	if err := DecodeRequestBatch([]byte{byte(MsgResponseBatch)}, &rb); err == nil {
		t.Fatal("wrong type accepted")
	}
	// Truncated mid-op.
	full := AppendRequestBatch(nil, &RequestBatch{Ops: []Op{{Kind: OpRead, Key: []byte("abcdef")}}})
	for cut := 1; cut < len(full); cut++ {
		if err := DecodeRequestBatch(full[:cut], &rb); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeMigrationMsg([]byte{byte(MsgRequestBatch)}); err == nil {
		t.Fatal("request frame decoded as migration msg")
	}
	if _, err := PeekType(nil); err == nil {
		t.Fatal("empty peek accepted")
	}
}

func TestDecodeReusesOpSlice(t *testing.T) {
	frame := AppendRequestBatch(nil, &RequestBatch{
		Ops: []Op{{Kind: OpRead, Key: []byte("a")}, {Kind: OpRead, Key: []byte("b")}}})
	b := RequestBatch{Ops: make([]Op, 0, 16)}
	if err := DecodeRequestBatch(frame, &b); err != nil {
		t.Fatal(err)
	}
	if cap(b.Ops) != 16 {
		t.Fatal("decode reallocated a sufficient ops slice")
	}
}

func BenchmarkEncodeDecodeBatch(b *testing.B) {
	ops := make([]Op, 64)
	for i := range ops {
		ops[i] = Op{Kind: OpRMW, Seq: uint32(i), Key: []byte("key-12345678"),
			Value: []byte("delta678")}
	}
	in := RequestBatch{View: 3, SessionID: 1, Ops: ops}
	var frame []byte
	var out RequestBatch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame = AppendRequestBatch(frame[:0], &in)
		if err := DecodeRequestBatch(frame, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStatsRoundTrip(t *testing.T) {
	req := EncodeStatsReq()
	if typ, err := PeekType(req); err != nil || typ != MsgStats {
		t.Fatalf("stats req type: %v %v", typ, err)
	}
	for _, in := range []StatsResp{
		{ServerID: "server-1", ViewNumber: 12,
			Ranges:       []metadata.HashRange{{Start: 0, End: 1 << 40}, {Start: 1 << 41, End: ^uint64(0)}},
			OpsCompleted: 123456, BatchesAccepted: 2000, BatchesRejected: 3,
			DecodeErrors: 1, PendingOps: -2, RemoteFetches: 9, ViewRefreshes: 4,
			Checkpoints: 5, CheckpointFailures: 1,
			Compactions: 7, CompactionFailures: 2, CompactRelocated: 88,
			CompactReclaimedBytes: 1 << 30, StorePendingReads: 42,
			BatchesShed:      6,
			PendingCoalesced: 17, ReadCacheHits: 99, ReadCacheCopies: 31,
			DeviceBatchReads: 11},
		{}, // zero value (no id, no ranges) must survive too
	} {
		out, err := DecodeStatsResp(EncodeStatsResp(in))
		if err != nil {
			t.Fatal(err)
		}
		if out.ServerID != in.ServerID || out.ViewNumber != in.ViewNumber ||
			len(out.Ranges) != len(in.Ranges) || out.PendingOps != in.PendingOps ||
			out.OpsCompleted != in.OpsCompleted ||
			out.CompactReclaimedBytes != in.CompactReclaimedBytes ||
			out.StorePendingReads != in.StorePendingReads ||
			out.BatchesShed != in.BatchesShed ||
			out.PendingCoalesced != in.PendingCoalesced ||
			out.ReadCacheHits != in.ReadCacheHits ||
			out.ReadCacheCopies != in.ReadCacheCopies ||
			out.DeviceBatchReads != in.DeviceBatchReads {
			t.Fatalf("stats resp mismatch: %+v vs %+v", out, in)
		}
		for i := range in.Ranges {
			if out.Ranges[i] != in.Ranges[i] {
				t.Fatalf("range %d mismatch: %+v vs %+v", i, out.Ranges[i], in.Ranges[i])
			}
		}
	}
	if _, err := DecodeStatsResp(req); err == nil {
		t.Fatal("decoded a request frame as a response")
	}

	// Backward compatibility: a frame from an older server ends before the
	// tail-appended counters; they must decode as zero, not as an error.
	full := EncodeStatsResp(StatsResp{ServerID: "old", PendingCoalesced: 7,
		ReadCacheHits: 8, ReadCacheCopies: 9, DeviceBatchReads: 10, BatchesShed: 11})
	old := full[:len(full)-5*8] // strip BatchesShed + the four PR-8 counters
	out, err := DecodeStatsResp(old)
	if err != nil {
		t.Fatalf("old frame rejected: %v", err)
	}
	if out.ServerID != "old" || out.BatchesShed != 0 || out.PendingCoalesced != 0 ||
		out.ReadCacheHits != 0 || out.ReadCacheCopies != 0 || out.DeviceBatchReads != 0 {
		t.Fatalf("old frame mis-decoded: %+v", out)
	}

	// Count guard: an absurd range count must be rejected before allocation.
	huge := []byte{byte(MsgStatsResp)}
	huge = appendU16(huge, 2)
	huge = append(huge, 's', '1')
	huge = appendU64(huge, 1) // view number
	huge = appendU32(huge, 0xFFFFFFFF)
	if _, err := DecodeStatsResp(huge); err == nil {
		t.Fatal("stats resp with absurd range count accepted")
	}
}
