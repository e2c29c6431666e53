package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// replStreamFrames builds one well-formed replication stream in wire order:
// attach handshake, base sync (begin, records, session table, done), then
// live batches and a heartbeat, with strictly increasing Seq — the exact
// shape a backup drains off its conn.
func replStreamFrames() [][]byte {
	inner := AppendRequestBatch(nil, &RequestBatch{
		View: 3, SessionID: 9,
		Ops: []Op{
			{Kind: OpRMW, Seq: 7, Key: []byte("ctr"), Value: []byte("12345678")},
			{Kind: OpUpsert, Seq: 8, Key: []byte("k"), Value: []byte("v")},
		},
	})
	return [][]byte{
		EncodeReplAttach(ReplAttach{PrimaryID: "p0", ReplicaAddr: "b0",
			HeartbeatMs: 100, AckTimeoutMs: 2000}),
		EncodeReplAttachResp(ReplAttachResp{OK: true}),
		EncodeReplBaseBegin(ReplBaseBegin{Seq: 1, Sealed: 5, CutTail: 0x40000}),
		EncodeReplRecords(&ReplRecords{Seq: 2, Records: []MigrationRecord{
			{Hash: 150, Key: []byte("k"), Value: []byte("v")},
			{Hash: 151, Flags: RecFlagTombstone, Key: []byte("dead")},
		}}),
		EncodeReplSessTab(&ReplSessTab{Seq: 3, Sealed: 5,
			Sessions: []ReplSession{{ID: 9, LastSeq: 44}}}),
		EncodeReplBaseDone(ReplBaseDone{Seq: 4, SkippedIndirections: 1}),
		EncodeReplBatch(&ReplBatch{Seq: 5, Batch: inner}),
		EncodeReplHeartbeat(ReplHeartbeat{Seq: 5}),
		EncodeReplAck(ReplAck{Seq: 5}),
	}
}

// decodeReplFrame dispatches a frame to its decoder, returning the carried
// stream sequence (0 for the handshake frames, which are unsequenced) and
// whether it decoded.
func decodeReplFrame(buf []byte) (seq uint64, ok bool) {
	t, err := PeekType(buf)
	if err != nil {
		return 0, false
	}
	switch t {
	case MsgReplAttach:
		_, err := DecodeReplAttach(buf)
		return 0, err == nil
	case MsgReplAttachResp:
		_, err := DecodeReplAttachResp(buf)
		return 0, err == nil
	case MsgReplBaseBegin:
		r, err := DecodeReplBaseBegin(buf)
		return r.Seq, err == nil
	case MsgReplRecords:
		r, err := DecodeReplRecords(buf)
		return r.Seq, err == nil
	case MsgReplSessTab:
		r, err := DecodeReplSessTab(buf)
		return r.Seq, err == nil
	case MsgReplBaseDone:
		r, err := DecodeReplBaseDone(buf)
		return r.Seq, err == nil
	case MsgReplBatch:
		r, err := DecodeReplBatch(buf)
		return r.Seq, err == nil
	case MsgReplHeartbeat:
		r, err := DecodeReplHeartbeat(buf)
		return r.Seq, err == nil
	case MsgReplAck:
		r, err := DecodeReplAck(buf)
		return r.Seq, err == nil
	}
	return 0, false
}

// TestReplFrameTruncation feeds every strict prefix of every replication
// frame to its decoder: a frame cut mid-field — a connection dropped mid-send
// or a corrupted length — must come back as a clean error, never a panic or
// a partial struct accepted as whole.
func TestReplFrameTruncation(t *testing.T) {
	for fi, frame := range replStreamFrames() {
		typ, _ := PeekType(frame)
		for n := 1; n < len(frame); n++ {
			if _, ok := decodeReplFrame(frame[:n]); ok {
				t.Fatalf("frame %d (type %d): truncation to %d/%d bytes decoded",
					fi, typ, n, len(frame))
			}
		}
	}
}

// TestReplStreamDuplicationAndReorder replays the stream with a duplicated
// frame and with two frames swapped. Decoding is stateless, so every frame
// must still parse identically — and the carried Seq numbers must expose the
// fault: a duplicate repeats a sequence at or below the cumulative watermark,
// a reorder shows up as a non-monotonic step. This is exactly the check the
// backup's cumulative-ack protocol performs; the test pins the wire contract
// it depends on (strictly increasing Seq on every sequenced frame).
func TestReplStreamDuplicationAndReorder(t *testing.T) {
	frames := replStreamFrames()
	sequenced := frames[2:8] // BaseBegin..Heartbeat carry stream seqs

	// The pristine stream is non-decreasing (heartbeat repeats the send
	// watermark) and dense over the sequenced production frames.
	var last uint64
	for i, f := range sequenced {
		seq, ok := decodeReplFrame(f)
		if !ok {
			t.Fatalf("pristine frame %d does not decode", i)
		}
		if seq < last {
			t.Fatalf("pristine stream regressed: frame %d seq %d after %d", i, seq, last)
		}
		last = seq
	}

	// Duplication: replay one frame. It must decode bit-identically, and its
	// seq must sit at or below the watermark — the receiver's dup filter.
	for i, f := range sequenced {
		dup := append([]byte(nil), f...)
		seq1, ok1 := decodeReplFrame(f)
		seq2, ok2 := decodeReplFrame(dup)
		if !ok1 || !ok2 || seq1 != seq2 {
			t.Fatalf("frame %d: duplicate decoded differently (%d/%v vs %d/%v)",
				i, seq1, ok1, seq2, ok2)
		}
		if seq1 > last {
			t.Fatalf("frame %d: seq %d above stream watermark %d", i, seq1, last)
		}
	}

	// Reorder: deliver frame i+1 before frame i. Both still decode (the wire
	// layer is order-agnostic), and the inversion is visible as a seq step
	// backwards, which is what lets the backup treat the stream as broken
	// rather than silently applying out of order.
	for i := 0; i+1 < len(sequenced)-1; i++ { // exclude the heartbeat echo
		hiSeq, ok := decodeReplFrame(sequenced[i+1])
		if !ok {
			t.Fatalf("reordered frame %d does not decode", i+1)
		}
		loSeq, ok := decodeReplFrame(sequenced[i])
		if !ok {
			t.Fatalf("reordered frame %d does not decode", i)
		}
		if loSeq >= hiSeq {
			t.Fatalf("frames %d,%d: reorder not observable (seqs %d,%d)",
				i, i+1, loSeq, hiSeq)
		}
	}
}

// TestReplRecordsLengthCorruption flips the record length fields inside a
// ReplRecords frame: a key/value length pointing past the frame end must be
// rejected (the base sync reads these straight off the network mid-failover).
func TestReplRecordsLengthCorruption(t *testing.T) {
	frame := EncodeReplRecords(&ReplRecords{Seq: 2, Records: []MigrationRecord{
		{Hash: 150, Key: []byte("key-0"), Value: []byte("value-0")},
	}})
	// Layout: type(1) seq(8) count(4) hash(8) flags(1) klen(2) vlen(4) ...
	klenOff := 1 + 8 + 4 + 8 + 1
	vlenOff := klenOff + 2

	kc := append([]byte(nil), frame...)
	kc[klenOff], kc[klenOff+1] = 0xFF, 0xFF
	if _, err := DecodeReplRecords(kc); err == nil {
		t.Fatal("oversized key length accepted")
	}

	vc := append([]byte(nil), frame...)
	vc[vlenOff], vc[vlenOff+1], vc[vlenOff+2], vc[vlenOff+3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeReplRecords(vc); err == nil {
		t.Fatal("oversized value length accepted")
	}
}

// TestReplBatchEmbeddedTruncation corrupts the embedded request-batch length
// of a live-stream frame: claiming more bytes than the frame carries must
// fail, and a shortened claim must surface a batch that then fails the inner
// request-batch decode instead of yielding phantom operations.
func TestReplBatchEmbeddedTruncation(t *testing.T) {
	inner := AppendRequestBatch(nil, &RequestBatch{
		View: 3, SessionID: 9,
		Ops: []Op{{Kind: OpRMW, Seq: 7, Key: []byte("ctr"), Value: []byte("12345678")}},
	})
	frame := EncodeReplBatch(&ReplBatch{Seq: 5, Batch: inner})
	lenOff := 1 + 8 // type, seq

	over := append([]byte(nil), frame...)
	over[lenOff], over[lenOff+1], over[lenOff+2], over[lenOff+3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := DecodeReplBatch(over); err == nil {
		t.Fatal("embedded batch length past frame end accepted")
	}

	short := append([]byte(nil), frame[:len(frame)-3]...)
	if _, err := DecodeReplBatch(short); err == nil {
		t.Fatal("frame shorter than embedded batch length accepted")
	}

	// A batch length shortened by the corruption (consistent with the frame,
	// inconsistent with the embedded encoding) decodes at the repl layer but
	// the inner decode must reject the cut-off request batch.
	cut := append([]byte(nil), frame...)
	putTruncU32(cut[lenOff:], uint32(len(inner)-2))
	cut = cut[:len(cut)-2]
	rb, err := DecodeReplBatch(cut)
	if err != nil {
		t.Fatalf("repl layer rejected consistent shortened frame: %v", err)
	}
	var req RequestBatch
	if err := DecodeRequestBatch(rb.Batch, &req); err == nil {
		t.Fatal("truncated embedded request batch accepted")
	}
	if !bytes.Equal(rb.Batch, inner[:len(inner)-2]) {
		t.Fatal("embedded batch bytes do not alias the frame as documented")
	}
}

func putTruncU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// TestStampSeqNumbersEveryStreamFrame: for each numbered primary→backup frame
// type, stamping an encoded frame changes the Seq its decoder reads and
// nothing else — stamping the original number back restores the bytes.
func TestStampSeqNumbersEveryStreamFrame(t *testing.T) {
	const stamped = 0x0102030405060708
	for _, frame := range replStreamFrames()[2:8] { // BaseBegin … Heartbeat
		typ, _ := PeekType(frame)
		t.Run(fmt.Sprintf("type%d", typ), func(t *testing.T) {
			orig, _ := decodeReplFrame(frame)
			f := StampSeq(append([]byte(nil), frame...), stamped)
			if seq, ok := decodeReplFrame(f); !ok || seq != stamped {
				t.Fatalf("decoded seq %#x (ok=%v) after stamping %#x", seq, ok, uint64(stamped))
			}
			if !bytes.Equal(StampSeq(f, orig), frame) {
				t.Fatal("stamping touched bytes outside [1:9]")
			}
		})
	}
}
