package wire

import (
	"errors"
	"strings"
	"testing"
)

// dec adapts a value-returning decoder to the error-only shape frameDecoders
// is keyed on.
func dec[T any](f func([]byte) (T, error)) func([]byte) error {
	return func(buf []byte) error {
		_, err := f(buf)
		return err
	}
}

// frameDecoders maps every frame type that has a body to its decoder. Bare
// request frames (MsgCheckpoint, MsgCompact, MsgStats, MsgRebalance,
// MsgBalanceStatus, MsgDrain) are one type byte and are dispatched on
// PeekType alone, so they have no entry.
var frameDecoders = map[MsgType]func([]byte) error{
	MsgRequestBatch:       func(b []byte) error { return DecodeRequestBatch(b, new(RequestBatch)) },
	MsgResponseBatch:      func(b []byte) error { return DecodeResponseBatch(b, new(ResponseBatch)) },
	MsgMigrate:            dec(DecodeMigrate),
	MsgPrepForTransfer:    dec(DecodeMigrationMsg),
	MsgTransferOwnership:  dec(DecodeMigrationMsg),
	MsgMigrationRecords:   dec(DecodeMigrationMsg),
	MsgCompleteMigration:  dec(DecodeMigrationMsg),
	MsgAck:                dec(DecodeMigrationMsg),
	MsgCompacted:          dec(DecodeMigrationMsg),
	MsgCheckpointResp:     dec(DecodeCheckpointResp),
	MsgSessionRecover:     dec(DecodeSessionRecover),
	MsgSessionRecoverResp: dec(DecodeSessionRecoverResp),
	MsgCompactResp:        dec(DecodeCompactResp),
	MsgStatsResp:          dec(DecodeStatsResp),
	MsgMetaReq:            dec(DecodeMetaReq),
	MsgMetaResp:           dec(DecodeMetaResp),
	MsgRebalanceResp:      dec(DecodeRebalanceResp),
	MsgBalanceStatusResp:  dec(DecodeBalanceStatusResp),
	MsgReplAttach:         dec(DecodeReplAttach),
	MsgReplAttachResp:     dec(DecodeReplAttachResp),
	MsgReplBaseBegin:      dec(DecodeReplBaseBegin),
	MsgReplRecords:        dec(DecodeReplRecords),
	MsgReplSessTab:        dec(DecodeReplSessTab),
	MsgReplBaseDone:       dec(DecodeReplBaseDone),
	MsgReplBatch:          dec(DecodeReplBatch),
	MsgReplAck:            dec(DecodeReplAck),
	MsgReplHeartbeat:      dec(DecodeReplHeartbeat),
	MsgDrainResp:          dec(DecodeDrainResp),
}

// tailBoundaries lists, per frame type, how many bytes before the end of a
// current-format frame an older encoder's frame stops. These are the only
// strict prefixes a decoder may accept: each is a documented tail append
// whose absent fields decode as zero.
var tailBoundaries = map[MsgType][]int{
	MsgStatsResp:         {5 * 8, 4 * 8}, // before BatchesShed; before the four PR 10 counters
	MsgMetaResp:          {4},            // before the Promoted list (its count)
	MsgBalanceStatusResp: {8},            // before DegradedMs
}

// TestSeedsEveryPrefix feeds every strict prefix of every seed frame to the
// decoder for its type. A cut frame must come back as ErrShortFrame or
// ErrBadType — never a panic, and never nil with a half-filled struct, which
// is what a decoder that forgets to return d.err produces.
func TestSeedsEveryPrefix(t *testing.T) {
	for si, seed := range append(fuzzSeeds(), replStreamFrames()...) {
		typ, _ := PeekType(seed)
		decode, ok := frameDecoders[typ]
		if !ok {
			if len(seed) != 1 {
				t.Fatalf("seed %d: type %d has a body but no decoder in frameDecoders", si, typ)
			}
			continue
		}
		if err := decode(seed); err != nil {
			t.Fatalf("seed %d (type %d): whole frame rejected: %v", si, typ, err)
		}
		// The same body under a type byte no frame uses is a type error, not
		// a decode of zeros (what a missing errBadType entry would produce).
		wrong := append([]byte{0xEE}, seed[1:]...)
		if err := decode(wrong); !errors.Is(err, ErrBadType) {
			t.Errorf("seed %d (type %d): wrong type byte: err %v, want ErrBadType", si, typ, err)
		}
		allowed := map[int]bool{}
		for _, back := range tailBoundaries[typ] {
			allowed[len(seed)-back] = true
		}
		for n := 0; n < len(seed); n++ {
			err := decode(seed[:n:n])
			switch {
			case allowed[n]:
				if err != nil {
					t.Errorf("seed %d (type %d): old-format frame of %d/%d bytes rejected: %v",
						si, typ, n, len(seed), err)
				}
			case err == nil:
				t.Errorf("seed %d (type %d): prefix %d/%d decoded without error",
					si, typ, n, len(seed))
			case !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadType):
				t.Errorf("seed %d (type %d): prefix %d/%d: unexpected error %v",
					si, typ, n, len(seed), err)
			}
		}
	}
}

// TestCursorStickyError pins the cursor contract: the first short read
// latches ErrShortFrame, every later read yields zero, and an earlier error
// (open's ErrBadType) is never overwritten.
func TestCursorStickyError(t *testing.T) {
	d := decoder{buf: []byte{1, 2, 3, 0xAA, 0xBB}}
	if v := d.u16(); v != 0x0201 || d.err != nil {
		t.Fatalf("u16 = %#x, err %v", v, d.err)
	}
	if v := d.u32(); v != 0 || d.err != ErrShortFrame {
		t.Fatalf("short u32 = %#x, err %v", v, d.err)
	}
	// The three unread bytes are gone: nothing after a failure reads data.
	if d.u8() != 0 || d.u64() != 0 || d.str() != "" || d.bool() || d.bytes(1) != nil ||
		d.count(1) != 0 || d.remaining() != 0 || d.err != ErrShortFrame {
		t.Fatalf("reads after a failure returned data: %+v", d)
	}

	bad := open([]byte{byte(MsgReplAck), 9, 9, 9, 9, 9, 9, 9, 9}, MsgStatsResp)
	if bad.u64() != 0 || !errors.Is(bad.err, ErrBadType) || errors.Is(bad.err, ErrShortFrame) {
		t.Fatalf("open on the wrong type: err %v", bad.err)
	}
	if !strings.Contains(bad.err.Error(), "stats resp") {
		t.Fatalf("bad-type error does not name the wanted frame: %v", bad.err)
	}
	if e := open(nil, MsgRequestBatch); !errors.Is(e.err, ErrBadType) {
		t.Fatalf("open on an empty frame: err %v", e.err)
	}
}

// TestStringLengthPrefixTruncates: a string longer than its u16 length
// prefix can express is cut to the length written, not appended whole (the
// old encoding decoded "successfully" as len mod 65536 bytes followed by
// trailing garbage).
func TestStringLengthPrefixTruncates(t *testing.T) {
	for _, n := range []int{65535, 65536, 70000} {
		in := CheckpointResp{Version: 7, Tail: 9, Err: strings.Repeat("e", n)}
		frame := EncodeCheckpointResp(in)
		want := min(n, 65535)
		if got := 1 + 1 + 4 + 8 + 2 + want; len(frame) != got {
			t.Fatalf("len %d: frame is %d bytes, want %d (no bytes beyond the prefix)", n, len(frame), got)
		}
		out, err := DecodeCheckpointResp(frame)
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if out.Err != in.Err[:want] || out.Version != 7 || out.Tail != 9 {
			t.Fatalf("len %d: decoded %d-byte Err, want %d", n, len(out.Err), want)
		}
	}
}
