package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/metadata"
)

// decoder is the one cursor every Decode* function reads a frame through.
// Getters return the value only. The first read past the end of the frame
// latches ErrShortFrame in err and drops the rest of the buffer, so every
// later read yields zero and the error cannot be overwritten: a decoder is
// straight-line field assignment that ends in `return r, d.err`, and the
// values it assigned are meaningless whenever that error is non-nil.
type decoder struct {
	buf []byte // unread remainder of the frame
	err error  // first failure; nil while every read so far was in bounds
}

// errBadType[t] is what open returns when a frame is not of type t, for
// every frame type that has a decoder of its own. The errors are built once
// here rather than per call so the two hot-path decoders stay allocation-free
// on malformed input too.
var errBadType = [...]error{
	MsgRequestBatch:       badType("request batch"),
	MsgResponseBatch:      badType("response batch"),
	MsgMigrate:            badType("migrate"),
	MsgCheckpointResp:     badType("checkpoint resp"),
	MsgSessionRecover:     badType("session recover"),
	MsgSessionRecoverResp: badType("session recover resp"),
	MsgCompactResp:        badType("compact resp"),
	MsgStatsResp:          badType("stats resp"),
	MsgMetaReq:            badType("meta req"),
	MsgMetaResp:           badType("meta resp"),
	MsgRebalanceResp:      badType("rebalance resp"),
	MsgBalanceStatusResp:  badType("balance status resp"),
	MsgReplAttach:         badType("repl attach"),
	MsgReplAttachResp:     badType("repl attach resp"),
	MsgReplBaseBegin:      badType("repl base begin"),
	MsgReplRecords:        badType("repl records"),
	MsgReplSessTab:        badType("repl sess tab"),
	MsgReplBaseDone:       badType("repl base done"),
	MsgReplBatch:          badType("repl batch"),
	MsgReplAck:            badType("repl ack"),
	MsgReplHeartbeat:      badType("repl heartbeat"),
	MsgDrainResp:          badType("drain resp"),
}

func badType(frame string) error { return fmt.Errorf("%w: %s", ErrBadType, frame) }

// open starts decoding buf as a frame of type want. An empty frame or any
// other type byte yields a cursor that already carries the ErrBadType error.
func open(buf []byte, want MsgType) decoder {
	if len(buf) == 0 || MsgType(buf[0]) != want {
		return decoder{err: errBadType[want]}
	}
	return decoder{buf: buf[1:]}
}

func (d *decoder) remaining() int { return len(d.buf) }

// fail latches the short-frame error (keeping an earlier one) and pins the
// cursor at end-of-buffer.
func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrShortFrame
	}
	d.buf = nil
}

// bytes returns the next n bytes, aliasing the frame.
func (d *decoder) bytes(n int) []byte {
	if n < 0 || n > len(d.buf) {
		d.fail()
		return nil
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v
}

// The fixed-width getters test the length themselves rather than going
// through bytes: measured on the 256-op request batch that is what puts the
// cursor ahead of the (value, error) getters it replaced.

func (d *decoder) u8() uint8 {
	if len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u16() uint16 {
	if len(d.buf) < 2 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v
}

func (d *decoder) u32() uint32 {
	if len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

// bool reads a single byte as a boolean.
func (d *decoder) bool() bool { return d.u8() != 0 }

// str reads a u16-length-prefixed string.
func (d *decoder) str() string { return string(d.bytes(int(d.u16()))) }

// count reads a u32 element count for a list whose elements encode to at
// least minElemBytes each. A count the rest of the frame cannot hold is a
// corrupt or hostile frame, not an allocation request: it fails the cursor
// and returns 0, so the caller's make and loop are sized by the frame's real
// length, never by four attacker-chosen bytes.
func (d *decoder) count(minElemBytes int) int {
	n := d.u32()
	if uint64(n) > uint64(d.remaining()/minElemBytes) {
		d.fail()
		return 0
	}
	return int(n)
}

// ranges reads a counted list of 16-byte hash ranges.
func (d *decoder) ranges() []metadata.HashRange {
	out := make([]metadata.HashRange, d.count(16))
	for i := range out {
		out[i] = metadata.HashRange{Start: d.u64(), End: d.u64()}
	}
	return out
}

// records reads a counted list of migration records; keys and values alias
// the frame.
func (d *decoder) records() []MigrationRecord {
	out := make([]MigrationRecord, d.count(15)) // hash+flags+klen+vlen
	for i := range out {
		r := &out[i]
		r.Hash = d.u64()
		r.Flags = d.u8()
		klen, vlen := int(d.u16()), int(d.u32())
		r.Key = d.bytes(klen)
		r.Value = d.bytes(vlen)
	}
	return out
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendBool encodes a boolean as one byte.
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendString encodes a u16-length-prefixed string. A string longer than
// the prefix can express is cut to the length actually written (these are
// ids, addresses and error texts; a clipped message beats a frame whose
// tail decodes as garbage).
func appendString(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendRanges encodes a counted list of hash ranges.
func appendRanges(dst []byte, rs []metadata.HashRange) []byte {
	dst = appendU32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = appendU64(dst, r.Start)
		dst = appendU64(dst, r.End)
	}
	return dst
}

// appendRecords encodes a counted list of migration records: per record
// hash, flags, klen(u16), vlen(u32), key, value.
func appendRecords(dst []byte, recs []MigrationRecord) []byte {
	dst = appendU32(dst, uint32(len(recs)))
	for i := range recs {
		r := &recs[i]
		dst = appendU64(dst, r.Hash)
		dst = append(dst, r.Flags)
		dst = appendU16(dst, uint16(len(r.Key)))
		dst = appendU32(dst, uint32(len(r.Value)))
		dst = append(dst, r.Key...)
		dst = append(dst, r.Value...)
	}
	return dst
}
