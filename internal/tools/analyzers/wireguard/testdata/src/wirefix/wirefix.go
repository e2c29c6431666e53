// Package wirefix is the wireguard golden fixture: a miniature wire-format
// package with one frame per diagnostic category, positive and suppressed.
package wirefix

import "errors"

var errShort = errors.New("short frame")

// MsgType tags the first byte of every frame.
type MsgType uint8

const (
	// MsgGood has all three artifacts: guarded decoder, fuzz seed,
	// round-trip test.
	MsgGood MsgType = iota + 1
	// MsgBare is a bodyless (header-only) request: exempt from the decoder
	// and round-trip checks, still needs a seed.
	MsgBare
	MsgNoDecode // want `frame MsgNoDecode has no (decoder|round-trip test)`
	MsgNoSeed   // want `frame MsgNoSeed has no fuzz seed`
	MsgNoTrip   // want `frame MsgNoTrip has no round-trip test`
	// MsgDynA and MsgDynB share the dynamic encoder EncodeDyn; only DynA is
	// seeded.
	MsgDynA
	MsgDynB    // want `frame MsgDynB has no fuzz seed`
	MsgDropped //shadowfax:ignore wireguard retired frame kept for wire-compat numbering; decode path removed deliberately
)

// decoder mirrors the real package's sticky-error cursor: getters return
// the value only and the first short read latches err.
type decoder struct {
	buf []byte
	err error
}

func (d *decoder) u8() byte {
	if len(d.buf) == 0 {
		d.err, d.buf = errShort, nil
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) u32() uint32 {
	return uint32(d.u8()) | uint32(d.u8())<<8 | uint32(d.u8())<<16 | uint32(d.u8())<<24
}

// count is the guarded way to read a list length.
func (d *decoder) count(minElemBytes int) int {
	n := d.u32()
	if uint64(n) > uint64(len(d.buf)/minElemBytes) {
		d.err, d.buf = errShort, nil
		return 0
	}
	return int(n)
}

// open checks the type byte.
func open(buf []byte, want MsgType) decoder {
	if len(buf) == 0 || MsgType(buf[0]) != want {
		return decoder{err: errShort}
	}
	return decoder{buf: buf[1:]}
}

func EncodeGood(val []byte) []byte {
	dst := []byte{byte(MsgGood)}
	n := uint32(len(val))
	dst = append(dst, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	return append(dst, val...)
}

func DecodeGood(buf []byte) ([]byte, error) {
	d := open(buf, MsgGood)
	out := make([]byte, d.count(1))
	for i := range out {
		out[i] = d.u8()
	}
	return out, d.err
}

func EncodeBareReq() []byte {
	return []byte{byte(MsgBare)}
}

// EncodeNoDecode's frame has no decoder anywhere: receive-side rejection is
// accidental.
func EncodeNoDecode() []byte {
	dst := []byte{byte(MsgNoDecode)}
	return append(dst, 0xFF)
}

func EncodeNoSeed(v uint32) []byte {
	dst := []byte{byte(MsgNoSeed)}
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func DecodeNoSeed(buf []byte) ([]byte, error) {
	d := open(buf, MsgNoSeed)
	out := make([]byte, d.u32()) //shadowfax:ignore wireguard count is bounded by the connection read limit upstream
	for i := range out {
		out[i] = d.u8()
	}
	return out, d.err
}

func EncodeNoTrip(v uint32) []byte {
	dst := []byte{byte(MsgNoTrip)}
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// DecodeNoTrip sizes its allocation by a raw decoded count instead of
// count(): the unguarded case the analyzer exists to catch.
func DecodeNoTrip(buf []byte) ([]byte, error) {
	d := open(buf, MsgNoTrip)
	out := make([]byte, d.u32()) // want `never calls count`
	for i := range out {
		out[i] = d.u8()
	}
	return out, d.err
}

// Dyn is the dynamic-frame payload: one encoder and one decoder serve
// several frame types, like the real MigrationMsg.
type Dyn struct{ Type MsgType }

func EncodeDyn(m Dyn) []byte {
	return append([]byte{byte(m.Type)}, 1)
}

func DecodeDyn(buf []byte) (Dyn, error) {
	d := decoder{buf: buf}
	m := Dyn{Type: MsgType(d.u8())}
	switch m.Type {
	case MsgDynA, MsgDynB:
	default:
		return Dyn{}, errShort
	}
	return m, d.err
}
