// Package wire defines Shadowfax's binary message formats (§3.1, §3.3):
// view-tagged request/response batches between clients and servers, and the
// migration RPCs between source and target. Encoding is hand-rolled
// little-endian with zero reflection so the hot path allocates nothing
// beyond the batch buffers themselves.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType identifies a frame.
type MsgType uint8

// Frame types.
const (
	// MsgRequestBatch is a client→server batch of operations tagged with
	// the client's cached view number.
	MsgRequestBatch MsgType = iota + 1
	// MsgResponseBatch is the server's per-op results, or a batch-level
	// view rejection.
	MsgResponseBatch
	// MsgMigrate asks a source server to migrate a hash range to a target
	// (the Migrate() RPC of §3.3).
	MsgMigrate
	// MsgPrepForTransfer tells the target ownership transfer is imminent.
	MsgPrepForTransfer
	// MsgTransferOwnership moves the target into Target-Receive and carries
	// the sampled hot records.
	MsgTransferOwnership
	// MsgMigrationRecords is a batch of migrating records (Migrate phase).
	MsgMigrationRecords
	// MsgCompleteMigration moves the target into Target-Complete.
	MsgCompleteMigration
	// MsgAck acknowledges a migration RPC.
	MsgAck
	// MsgCompacted carries a record relocated during log compaction to the
	// hash range's current owner (§3.3.3).
	MsgCompacted
	// MsgCheckpoint asks a server to take a durable checkpoint now (admin).
	MsgCheckpoint
	// MsgCheckpointResp reports a completed (or failed) checkpoint.
	MsgCheckpointResp
	// MsgSessionRecover asks a recovered server for a client session's last
	// durable sequence number (client-assisted recovery, §3.3.1).
	MsgSessionRecover
	// MsgSessionRecoverResp answers MsgSessionRecover.
	MsgSessionRecoverResp
	// MsgCompact asks a server to run one log-compaction pass now (admin).
	MsgCompact
	// MsgCompactResp reports a completed (or failed) compaction pass with
	// its per-pass statistics.
	MsgCompactResp
	// MsgStats asks a server for a snapshot of its counters, identity and
	// current ownership view (admin). It doubles as the public API's
	// bootstrap handshake: the response carries everything a client needs
	// to register an out-of-process server in its metadata cache.
	MsgStats
	// MsgStatsResp answers MsgStats.
	MsgStatsResp
)

// OpKind is a client operation within a request batch.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota + 1
	OpUpsert
	OpRMW
	OpDelete
)

// ResultStatus is a per-operation outcome.
type ResultStatus uint8

// Result statuses. StatusOK..StatusErr travel on the wire; the remaining
// statuses are produced by the client library itself (they complete
// callbacks for operations that never reached, or never returned from, a
// server) and share the enum so one completion path handles both.
const (
	StatusOK ResultStatus = iota
	StatusNotFound
	StatusPending // internal: never leaves the server
	StatusErr
	// StatusNotOwner: no server owns the key's hash range, even after a
	// metadata refresh (client-side).
	StatusNotOwner
	// StatusClosed: the client was closed with the operation still
	// outstanding; it was never acknowledged by a server (client-side).
	StatusClosed
	// StatusBrokenSession: session recovery exhausted its retries and the
	// application failed the session's parked operations instead of waiting
	// forever; the operation may or may not have executed (client-side).
	StatusBrokenSession
)

// Errors.
var (
	ErrShortFrame = errors.New("wire: short frame")
	ErrBadType    = errors.New("wire: unexpected message type")
)

// Op is one operation in a request batch.
type Op struct {
	Kind  OpKind
	Seq   uint32 // client-assigned sequence within the session
	Key   []byte
	Value []byte // upsert value / RMW input
}

// RequestBatch is the unit of client→server traffic.
type RequestBatch struct {
	View      uint64 // client's cached view number for the server
	SessionID uint64
	Ops       []Op
}

// Result is one operation's outcome.
type Result struct {
	Seq    uint32
	Status ResultStatus
	Value  []byte
}

// ResponseBatch carries results, or a refusal: Rejected when the view check
// failed (re-resolve ownership and retry), Shed when admission control turned
// the batch away under overload (the view was fine — back off and retry the
// same server). Rejected and Shed share one flags byte on the wire, so old
// decoders read a shed batch as not-rejected with zero statuses.
type ResponseBatch struct {
	SessionID  uint64
	Rejected   bool
	Shed       bool
	ServerView uint64 // server's current view (hint on rejection)
	Results    []Result
}

// ResponseBatch flag bits (the byte after SessionID).
const (
	respFlagRejected = 1 << 0
	respFlagShed     = 1 << 1
)

// AppendRequestBatch encodes b after dst and returns the extended slice.
// Layout: type, view, session, count, then per op: kind, seq, klen(u16),
// vlen(u32), key, value.
//
//shadowfax:noalloc
func AppendRequestBatch(dst []byte, b *RequestBatch) []byte {
	dst = append(dst, byte(MsgRequestBatch))
	dst = appendU64(dst, b.View)
	dst = appendU64(dst, b.SessionID)
	dst = appendU32(dst, uint32(len(b.Ops)))
	for i := range b.Ops {
		op := &b.Ops[i]
		dst = append(dst, byte(op.Kind))
		dst = appendU32(dst, op.Seq)
		dst = appendU16(dst, uint16(len(op.Key)))
		dst = appendU32(dst, uint32(len(op.Value)))
		dst = append(dst, op.Key...)
		dst = append(dst, op.Value...)
	}
	return dst
}

// DecodeRequestBatch parses a frame produced by AppendRequestBatch. The
// returned batch aliases buf; ops are decoded into b.Ops (reused).
//
//shadowfax:noalloc
func DecodeRequestBatch(buf []byte, b *RequestBatch) error {
	d := decoder{buf: buf}
	if t, err := d.u8(); err != nil || MsgType(t) != MsgRequestBatch {
		return fmt.Errorf("%w: request batch", ErrBadType) //shadowfax:ignore hotpathalloc malformed-frame error path; never taken for well-formed traffic
	}
	var err error
	if b.View, err = d.u64(); err != nil {
		return err
	}
	if b.SessionID, err = d.u64(); err != nil {
		return err
	}
	n, err := d.u32()
	if err != nil {
		return err
	}
	// Each op encodes to at least 11 bytes (kind+seq+klen+vlen); a count the
	// remaining frame cannot hold is a corrupt or hostile frame, not an
	// allocation request.
	if uint64(n) > uint64(d.remaining())/11 {
		return ErrShortFrame
	}
	if cap(b.Ops) < int(n) {
		b.Ops = make([]Op, n) //shadowfax:ignore hotpathalloc amortized: grows to the high-water batch size once, then the buffer is reused
	}
	b.Ops = b.Ops[:n]
	for i := range b.Ops {
		op := &b.Ops[i]
		k, err := d.u8()
		if err != nil {
			return err
		}
		op.Kind = OpKind(k)
		if op.Seq, err = d.u32(); err != nil {
			return err
		}
		klen, err := d.u16()
		if err != nil {
			return err
		}
		vlen, err := d.u32()
		if err != nil {
			return err
		}
		if op.Key, err = d.bytes(int(klen)); err != nil {
			return err
		}
		if op.Value, err = d.bytes(int(vlen)); err != nil {
			return err
		}
	}
	return nil
}

// AppendResponseBatch encodes r after dst.
//
//shadowfax:noalloc
func AppendResponseBatch(dst []byte, r *ResponseBatch) []byte {
	dst = append(dst, byte(MsgResponseBatch))
	dst = appendU64(dst, r.SessionID)
	var flags byte
	if r.Rejected {
		flags |= respFlagRejected
	}
	if r.Shed {
		flags |= respFlagShed
	}
	dst = append(dst, flags)
	dst = appendU64(dst, r.ServerView)
	dst = appendU32(dst, uint32(len(r.Results)))
	for i := range r.Results {
		res := &r.Results[i]
		dst = appendU32(dst, res.Seq)
		dst = append(dst, byte(res.Status))
		dst = appendU32(dst, uint32(len(res.Value)))
		dst = append(dst, res.Value...)
	}
	return dst
}

// DecodeResponseBatch parses a response frame; the result aliases buf.
//
//shadowfax:noalloc
func DecodeResponseBatch(buf []byte, r *ResponseBatch) error {
	d := decoder{buf: buf}
	if t, err := d.u8(); err != nil || MsgType(t) != MsgResponseBatch {
		return fmt.Errorf("%w: response batch", ErrBadType) //shadowfax:ignore hotpathalloc malformed-frame error path; never taken for well-formed traffic
	}
	var err error
	if r.SessionID, err = d.u64(); err != nil {
		return err
	}
	flags, err := d.u8()
	if err != nil {
		return err
	}
	r.Rejected = flags&respFlagRejected != 0
	r.Shed = flags&respFlagShed != 0
	if r.ServerView, err = d.u64(); err != nil {
		return err
	}
	n, err := d.u32()
	if err != nil {
		return err
	}
	// Each result encodes to at least 9 bytes (seq+status+vlen).
	if uint64(n) > uint64(d.remaining())/9 {
		return ErrShortFrame
	}
	if cap(r.Results) < int(n) {
		r.Results = make([]Result, n) //shadowfax:ignore hotpathalloc amortized: grows to the high-water batch size once, then the buffer is reused
	}
	r.Results = r.Results[:n]
	for i := range r.Results {
		res := &r.Results[i]
		if res.Seq, err = d.u32(); err != nil {
			return err
		}
		st, err := d.u8()
		if err != nil {
			return err
		}
		res.Status = ResultStatus(st)
		vlen, err := d.u32()
		if err != nil {
			return err
		}
		if res.Value, err = d.bytes(int(vlen)); err != nil {
			return err
		}
	}
	return nil
}

// MigrateCmd asks a server to migrate a hash range (client→source).
type MigrateCmd struct {
	Target     string
	RangeStart uint64
	RangeEnd   uint64
}

// EncodeMigrate builds a MsgMigrate frame.
func EncodeMigrate(c MigrateCmd) []byte {
	dst := []byte{byte(MsgMigrate)}
	dst = appendU64(dst, c.RangeStart)
	dst = appendU64(dst, c.RangeEnd)
	dst = appendU16(dst, uint16(len(c.Target)))
	dst = append(dst, c.Target...)
	return dst
}

// DecodeMigrate parses a MsgMigrate frame.
func DecodeMigrate(buf []byte) (MigrateCmd, error) {
	d := decoder{buf: buf}
	var c MigrateCmd
	if t, err := d.u8(); err != nil || MsgType(t) != MsgMigrate {
		return c, fmt.Errorf("%w: migrate", ErrBadType)
	}
	var err error
	if c.RangeStart, err = d.u64(); err != nil {
		return c, err
	}
	if c.RangeEnd, err = d.u64(); err != nil {
		return c, err
	}
	n, err := d.u16()
	if err != nil {
		return c, err
	}
	tb, err := d.bytes(int(n))
	if err != nil {
		return c, err
	}
	c.Target = string(tb)
	return c, nil
}

// MigrationRecord is one record inside migration RPC payloads.
type MigrationRecord struct {
	Hash  uint64
	Flags uint8 // bit 0: tombstone, bit 1: indirection
	Key   []byte
	Value []byte
}

// Record flag bits.
const (
	RecFlagTombstone   = 1 << 0
	RecFlagIndirection = 1 << 1
)

// MigrationMsg is the payload shared by PrepForTransfer, TransferOwnership,
// MigrationRecords, CompleteMigration and Ack frames.
type MigrationMsg struct {
	Type        MsgType
	MigrationID uint64
	SourceID    string
	RangeStart  uint64
	RangeEnd    uint64
	ViewNumber  uint64 // target's new view number (TransferOwnership)
	Final       bool   // MigrationRecords: last batch from this thread
	Records     []MigrationRecord
}

// EncodeMigrationMsg builds a migration frame of m.Type.
func EncodeMigrationMsg(m *MigrationMsg) []byte {
	dst := []byte{byte(m.Type)}
	dst = appendU64(dst, m.MigrationID)
	dst = appendU16(dst, uint16(len(m.SourceID)))
	dst = append(dst, m.SourceID...)
	dst = appendU64(dst, m.RangeStart)
	dst = appendU64(dst, m.RangeEnd)
	dst = appendU64(dst, m.ViewNumber)
	if m.Final {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU32(dst, uint32(len(m.Records)))
	for i := range m.Records {
		r := &m.Records[i]
		dst = appendU64(dst, r.Hash)
		dst = append(dst, r.Flags)
		dst = appendU16(dst, uint16(len(r.Key)))
		dst = appendU32(dst, uint32(len(r.Value)))
		dst = append(dst, r.Key...)
		dst = append(dst, r.Value...)
	}
	return dst
}

// DecodeMigrationMsg parses any migration frame; records alias buf.
func DecodeMigrationMsg(buf []byte) (MigrationMsg, error) {
	d := decoder{buf: buf}
	var m MigrationMsg
	t, err := d.u8()
	if err != nil {
		return m, err
	}
	m.Type = MsgType(t)
	switch m.Type {
	case MsgPrepForTransfer, MsgTransferOwnership, MsgMigrationRecords,
		MsgCompleteMigration, MsgAck, MsgCompacted:
	default:
		return m, fmt.Errorf("%w: migration msg got %d", ErrBadType, t)
	}
	if m.MigrationID, err = d.u64(); err != nil {
		return m, err
	}
	n, err := d.u16()
	if err != nil {
		return m, err
	}
	src, err := d.bytes(int(n))
	if err != nil {
		return m, err
	}
	m.SourceID = string(src)
	if m.RangeStart, err = d.u64(); err != nil {
		return m, err
	}
	if m.RangeEnd, err = d.u64(); err != nil {
		return m, err
	}
	if m.ViewNumber, err = d.u64(); err != nil {
		return m, err
	}
	fin, err := d.u8()
	if err != nil {
		return m, err
	}
	m.Final = fin != 0
	cnt, err := d.u32()
	if err != nil {
		return m, err
	}
	// Each record encodes to at least 15 bytes (hash+flags+klen+vlen).
	if uint64(cnt) > uint64(d.remaining())/15 {
		return m, ErrShortFrame
	}
	m.Records = make([]MigrationRecord, cnt)
	for i := range m.Records {
		r := &m.Records[i]
		if r.Hash, err = d.u64(); err != nil {
			return m, err
		}
		if r.Flags, err = d.u8(); err != nil {
			return m, err
		}
		klen, err := d.u16()
		if err != nil {
			return m, err
		}
		vlen, err := d.u32()
		if err != nil {
			return m, err
		}
		if r.Key, err = d.bytes(int(klen)); err != nil {
			return m, err
		}
		if r.Value, err = d.bytes(int(vlen)); err != nil {
			return m, err
		}
	}
	return m, nil
}

// CheckpointResp is a server's answer to a MsgCheckpoint admin request.
type CheckpointResp struct {
	OK      bool
	Version uint32 // sealed CPR version
	Tail    uint64 // log prefix the image covers
	Err     string // failure detail when !OK
}

// EncodeCheckpointReq builds a MsgCheckpoint frame.
func EncodeCheckpointReq() []byte {
	return []byte{byte(MsgCheckpoint)}
}

// EncodeCheckpointResp builds a MsgCheckpointResp frame.
func EncodeCheckpointResp(r CheckpointResp) []byte {
	dst := []byte{byte(MsgCheckpointResp)}
	if r.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU32(dst, r.Version)
	dst = appendU64(dst, r.Tail)
	dst = appendU16(dst, uint16(len(r.Err)))
	dst = append(dst, r.Err...)
	return dst
}

// DecodeCheckpointResp parses a MsgCheckpointResp frame.
func DecodeCheckpointResp(buf []byte) (CheckpointResp, error) {
	d := decoder{buf: buf}
	var r CheckpointResp
	if t, err := d.u8(); err != nil || MsgType(t) != MsgCheckpointResp {
		return r, fmt.Errorf("%w: checkpoint resp", ErrBadType)
	}
	ok, err := d.u8()
	if err != nil {
		return r, err
	}
	r.OK = ok != 0
	if r.Version, err = d.u32(); err != nil {
		return r, err
	}
	if r.Tail, err = d.u64(); err != nil {
		return r, err
	}
	n, err := d.u16()
	if err != nil {
		return r, err
	}
	eb, err := d.bytes(int(n))
	if err != nil {
		return r, err
	}
	r.Err = string(eb)
	return r, nil
}

// CompactResp is a server's answer to a MsgCompact admin request: the
// per-pass compaction statistics (§3.3.3).
type CompactResp struct {
	OK  bool
	Err string // failure detail when !OK

	Scanned   uint64 // records examined in the stable prefix
	Kept      uint64 // live records copied forward to the tail
	Dropped   uint64 // superseded versions, tombstones, indirection records
	Relocated uint64 // disowned records shipped to their current owner

	Begin          uint64 // log begin address after the pass
	ReclaimedBytes uint64 // local device bytes freed
	TierReclaimed  uint64 // shared-tier bytes freed
}

// EncodeCompactReq builds a MsgCompact frame.
func EncodeCompactReq() []byte {
	return []byte{byte(MsgCompact)}
}

// EncodeCompactResp builds a MsgCompactResp frame.
func EncodeCompactResp(r CompactResp) []byte {
	dst := []byte{byte(MsgCompactResp)}
	if r.OK {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU64(dst, r.Scanned)
	dst = appendU64(dst, r.Kept)
	dst = appendU64(dst, r.Dropped)
	dst = appendU64(dst, r.Relocated)
	dst = appendU64(dst, r.Begin)
	dst = appendU64(dst, r.ReclaimedBytes)
	dst = appendU64(dst, r.TierReclaimed)
	dst = appendU16(dst, uint16(len(r.Err)))
	dst = append(dst, r.Err...)
	return dst
}

// DecodeCompactResp parses a MsgCompactResp frame.
func DecodeCompactResp(buf []byte) (CompactResp, error) {
	d := decoder{buf: buf}
	var r CompactResp
	if t, err := d.u8(); err != nil || MsgType(t) != MsgCompactResp {
		return r, fmt.Errorf("%w: compact resp", ErrBadType)
	}
	ok, err := d.u8()
	if err != nil {
		return r, err
	}
	r.OK = ok != 0
	for _, p := range []*uint64{&r.Scanned, &r.Kept, &r.Dropped, &r.Relocated,
		&r.Begin, &r.ReclaimedBytes, &r.TierReclaimed} {
		if *p, err = d.u64(); err != nil {
			return r, err
		}
	}
	n, err := d.u16()
	if err != nil {
		return r, err
	}
	eb, err := d.bytes(int(n))
	if err != nil {
		return r, err
	}
	r.Err = string(eb)
	return r, nil
}

// Range is a half-open hash interval inside a StatsResp (the wire twin of
// metadata.HashRange; the wire package depends on nothing internal).
type Range struct {
	Start, End uint64
}

// StatsResp is a server's answer to a MsgStats admin request: identity,
// current ownership view, and a snapshot of the operational counters. It is
// also the public API's discovery handshake — ServerID plus the view let a
// client register an out-of-process server in its metadata cache.
type StatsResp struct {
	ServerID   string
	ViewNumber uint64
	Ranges     []Range // ranges owned at ViewNumber

	OpsCompleted    uint64
	BatchesAccepted uint64
	BatchesRejected uint64
	// BatchesShed counts batches refused by admission control. Encoded after
	// HashSample (a tail append; absent in frames from older servers).
	BatchesShed   uint64
	DecodeErrors  uint64
	PendingOps    int64 // target-side pending set (may be mid-flight negative-free)
	RemoteFetches uint64
	ViewRefreshes uint64

	Checkpoints        uint64
	CheckpointFailures uint64

	Compactions           uint64
	CompactionFailures    uint64
	CompactRelocated      uint64
	CompactReclaimedBytes uint64

	StorePendingReads uint64 // pending storage I/Os the store has issued

	// Cold-read pipeline and read-cache counters (PR 10). Encoded after
	// BatchesShed (tail appends; absent in frames from older servers).
	PendingCoalesced uint64 // pending reads that shared an in-flight device read
	ReadCacheHits    uint64 // in-memory hits on read-cache-promoted keys
	ReadCacheCopies  uint64 // records copied to the tail by the read cache
	DeviceBatchReads uint64 // batched device read submissions

	// LogBytes is the server's HybridLog footprint (tail − begin), the
	// balancer's per-server space-accounting input.
	LogBytes uint64
	// BalancePasses / BalanceMigrations count the hosted balancer's planning
	// passes and the migrations it triggered (zero unless the server runs
	// the auto-scale balancer).
	BalancePasses     uint64
	BalanceMigrations uint64

	// HashSample is a snapshot of recently served key hashes, drawn from the
	// dispatchers' per-thread sampling rings. The balancer derives both the
	// per-hash-range load split and the migration split point from this
	// distribution (hot keys appear proportionally more often).
	HashSample []uint64
}

// EncodeStatsReq builds a MsgStats frame.
func EncodeStatsReq() []byte {
	return []byte{byte(MsgStats)}
}

// EncodeStatsResp builds a MsgStatsResp frame.
func EncodeStatsResp(r StatsResp) []byte {
	dst := []byte{byte(MsgStatsResp)}
	dst = appendU16(dst, uint16(len(r.ServerID)))
	dst = append(dst, r.ServerID...)
	dst = appendU64(dst, r.ViewNumber)
	dst = appendU32(dst, uint32(len(r.Ranges)))
	for _, rng := range r.Ranges {
		dst = appendU64(dst, rng.Start)
		dst = appendU64(dst, rng.End)
	}
	for _, v := range []uint64{
		r.OpsCompleted, r.BatchesAccepted, r.BatchesRejected, r.DecodeErrors,
		uint64(r.PendingOps), r.RemoteFetches, r.ViewRefreshes,
		r.Checkpoints, r.CheckpointFailures,
		r.Compactions, r.CompactionFailures, r.CompactRelocated,
		r.CompactReclaimedBytes, r.StorePendingReads,
		r.LogBytes, r.BalancePasses, r.BalanceMigrations,
	} {
		dst = appendU64(dst, v)
	}
	dst = appendU32(dst, uint32(len(r.HashSample)))
	for _, h := range r.HashSample {
		dst = appendU64(dst, h)
	}
	dst = appendU64(dst, r.BatchesShed) // tail append (see StatsResp)
	for _, v := range []uint64{
		r.PendingCoalesced, r.ReadCacheHits, r.ReadCacheCopies, r.DeviceBatchReads,
	} {
		dst = appendU64(dst, v) // tail appends (see StatsResp)
	}
	return dst
}

// DecodeStatsResp parses a MsgStatsResp frame.
func DecodeStatsResp(buf []byte) (StatsResp, error) {
	d := decoder{buf: buf}
	var r StatsResp
	if t, err := d.u8(); err != nil || MsgType(t) != MsgStatsResp {
		return r, fmt.Errorf("%w: stats resp", ErrBadType)
	}
	n, err := d.u16()
	if err != nil {
		return r, err
	}
	id, err := d.bytes(int(n))
	if err != nil {
		return r, err
	}
	r.ServerID = string(id)
	if r.ViewNumber, err = d.u64(); err != nil {
		return r, err
	}
	cnt, err := d.u32()
	if err != nil {
		return r, err
	}
	// Each range encodes to 16 bytes; a count the remaining frame cannot
	// hold is a corrupt or hostile frame, not an allocation request.
	if uint64(cnt) > uint64(d.remaining())/16 {
		return r, ErrShortFrame
	}
	r.Ranges = make([]Range, cnt)
	for i := range r.Ranges {
		if r.Ranges[i].Start, err = d.u64(); err != nil {
			return r, err
		}
		if r.Ranges[i].End, err = d.u64(); err != nil {
			return r, err
		}
	}
	var pend uint64
	for _, p := range []*uint64{
		&r.OpsCompleted, &r.BatchesAccepted, &r.BatchesRejected, &r.DecodeErrors,
		&pend, &r.RemoteFetches, &r.ViewRefreshes,
		&r.Checkpoints, &r.CheckpointFailures,
		&r.Compactions, &r.CompactionFailures, &r.CompactRelocated,
		&r.CompactReclaimedBytes, &r.StorePendingReads,
		&r.LogBytes, &r.BalancePasses, &r.BalanceMigrations,
	} {
		if *p, err = d.u64(); err != nil {
			return r, err
		}
	}
	r.PendingOps = int64(pend)
	scnt, err := d.u32()
	if err != nil {
		return r, err
	}
	// Each sampled hash encodes to 8 bytes (count guard as above).
	if uint64(scnt) > uint64(d.remaining())/8 {
		return r, ErrShortFrame
	}
	if scnt > 0 {
		r.HashSample = make([]uint64, scnt)
	}
	for i := range r.HashSample {
		if r.HashSample[i], err = d.u64(); err != nil {
			return r, err
		}
	}
	if d.remaining() >= 8 {
		if r.BatchesShed, err = d.u64(); err != nil {
			return r, err
		}
	}
	for _, p := range []*uint64{
		&r.PendingCoalesced, &r.ReadCacheHits, &r.ReadCacheCopies, &r.DeviceBatchReads,
	} {
		if d.remaining() < 8 {
			break // older frame: tail fields absent
		}
		if *p, err = d.u64(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// SessionRecover asks a recovered server where a client session's durable
// prefix ends.
type SessionRecover struct {
	SessionID uint64
}

// SessionRecoverResp carries the session's last durable sequence number.
// Known is false when the server's recovered image has no record of the
// session (every in-flight operation must then be replayed).
type SessionRecoverResp struct {
	SessionID uint64
	Known     bool
	LastSeq   uint32
}

// EncodeSessionRecover builds a MsgSessionRecover frame.
func EncodeSessionRecover(r SessionRecover) []byte {
	dst := []byte{byte(MsgSessionRecover)}
	dst = appendU64(dst, r.SessionID)
	return dst
}

// DecodeSessionRecover parses a MsgSessionRecover frame.
func DecodeSessionRecover(buf []byte) (SessionRecover, error) {
	d := decoder{buf: buf}
	var r SessionRecover
	if t, err := d.u8(); err != nil || MsgType(t) != MsgSessionRecover {
		return r, fmt.Errorf("%w: session recover", ErrBadType)
	}
	var err error
	if r.SessionID, err = d.u64(); err != nil {
		return r, err
	}
	return r, nil
}

// EncodeSessionRecoverResp builds a MsgSessionRecoverResp frame.
func EncodeSessionRecoverResp(r SessionRecoverResp) []byte {
	dst := []byte{byte(MsgSessionRecoverResp)}
	dst = appendU64(dst, r.SessionID)
	if r.Known {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = appendU32(dst, r.LastSeq)
	return dst
}

// DecodeSessionRecoverResp parses a MsgSessionRecoverResp frame.
func DecodeSessionRecoverResp(buf []byte) (SessionRecoverResp, error) {
	d := decoder{buf: buf}
	var r SessionRecoverResp
	if t, err := d.u8(); err != nil || MsgType(t) != MsgSessionRecoverResp {
		return r, fmt.Errorf("%w: session recover resp", ErrBadType)
	}
	var err error
	if r.SessionID, err = d.u64(); err != nil {
		return r, err
	}
	known, err := d.u8()
	if err != nil {
		return r, err
	}
	r.Known = known != 0
	if r.LastSeq, err = d.u32(); err != nil {
		return r, err
	}
	return r, nil
}

// PeekType returns a frame's message type without decoding it.
func PeekType(buf []byte) (MsgType, error) {
	if len(buf) == 0 {
		return 0, ErrShortFrame
	}
	return MsgType(buf[0]), nil
}

// decoder is a bounds-checked little-endian reader.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) u8() (uint8, error) {
	if d.off+1 > len(d.buf) {
		return 0, ErrShortFrame
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, ErrShortFrame
	}
	v := binary.LittleEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, ErrShortFrame
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.off+8 > len(d.buf) {
		return 0, ErrShortFrame
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, ErrShortFrame
	}
	v := d.buf[d.off : d.off+n]
	d.off += n
	return v, nil
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
