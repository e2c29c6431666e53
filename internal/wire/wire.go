// Package wire defines Shadowfax's binary message formats (§3.1, §3.3):
// view-tagged request/response batches between clients and servers, the
// migration RPCs between source and target (wire.go), the metadata-service
// and balancer control plane (meta.go) and the primary→backup replication
// stream (repl.go). Encoding is hand-rolled little-endian with zero
// reflection; the batch hot path allocates nothing beyond the batch buffers.
//
// Every frame is a type byte followed by fixed-order fields. Encoders append
// with the append* helpers; decoders read through the one cursor in
// cursor.go, and the contract is the same for all of them:
//
//   - open(buf, MsgX) checks the type byte, then read the fields in the order
//     the encoder wrote them (d.u8/u16/u32/u64/bool/str/bytes);
//   - size every slice with d.count(minElemBytes), never with a raw decoded
//     integer — count is the one place a length prefix is checked against
//     the bytes left in the frame;
//   - end with `return r, d.err`. The first short read latches ErrShortFrame
//     and every later read yields zero, so there is nothing to check between
//     fields — and the decoded values mean nothing when the error is non-nil.
//
// The package imports one thing from this module: internal/metadata, itself
// a standard-library-only leaf, for the cluster-state value types
// (HashRange, MigrationState, Snapshot). Frames carry those values as they
// are; a wire-side twin of each would need a converter at every boundary and
// could drift from the original field by field.
//
// A field appended to an existing frame goes at the tail, guarded by
// `if d.remaining() > 0`, so frames from older encoders still decode.
//
// Adding a frame is three steps: (1) the MsgX constant, the struct and its
// Encode function; (2) the Decode function, plus an errBadType entry so a
// wrong-type error names it; (3) a seed in fuzzSeeds() and an entry in
// frameDecoders (cursor_test.go), which buys the fuzzer, the every-prefix
// truncation test and the golden-bytes hash. shadowfax-vet's wireguard
// analyzer fails the build when a step is missing.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/metadata"
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

// OpHeaderBytes is the fixed part of one encoded request op — kind, seq,
// klen(u16), vlen(u32) — ahead of its key and value.
const OpHeaderBytes = 1 + 4 + 2 + 4

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
	d := open(buf, MsgRequestBatch)
	b.View = d.u64()
	b.SessionID = d.u64()
	n := d.count(OpHeaderBytes)
	if cap(b.Ops) < n {
		b.Ops = make([]Op, n) //shadowfax:ignore hotpathalloc amortized: grows to the high-water batch size once, then the buffer is reused
	}
	b.Ops = b.Ops[:n]
	for i := range b.Ops {
		op := &b.Ops[i]
		op.Kind = OpKind(d.u8())
		op.Seq = d.u32()
		klen, vlen := int(d.u16()), int(d.u32())
		op.Key = d.bytes(klen)
		op.Value = d.bytes(vlen)
	}
	return d.err
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
	d := open(buf, MsgResponseBatch)
	r.SessionID = d.u64()
	flags := d.u8()
	r.Rejected = flags&respFlagRejected != 0
	r.Shed = flags&respFlagShed != 0
	r.ServerView = d.u64()
	n := d.count(9) // seq+status+vlen
	if cap(r.Results) < n {
		r.Results = make([]Result, n) //shadowfax:ignore hotpathalloc amortized: grows to the high-water batch size once, then the buffer is reused
	}
	r.Results = r.Results[:n]
	for i := range r.Results {
		res := &r.Results[i]
		res.Seq = d.u32()
		res.Status = ResultStatus(d.u8())
		res.Value = d.bytes(int(d.u32()))
	}
	return d.err
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
	return appendString(dst, c.Target)
}

// DecodeMigrate parses a MsgMigrate frame.
func DecodeMigrate(buf []byte) (MigrateCmd, error) {
	d := open(buf, MsgMigrate)
	c := MigrateCmd{RangeStart: d.u64(), RangeEnd: d.u64()}
	c.Target = d.str()
	return c, d.err
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
	dst = appendString(dst, m.SourceID)
	dst = appendU64(dst, m.RangeStart)
	dst = appendU64(dst, m.RangeEnd)
	dst = appendU64(dst, m.ViewNumber)
	dst = appendBool(dst, m.Final)
	return appendRecords(dst, m.Records)
}

// DecodeMigrationMsg parses any migration frame; records alias buf.
func DecodeMigrationMsg(buf []byte) (MigrationMsg, error) {
	d := decoder{buf: buf}
	m := MigrationMsg{Type: MsgType(d.u8())}
	switch m.Type {
	case MsgPrepForTransfer, MsgTransferOwnership, MsgMigrationRecords,
		MsgCompleteMigration, MsgAck, MsgCompacted:
	default:
		if d.err != nil { // empty frame
			return m, d.err
		}
		return m, fmt.Errorf("%w: migration msg got %d", ErrBadType, m.Type)
	}
	m.MigrationID = d.u64()
	m.SourceID = d.str()
	m.RangeStart = d.u64()
	m.RangeEnd = d.u64()
	m.ViewNumber = d.u64()
	m.Final = d.bool()
	m.Records = d.records()
	return m, d.err
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
	dst = appendBool(dst, r.OK)
	dst = appendU32(dst, r.Version)
	dst = appendU64(dst, r.Tail)
	return appendString(dst, r.Err)
}

// DecodeCheckpointResp parses a MsgCheckpointResp frame.
func DecodeCheckpointResp(buf []byte) (CheckpointResp, error) {
	d := open(buf, MsgCheckpointResp)
	var r CheckpointResp
	r.OK = d.bool()
	r.Version = d.u32()
	r.Tail = d.u64()
	r.Err = d.str()
	return r, d.err
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
	dst = appendBool(dst, r.OK)
	dst = appendU64(dst, r.Scanned)
	dst = appendU64(dst, r.Kept)
	dst = appendU64(dst, r.Dropped)
	dst = appendU64(dst, r.Relocated)
	dst = appendU64(dst, r.Begin)
	dst = appendU64(dst, r.ReclaimedBytes)
	dst = appendU64(dst, r.TierReclaimed)
	return appendString(dst, r.Err)
}

// DecodeCompactResp parses a MsgCompactResp frame.
func DecodeCompactResp(buf []byte) (CompactResp, error) {
	d := open(buf, MsgCompactResp)
	var r CompactResp
	r.OK = d.bool()
	r.Scanned = d.u64()
	r.Kept = d.u64()
	r.Dropped = d.u64()
	r.Relocated = d.u64()
	r.Begin = d.u64()
	r.ReclaimedBytes = d.u64()
	r.TierReclaimed = d.u64()
	r.Err = d.str()
	return r, d.err
}

// StatsResp is a server's answer to a MsgStats admin request: identity,
// current ownership view, and a snapshot of the operational counters. It is
// also the public API's discovery handshake — ServerID plus the view let a
// client register an out-of-process server in its metadata cache.
type StatsResp struct {
	ServerID   string
	ViewNumber uint64
	Ranges     []metadata.HashRange // ranges owned at ViewNumber

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
	dst = appendString(dst, r.ServerID)
	dst = appendU64(dst, r.ViewNumber)
	dst = appendRanges(dst, r.Ranges)
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

// DecodeStatsResp parses a MsgStatsResp frame. A frame may end at either
// tail-append boundary (before BatchesShed, before the PR 10 counters): the
// absent fields decode as zero. A frame that ends inside a tail group is
// short like any other.
func DecodeStatsResp(buf []byte) (StatsResp, error) {
	d := open(buf, MsgStatsResp)
	var r StatsResp
	r.ServerID = d.str()
	r.ViewNumber = d.u64()
	r.Ranges = d.ranges()
	var pend uint64
	for _, p := range []*uint64{
		&r.OpsCompleted, &r.BatchesAccepted, &r.BatchesRejected, &r.DecodeErrors,
		&pend, &r.RemoteFetches, &r.ViewRefreshes,
		&r.Checkpoints, &r.CheckpointFailures,
		&r.Compactions, &r.CompactionFailures, &r.CompactRelocated,
		&r.CompactReclaimedBytes, &r.StorePendingReads,
		&r.LogBytes, &r.BalancePasses, &r.BalanceMigrations,
	} {
		*p = d.u64()
	}
	r.PendingOps = int64(pend)
	r.HashSample = make([]uint64, d.count(8))
	for i := range r.HashSample {
		r.HashSample[i] = d.u64()
	}
	if d.remaining() > 0 {
		r.BatchesShed = d.u64()
	}
	if d.remaining() > 0 {
		r.PendingCoalesced = d.u64()
		r.ReadCacheHits = d.u64()
		r.ReadCacheCopies = d.u64()
		r.DeviceBatchReads = d.u64()
	}
	return r, d.err
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
	return appendU64([]byte{byte(MsgSessionRecover)}, r.SessionID)
}

// DecodeSessionRecover parses a MsgSessionRecover frame.
func DecodeSessionRecover(buf []byte) (SessionRecover, error) {
	d := open(buf, MsgSessionRecover)
	r := SessionRecover{SessionID: d.u64()}
	return r, d.err
}

// EncodeSessionRecoverResp builds a MsgSessionRecoverResp frame.
func EncodeSessionRecoverResp(r SessionRecoverResp) []byte {
	dst := []byte{byte(MsgSessionRecoverResp)}
	dst = appendU64(dst, r.SessionID)
	dst = appendBool(dst, r.Known)
	return appendU32(dst, r.LastSeq)
}

// DecodeSessionRecoverResp parses a MsgSessionRecoverResp frame.
func DecodeSessionRecoverResp(buf []byte) (SessionRecoverResp, error) {
	d := open(buf, MsgSessionRecoverResp)
	var r SessionRecoverResp
	r.SessionID = d.u64()
	r.Known = d.bool()
	r.LastSeq = d.u32()
	return r, d.err
}

// PeekType returns a frame's message type without decoding it.
func PeekType(buf []byte) (MsgType, error) {
	if len(buf) == 0 {
		return 0, ErrShortFrame
	}
	return MsgType(buf[0]), nil
}
