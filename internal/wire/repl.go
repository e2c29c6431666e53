package wire

import "encoding/binary"

// Primary→backup replication frames (continuing the MsgType enum), plus the
// scale-in drain admin frames. The replication stream has two parts: a base
// sync (BaseBegin, Records*, SessTab, BaseDone) shipping the sealed pre-cut
// state, and a live stream (Batch frames embedding the primary's accepted
// client request batches verbatim). Every primary→backup frame carries a
// strictly-increasing Seq; the backup acknowledges cumulatively with Ack.
const (
	// MsgReplAttach asks a primary to start replicating to the sender.
	MsgReplAttach MsgType = iota + 24
	// MsgReplAttachResp accepts or refuses the attach.
	MsgReplAttachResp
	// MsgReplBaseBegin opens the base sync: the sealed CPR version and the
	// cut tail the scan is taken against.
	MsgReplBaseBegin
	// MsgReplRecords is a batch of base-state records (migration-record
	// encoding; installed via ConditionalInsert).
	MsgReplRecords
	// MsgReplSessTab ships the primary's client session table restricted to
	// the sealed version, so the backup answers session recovery correctly
	// after promotion.
	MsgReplSessTab
	// MsgReplBaseDone closes the base sync; buffered live batches apply.
	MsgReplBaseDone
	// MsgReplBatch embeds one accepted client request batch verbatim.
	MsgReplBatch
	// MsgReplAck is the backup's cumulative acknowledgement.
	MsgReplAck
	// MsgReplHeartbeat keeps the stream alive while the primary is idle.
	MsgReplHeartbeat
	// MsgDrain asks a server to migrate all its ranges away and retire
	// (scale-in admin).
	MsgDrain
	// MsgDrainResp reports the drain's outcome.
	MsgDrainResp
)

// StampSeq numbers an encoded primary→backup frame in place and returns it.
// Every numbered frame (BaseBegin, Records, SessTab, BaseDone, Batch,
// Heartbeat) carries Seq at bytes [1:9], right behind the type byte, so the
// primary encodes a frame with Seq zero and assigns the number under the
// stream's send lock.
func StampSeq(frame []byte, seq uint64) []byte {
	binary.LittleEndian.PutUint64(frame[1:9], seq)
	return frame
}

// ReplAttach asks a primary to accept the sender as its backup.
type ReplAttach struct {
	PrimaryID    string // the primary's server id (sanity check)
	ReplicaAddr  string // the backup's transport address (metadata identity)
	HeartbeatMs  uint32 // primary's keepalive period while idle
	AckTimeoutMs uint32 // primary detaches after this long without an ack
}

// EncodeReplAttach builds a MsgReplAttach frame.
func EncodeReplAttach(r ReplAttach) []byte {
	dst := []byte{byte(MsgReplAttach)}
	dst = appendString(dst, r.PrimaryID)
	dst = appendString(dst, r.ReplicaAddr)
	dst = appendU32(dst, r.HeartbeatMs)
	return appendU32(dst, r.AckTimeoutMs)
}

// DecodeReplAttach parses a MsgReplAttach frame.
func DecodeReplAttach(buf []byte) (ReplAttach, error) {
	d := open(buf, MsgReplAttach)
	var r ReplAttach
	r.PrimaryID = d.str()
	r.ReplicaAddr = d.str()
	r.HeartbeatMs = d.u32()
	r.AckTimeoutMs = d.u32()
	return r, d.err
}

// ReplAttachResp accepts or refuses an attach.
type ReplAttachResp struct {
	OK  bool
	Err string
}

// EncodeReplAttachResp builds a MsgReplAttachResp frame.
func EncodeReplAttachResp(r ReplAttachResp) []byte {
	dst := []byte{byte(MsgReplAttachResp)}
	dst = appendBool(dst, r.OK)
	return appendString(dst, r.Err)
}

// DecodeReplAttachResp parses a MsgReplAttachResp frame.
func DecodeReplAttachResp(buf []byte) (ReplAttachResp, error) {
	d := open(buf, MsgReplAttachResp)
	var r ReplAttachResp
	r.OK = d.bool()
	r.Err = d.str()
	return r, d.err
}

// ReplBaseBegin opens the base sync.
type ReplBaseBegin struct {
	Seq     uint64
	Sealed  uint32 // CPR version sealed by the replication cut
	CutTail uint64 // log tail captured before the version bump
}

// EncodeReplBaseBegin builds a MsgReplBaseBegin frame.
func EncodeReplBaseBegin(r ReplBaseBegin) []byte {
	dst := []byte{byte(MsgReplBaseBegin)}
	dst = appendU64(dst, r.Seq)
	dst = appendU32(dst, r.Sealed)
	return appendU64(dst, r.CutTail)
}

// DecodeReplBaseBegin parses a MsgReplBaseBegin frame.
func DecodeReplBaseBegin(buf []byte) (ReplBaseBegin, error) {
	d := open(buf, MsgReplBaseBegin)
	var r ReplBaseBegin
	r.Seq = d.u64()
	r.Sealed = d.u32()
	r.CutTail = d.u64()
	return r, d.err
}

// ReplRecords is one batch of base-state records.
type ReplRecords struct {
	Seq     uint64
	Records []MigrationRecord
}

// EncodeReplRecords builds a MsgReplRecords frame.
func EncodeReplRecords(r *ReplRecords) []byte {
	dst := []byte{byte(MsgReplRecords)}
	dst = appendU64(dst, r.Seq)
	return appendRecords(dst, r.Records)
}

// DecodeReplRecords parses a MsgReplRecords frame; records alias buf.
func DecodeReplRecords(buf []byte) (ReplRecords, error) {
	d := open(buf, MsgReplRecords)
	var r ReplRecords
	r.Seq = d.u64()
	r.Records = d.records()
	return r, d.err
}

// ReplSession is one client session's durable high-water mark.
type ReplSession struct {
	ID      uint64
	LastSeq uint32
}

// ReplSessTab ships the session table captured at the replication cut.
type ReplSessTab struct {
	Seq      uint64
	Sealed   uint32
	Sessions []ReplSession
}

// EncodeReplSessTab builds a MsgReplSessTab frame.
func EncodeReplSessTab(r *ReplSessTab) []byte {
	dst := []byte{byte(MsgReplSessTab)}
	dst = appendU64(dst, r.Seq)
	dst = appendU32(dst, r.Sealed)
	dst = appendU32(dst, uint32(len(r.Sessions)))
	for _, s := range r.Sessions {
		dst = appendU64(dst, s.ID)
		dst = appendU32(dst, s.LastSeq)
	}
	return dst
}

// DecodeReplSessTab parses a MsgReplSessTab frame.
func DecodeReplSessTab(buf []byte) (ReplSessTab, error) {
	d := open(buf, MsgReplSessTab)
	var r ReplSessTab
	r.Seq = d.u64()
	r.Sealed = d.u32()
	r.Sessions = make([]ReplSession, d.count(12))
	for i := range r.Sessions {
		r.Sessions[i] = ReplSession{ID: d.u64(), LastSeq: d.u32()}
	}
	return r, d.err
}

// ReplBaseDone closes the base sync.
type ReplBaseDone struct {
	Seq uint64
	// SkippedIndirections counts shared-tier indirection records the base
	// scan could not replicate (observability; replication of indirection
	// chains is unsupported).
	SkippedIndirections uint32
}

// EncodeReplBaseDone builds a MsgReplBaseDone frame.
func EncodeReplBaseDone(r ReplBaseDone) []byte {
	dst := []byte{byte(MsgReplBaseDone)}
	dst = appendU64(dst, r.Seq)
	return appendU32(dst, r.SkippedIndirections)
}

// DecodeReplBaseDone parses a MsgReplBaseDone frame.
func DecodeReplBaseDone(buf []byte) (ReplBaseDone, error) {
	d := open(buf, MsgReplBaseDone)
	var r ReplBaseDone
	r.Seq = d.u64()
	r.SkippedIndirections = d.u32()
	return r, d.err
}

// ReplBatch embeds one accepted client request batch verbatim: the backup
// re-executes the primary's input stream rather than a bespoke record
// format, so the apply path is the ordinary batch-execution path.
type ReplBatch struct {
	Seq   uint64
	Batch []byte // a complete MsgRequestBatch frame
}

// EncodeReplBatch builds a MsgReplBatch frame.
func EncodeReplBatch(r *ReplBatch) []byte {
	dst := make([]byte, 0, 1+8+4+len(r.Batch))
	dst = append(dst, byte(MsgReplBatch))
	dst = appendU64(dst, r.Seq)
	dst = appendU32(dst, uint32(len(r.Batch)))
	dst = append(dst, r.Batch...)
	return dst
}

// DecodeReplBatch parses a MsgReplBatch frame; Batch aliases buf.
func DecodeReplBatch(buf []byte) (ReplBatch, error) {
	d := open(buf, MsgReplBatch)
	var r ReplBatch
	r.Seq = d.u64()
	r.Batch = d.bytes(int(d.u32()))
	return r, d.err
}

// ReplAck is the backup's cumulative acknowledgement: every primary frame
// with sequence <= Seq has been applied durably enough to survive failover
// (installed in the backup's store and session table).
type ReplAck struct {
	Seq uint64
}

// EncodeReplAck builds a MsgReplAck frame.
func EncodeReplAck(r ReplAck) []byte {
	return appendU64([]byte{byte(MsgReplAck)}, r.Seq)
}

// DecodeReplAck parses a MsgReplAck frame.
func DecodeReplAck(buf []byte) (ReplAck, error) {
	d := open(buf, MsgReplAck)
	r := ReplAck{Seq: d.u64()}
	return r, d.err
}

// ReplHeartbeat keeps the stream's liveness observable while idle.
type ReplHeartbeat struct {
	Seq uint64 // current send watermark (nothing new to ack beyond it)
}

// EncodeReplHeartbeat builds a MsgReplHeartbeat frame.
func EncodeReplHeartbeat(r ReplHeartbeat) []byte {
	return appendU64([]byte{byte(MsgReplHeartbeat)}, r.Seq)
}

// DecodeReplHeartbeat parses a MsgReplHeartbeat frame.
func DecodeReplHeartbeat(buf []byte) (ReplHeartbeat, error) {
	d := open(buf, MsgReplHeartbeat)
	r := ReplHeartbeat{Seq: d.u64()}
	return r, d.err
}

// EncodeDrainReq builds a MsgDrain frame (admin: migrate everything away and
// retire).
func EncodeDrainReq() []byte {
	return []byte{byte(MsgDrain)}
}

// DrainResp reports a drain's outcome.
type DrainResp struct {
	OK      bool
	Err     string
	Retired bool   // the server was removed from the metadata store
	Moved   uint32 // ranges migrated away
}

// EncodeDrainResp builds a MsgDrainResp frame.
func EncodeDrainResp(r DrainResp) []byte {
	dst := []byte{byte(MsgDrainResp)}
	dst = appendBool(dst, r.OK)
	dst = appendString(dst, r.Err)
	dst = appendBool(dst, r.Retired)
	return appendU32(dst, r.Moved)
}

// DecodeDrainResp parses a MsgDrainResp frame.
func DecodeDrainResp(buf []byte) (DrainResp, error) {
	d := open(buf, MsgDrainResp)
	var r DrainResp
	r.OK = d.bool()
	r.Err = d.str()
	r.Retired = d.bool()
	r.Moved = d.u32()
	return r, d.err
}
