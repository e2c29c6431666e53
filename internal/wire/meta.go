package wire

import "repro/internal/metadata"

// Control-plane frames for the elastic metadata service and the load
// balancer. A designated metadata endpoint (any server backed by the local
// in-process metadata store) serves MsgMetaReq so out-of-process servers,
// clients and the CLI all observe the same live ownership views; MsgRebalance
// and MsgBalanceStatus drive and inspect the automatic scale-out balancer.

// Additional frame types (continuing the MsgType enum in wire.go).
const (
	// MsgMetaReq is a metadata-service request: one read (snapshot) or one
	// linearizable mutation against the designated metadata endpoint.
	MsgMetaReq MsgType = iota + 18
	// MsgMetaResp answers MsgMetaReq; every response carries a full snapshot
	// so the caller's cache is refreshed by any round trip.
	MsgMetaResp
	// MsgRebalance asks a balancer-enabled server to run one planning pass
	// now (admin).
	MsgRebalance
	// MsgRebalanceResp reports the pass's decision.
	MsgRebalanceResp
	// MsgBalanceStatus asks a server for its balancer status (admin).
	MsgBalanceStatus
	// MsgBalanceStatusResp answers MsgBalanceStatus.
	MsgBalanceStatusResp
)

// MetaOp selects the metadata-service operation inside a MsgMetaReq.
type MetaOp uint8

// Metadata-service operations. Each maps 1:1 onto a metadata.Provider
// method; MetaOpSnapshot is the pure read the remote provider polls with.
const (
	MetaOpSnapshot MetaOp = iota + 1
	MetaOpSetAddr
	MetaOpRegister
	MetaOpRestore
	MetaOpStartMigration
	MetaOpMarkDone
	MetaOpCancel
	MetaOpCollect
	// Replication + scale-in ops (appended; earlier values stay stable).
	// ServerID names the primary, Addr the backup's transport address.
	MetaOpSetReplica
	MetaOpReplicaSynced
	MetaOpClearReplica
	MetaOpPromote
	MetaOpRetire
	// MetaOpKeepAlive renews (or, with a zero TTL, releases) the primary
	// liveness lease that fences promotion during partitions (appended).
	// ServerID names the server, Addr the renewing holder, MigrationID
	// carries the TTL in milliseconds (the union pattern above).
	MetaOpKeepAlive
)

// MetaErr is a machine-readable error class inside a MsgMetaResp, so the
// remote provider can surface the metadata package's sentinel errors across
// the wire.
type MetaErr uint8

// Metadata-service error classes.
const (
	MetaErrNone MetaErr = iota
	MetaErrUnknownServer
	MetaErrNotOwner
	MetaErrOverlap
	MetaErrUnknownMigration
	MetaErrMigrationDone
	MetaErrOther
	// MetaErrMigrationOverlap rejects a StartMigration whose range overlaps
	// a migration still in flight (appended after MetaErrOther so existing
	// class values stay stable).
	MetaErrMigrationOverlap
	// Replication error classes (appended).
	MetaErrDeposed
	MetaErrReplicated
	MetaErrNoReplica
	MetaErrReplicaNotSynced
	MetaErrServerNotEmpty
	// MetaErrPrimaryAlive refuses a promotion fenced by an unexpired primary
	// liveness lease (appended).
	MetaErrPrimaryAlive
)

// MetaReq is one metadata-service call. Fields are a union over the ops:
// ServerID/Addr/Ranges for registration, ServerID/Target/RangeStart/End for
// StartMigration, MigrationID/ServerID for migration-state transitions,
// ViewNumber/Ranges for Restore.
type MetaReq struct {
	Op          MetaOp
	ServerID    string
	Target      string
	Addr        string
	MigrationID uint64
	ViewNumber  uint64
	RangeStart  uint64
	RangeEnd    uint64
	Ranges      []metadata.HashRange
}

// MetaResp answers a MetaReq. OK/ErrCode/Err report the mutation's outcome;
// Migration carries the record StartMigration created (MigValid set); the
// endpoint's snapshot rides on every response so one round trip always
// refreshes the caller's whole cache. (Its Promoted list is tail-appended to
// the frame.)
type MetaResp struct {
	OK      bool
	ErrCode MetaErr
	Err     string

	MigValid  bool
	Migration metadata.MigrationState

	Snapshot metadata.Snapshot
}

// EncodeMetaReq builds a MsgMetaReq frame.
func EncodeMetaReq(r *MetaReq) []byte {
	dst := []byte{byte(MsgMetaReq), byte(r.Op)}
	dst = appendString(dst, r.ServerID)
	dst = appendString(dst, r.Target)
	dst = appendString(dst, r.Addr)
	dst = appendU64(dst, r.MigrationID)
	dst = appendU64(dst, r.ViewNumber)
	dst = appendU64(dst, r.RangeStart)
	dst = appendU64(dst, r.RangeEnd)
	return appendRanges(dst, r.Ranges)
}

// DecodeMetaReq parses a MsgMetaReq frame.
func DecodeMetaReq(buf []byte) (MetaReq, error) {
	d := open(buf, MsgMetaReq)
	var r MetaReq
	r.Op = MetaOp(d.u8())
	r.ServerID = d.str()
	r.Target = d.str()
	r.Addr = d.str()
	r.MigrationID = d.u64()
	r.ViewNumber = d.u64()
	r.RangeStart = d.u64()
	r.RangeEnd = d.u64()
	r.Ranges = d.ranges()
	return r, d.err
}

// appendMetaMigration encodes one migration record (shared by the Migration
// field and the Migrations list).
func appendMetaMigration(dst []byte, m *metadata.MigrationState) []byte {
	dst = appendU64(dst, m.ID)
	dst = appendU64(dst, m.Epoch)
	var flags uint8
	if m.SourceDone {
		flags |= 1
	}
	if m.TargetDone {
		flags |= 2
	}
	if m.Cancelled {
		flags |= 4
	}
	dst = append(dst, flags)
	dst = appendU64(dst, m.Range.Start)
	dst = appendU64(dst, m.Range.End)
	dst = appendString(dst, m.Source)
	dst = appendString(dst, m.Target)
	return dst
}

// metaMigrationMinBytes is the smallest encoding of one migration record
// (id + epoch + flags + range + two empty strings); count-guard denominator.
const metaMigrationMinBytes = 8 + 8 + 1 + 8 + 8 + 2 + 2

func (d *decoder) metaMigration() metadata.MigrationState {
	var m metadata.MigrationState
	m.ID = d.u64()
	m.Epoch = d.u64()
	flags := d.u8()
	m.SourceDone = flags&1 != 0
	m.TargetDone = flags&2 != 0
	m.Cancelled = flags&4 != 0
	m.Range.Start = d.u64()
	m.Range.End = d.u64()
	m.Source = d.str()
	m.Target = d.str()
	return m
}

// metaMigrations reads a counted list of migration records.
func (d *decoder) metaMigrations() []metadata.MigrationState {
	out := make([]metadata.MigrationState, d.count(metaMigrationMinBytes))
	for i := range out {
		out[i] = d.metaMigration()
	}
	return out
}

// appendMetaMigrations encodes a counted list of migration records.
func appendMetaMigrations(dst []byte, ms []metadata.MigrationState) []byte {
	dst = appendU32(dst, uint32(len(ms)))
	for i := range ms {
		dst = appendMetaMigration(dst, &ms[i])
	}
	return dst
}

// EncodeMetaResp builds a MsgMetaResp frame.
func EncodeMetaResp(r *MetaResp) []byte {
	dst := []byte{byte(MsgMetaResp)}
	dst = appendBool(dst, r.OK)
	dst = append(dst, byte(r.ErrCode))
	dst = appendString(dst, r.Err)
	dst = appendBool(dst, r.MigValid)
	dst = appendMetaMigration(dst, &r.Migration)
	snap := &r.Snapshot
	dst = appendU64(dst, snap.Revision)
	dst = appendU32(dst, uint32(len(snap.Servers)))
	for i := range snap.Servers {
		s := &snap.Servers[i]
		dst = appendString(dst, s.ID)
		dst = appendString(dst, s.Addr)
		dst = appendU64(dst, s.View.Number)
		dst = appendRanges(dst, s.View.Ranges)
	}
	dst = appendMetaMigrations(dst, snap.Migrations)
	dst = appendU32(dst, uint32(len(snap.Replicas)))
	for i := range snap.Replicas {
		dst = appendString(dst, snap.Replicas[i].PrimaryID)
		dst = appendString(dst, snap.Replicas[i].Addr)
		dst = appendBool(dst, snap.Replicas[i].Synced)
	}
	dst = appendU32(dst, uint32(len(snap.Promoted)))
	for _, id := range snap.Promoted {
		dst = appendString(dst, id)
	}
	return dst
}

// DecodeMetaResp parses a MsgMetaResp frame. A frame may end before the
// tail-appended Promoted list (older encoders); the list then decodes empty.
func DecodeMetaResp(buf []byte) (MetaResp, error) {
	d := open(buf, MsgMetaResp)
	var r MetaResp
	r.OK = d.bool()
	r.ErrCode = MetaErr(d.u8())
	r.Err = d.str()
	r.MigValid = d.bool()
	r.Migration = d.metaMigration()
	revision := d.u64()
	servers := make([]metadata.ServerEntry, d.count(16)) // two empty strings + view number + range count
	for i := range servers {
		s := &servers[i]
		s.ID = d.str()
		s.Addr = d.str()
		s.View.Number = d.u64()
		s.View.Ranges = d.ranges()
	}
	migrations := d.metaMigrations()
	replicas := make([]metadata.ReplicaState, d.count(5)) // two empty strings + synced flag
	for i := range replicas {
		rep := &replicas[i]
		rep.PrimaryID = d.str()
		rep.Addr = d.str()
		rep.Synced = d.bool()
	}
	var promoted []string
	if d.remaining() > 0 {
		promoted = make([]string, d.count(2)) // an empty id is its two length bytes
		for i := range promoted {
			promoted[i] = d.str()
		}
	}
	r.Snapshot = *metadata.NewSnapshot(revision, servers, migrations, replicas, promoted)
	return r, d.err
}

// RebalanceResp reports one balancer planning pass: whether it acted, the
// migration it triggered (Source/Target/Range), and the human-readable
// reason either way.
type RebalanceResp struct {
	OK     bool
	Err    string // failure detail when !OK (e.g. balancer not enabled)
	Acted  bool
	Source string
	Target string
	RangeStart,
	RangeEnd uint64
	Reason string
}

// EncodeRebalanceReq builds a MsgRebalance frame.
func EncodeRebalanceReq() []byte {
	return []byte{byte(MsgRebalance)}
}

// EncodeRebalanceResp builds a MsgRebalanceResp frame.
func EncodeRebalanceResp(r RebalanceResp) []byte {
	dst := []byte{byte(MsgRebalanceResp)}
	dst = appendBool(dst, r.OK)
	dst = appendString(dst, r.Err)
	return appendDecision(dst, &r)
}

// appendDecision encodes the planning-decision fields a RebalanceResp and a
// BalanceStatusResp's Last share.
func appendDecision(dst []byte, r *RebalanceResp) []byte {
	dst = appendBool(dst, r.Acted)
	dst = appendString(dst, r.Source)
	dst = appendString(dst, r.Target)
	dst = appendU64(dst, r.RangeStart)
	dst = appendU64(dst, r.RangeEnd)
	return appendString(dst, r.Reason)
}

// decision reads the fields appendDecision wrote into r.
func (d *decoder) decision(r *RebalanceResp) {
	r.Acted = d.bool()
	r.Source = d.str()
	r.Target = d.str()
	r.RangeStart = d.u64()
	r.RangeEnd = d.u64()
	r.Reason = d.str()
}

// DecodeRebalanceResp parses a MsgRebalanceResp frame.
func DecodeRebalanceResp(buf []byte) (RebalanceResp, error) {
	d := open(buf, MsgRebalanceResp)
	var r RebalanceResp
	r.OK = d.bool()
	r.Err = d.str()
	d.decision(&r)
	return r, d.err
}

// ServerRate is one server's observed load inside a BalanceStatusResp.
// MilliOps is the ops/sec rate in thousandths, so the wire stays integer.
type ServerRate struct {
	ID       string
	MilliOps uint64
}

// BalanceStatusResp is a balancer-enabled server's status snapshot: counters,
// remaining cooldown, the last planning decision, the per-server load rates
// the next decision will be based on, and the set of migrations currently in
// flight cluster-wide (with their ranges and epochs). InFlight is filled by
// every server — it reports metadata state, not balancer state — so the
// concurrent-migration picture is observable even through a balancer-less
// node.
type BalanceStatusResp struct {
	Enabled    bool
	Passes     uint64
	Triggered  uint64
	CooldownMs uint64 // remaining cooldown, milliseconds
	Last       RebalanceResp
	Rates      []ServerRate
	InFlight   []metadata.MigrationState
	// DegradedMs is how long the answering server's remote metadata cache
	// has been serving stale views because the metadata endpoint is
	// unreachable, in milliseconds (0 = healthy; tail-appended).
	DegradedMs uint64
}

// EncodeBalanceStatusReq builds a MsgBalanceStatus frame.
func EncodeBalanceStatusReq() []byte {
	return []byte{byte(MsgBalanceStatus)}
}

// EncodeBalanceStatusResp builds a MsgBalanceStatusResp frame.
func EncodeBalanceStatusResp(r *BalanceStatusResp) []byte {
	dst := []byte{byte(MsgBalanceStatusResp)}
	dst = appendBool(dst, r.Enabled)
	dst = appendU64(dst, r.Passes)
	dst = appendU64(dst, r.Triggered)
	dst = appendU64(dst, r.CooldownMs)
	dst = appendDecision(dst, &r.Last)
	dst = appendU32(dst, uint32(len(r.Rates)))
	for i := range r.Rates {
		dst = appendString(dst, r.Rates[i].ID)
		dst = appendU64(dst, r.Rates[i].MilliOps)
	}
	dst = appendMetaMigrations(dst, r.InFlight)
	return appendU64(dst, r.DegradedMs)
}

// DecodeBalanceStatusResp parses a MsgBalanceStatusResp frame. A frame may
// end before the tail-appended DegradedMs (older encoders); it decodes as 0.
func DecodeBalanceStatusResp(buf []byte) (BalanceStatusResp, error) {
	d := open(buf, MsgBalanceStatusResp)
	var r BalanceStatusResp
	r.Enabled = d.bool()
	r.Passes = d.u64()
	r.Triggered = d.u64()
	r.CooldownMs = d.u64()
	d.decision(&r.Last)
	r.Rates = make([]ServerRate, d.count(10)) // empty id + rate
	for i := range r.Rates {
		r.Rates[i].ID = d.str()
		r.Rates[i].MilliOps = d.u64()
	}
	r.InFlight = d.metaMigrations()
	if d.remaining() > 0 {
		r.DegradedMs = d.u64()
	}
	return r, d.err
}
