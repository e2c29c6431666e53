package core

import (
	"repro/internal/faster"
	"repro/internal/wire"
)

// This file is the one way records leave and enter a server. internal/faster
// reads the log and hands over CollectedRecords; a recordBatch turns them into
// record frames, and installRecords lands a frame's payload. The Migrate
// phase's memory and disk passes and its sampled hot records (§3.3),
// compaction's relocations (§3.3.3), the replica base sync and shared-tier
// fetches (§3.3.2) differ only in how a full frame is addressed and sent.

// frameRecords is how many records ride in one record frame.
const frameRecords = 512

// recordBatch cuts a stream of collected records into frames of at most max
// records. The zero value plus max and send is ready to use.
type recordBatch struct {
	// max is frameRecords, except for a frame whose size the protocol fixes
	// (TransferOwnership carries the whole sampled set).
	max int
	// send addresses and ships one frame and reports whether it went out. recs
	// is reused for the next frame; final marks the stream's last frame.
	send   func(recs []wire.MigrationRecord, final bool) bool
	recs   []wire.MigrationRecord
	frames int // frames sent
}

// add buffers rec in wire form, first sending the buffered frame if it is
// full; false means that send failed (the frame's records are dropped).
func (b *recordBatch) add(rec faster.CollectedRecord) bool {
	ok := len(b.recs) < b.max || b.flush(false)
	var flags uint8
	if rec.Tombstone {
		flags |= wire.RecFlagTombstone
	}
	if rec.Indirection {
		flags |= wire.RecFlagIndirection
	}
	b.recs = append(b.recs, wire.MigrationRecord{
		Hash: rec.Hash, Flags: flags, Key: rec.Key, Value: rec.Value,
	})
	return ok
}

// flush sends the buffered records. A final flush sends even an empty frame:
// the receiver acknowledges a stream's final frame.
func (b *recordBatch) flush(final bool) bool {
	if len(b.recs) == 0 && !final {
		return true
	}
	ok := b.send(b.recs, final)
	if ok {
		b.frames++
	}
	b.recs = b.recs[:0]
	return ok
}

// installRecords lands one frame's records — a MsgTransferOwnership,
// MsgMigrationRecords or MsgReplRecords payload, or what a shared-tier fetch
// found — in the local store. A data record is installed only if its key has
// no local version: a present version, even a tombstone, is newer than
// anything shipped. An indirection record is spliced at the tail of its hash
// chain; tm is the inbound migration the frame belongs to (nil for the other
// sources, whose frames carry no indirection records). Installs that need a
// storage read stay pending on sess for the caller to drain.
func installRecords(sess *faster.Session, tm *targetMigration, recs []wire.MigrationRecord) {
	for i := range recs {
		r := &recs[i]
		if r.Flags&wire.RecFlagIndirection == 0 {
			sess.ConditionalInsert(r.Key, r.Value, r.Flags&wire.RecFlagTombstone != 0, nil)
		} else if tm != nil && sess.SpliceIndirection(r.Hash, r.Value) != faster.StatusOK {
			// Fallback (§3.3.2): resolve the remote suffix eagerly — behind the
			// chain's in-memory records, which precede its indirection record
			// on this stream and may still be installing: ConditionalInsert
			// keeps whichever version lands first, and the suffix is older.
			sess.CompletePending(true)
			tm.fetchRangeFromSharedTier(r.Value)
		}
	}
}
