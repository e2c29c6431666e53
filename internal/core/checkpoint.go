package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/faster"
	"repro/internal/hlog"
	"repro/internal/metadata"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the server-level half of Shadowfax's durability story (§2.1,
// §3.3.1): a checkpoint coordinator that snapshots the FASTER store plus the
// server's own recovery state (ownership view, client session table) into one
// image on a storage device, and the recovery path that rebuilds a server
// from the latest committed image.
//
// Checkpoints piggyback on FASTER's CPR cut: Store.CheckpointCut fires the
// server-section serializer on the far side of the asynchronous global cut,
// so the session table captured in the image is exactly the state whose
// operations the flushed log prefix covers. Dispatchers never stall — they
// cross the cut at their next Refresh and keep serving.

const (
	serverImageMagic = 0x53465843 // "SFXC"
	// serverImageVersion 2 added the ownership-fence section; version 1
	// images (no fences) are still readable.
	serverImageVersion = 2
)

// sessionTable tracks, per client session, the highest operation sequence
// number the server has applied, tagged with the CPR version the batch was
// stamped under. It is the server half of client-assisted session recovery:
// a checkpoint sealing version S snapshots each session's prefix restricted
// to versions <= S — exactly the records recovery's version filter keeps —
// so the table a reconnecting client consults and the recovered store agree
// operation-for-operation.
//
// The table is sharded per dispatcher: advance (once per batch, on the hot
// path) touches only the calling dispatcher's shard, whose mutex no other
// dispatcher ever takes — the per-batch lock is contention-free. Only the
// off-hot-path readers (snapshotUpTo during a checkpoint cut, get during
// session recovery, restore at boot) visit foreign shards, merging entries
// by maximum sequence (a session that reconnects onto a different
// dispatcher leaves an older entry in its previous shard; sequence numbers
// are monotonic, so the max is the truth).
type sessionTable struct {
	shards []sessionShard
}

type sessionShard struct {
	// mu guards one shard's seq map. Holders touch a couple of map entries
	// and return; nothing under it calls out or blocks, so epoch-protected
	// dispatchers may take it on the per-batch path.
	//
	//shadowfax:epochsafe
	mu   sync.Mutex
	seqs map[uint64][]verSeq
	// Pad shards apart: each shard's mutex and map header are hot on
	// exactly one dispatcher's per-batch path.
	_ cachePad
}

// verSeq is one version's sequence high-water mark. Per session the slice
// holds at most two entries — a floor of all prior versions and the current
// one — because versions only advance at checkpoints, which serialize.
type verSeq struct {
	ver uint32
	seq uint32
}

func newSessionTable(shards int) *sessionTable {
	if shards < 1 {
		shards = 1
	}
	t := &sessionTable{shards: make([]sessionShard, shards)}
	for i := range t.shards {
		t.shards[i].seqs = make(map[uint64][]verSeq)
	}
	return t
}

// advance records that every operation of session id up to seq has been
// applied under CPR version ver; shard is the calling dispatcher's index.
// Sequence numbers and versions only move forward (client seqs are
// monotonic; ver is the dispatcher session's thread-local version, which
// only grows).
func (t *sessionTable) advance(shard int, id uint64, seq uint32, ver uint32) {
	sh := &t.shards[shard]
	sh.mu.Lock()
	es := sh.seqs[id]
	if n := len(es); n > 0 && es[n-1].ver >= ver {
		if seq > es[n-1].seq {
			es[n-1].seq = seq
		}
	} else {
		if len(es) >= 2 {
			// Merge the floor: the older entry's seq is subsumed by the
			// newer one (seqs are monotonic), and no future checkpoint can
			// seal below an already-recorded version.
			es = es[len(es)-1:]
		}
		es = append(es, verSeq{ver: ver, seq: seq})
	}
	sh.seqs[id] = es
	sh.mu.Unlock()
}

// get returns the session's last applied sequence number across all
// versions and shards (what a live server tells a reconciling client).
func (t *sessionTable) get(id uint64) (uint32, bool) {
	var best uint32
	found := false
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if es := sh.seqs[id]; len(es) > 0 {
			if s := es[len(es)-1].seq; !found || s > best {
				best = s
			}
			found = true
		}
		sh.mu.Unlock()
	}
	return best, found
}

// sessionIdleVersions is how many sealed versions a session may sit idle
// before its table entry is evicted (bounding table and image growth under
// client churn). An evicted session that reconnects recovers as Known=false
// and replays everything in flight — safe unless it held unacknowledged
// RMWs across that many checkpoints, which a live client never does (it
// drains or retries long before).
const sessionIdleVersions = 8

// snapshotUpTo merges all shards restricted to versions <= sealed (taken
// inside the checkpoint cut), evicting sessions idle since sealed -
// sessionIdleVersions. Sessions whose every batch is post-cut are omitted:
// their durable prefix is empty. A session present in several shards
// (dispatcher reassignment) contributes its maximum covered sequence.
func (t *sessionTable) snapshotUpTo(sealed uint32) map[uint64]uint32 {
	out := make(map[uint64]uint32)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for id, es := range sh.seqs {
			if n := len(es); n > 0 && sealed > sessionIdleVersions &&
				es[n-1].ver < sealed-sessionIdleVersions {
				delete(sh.seqs, id)
				continue
			}
			for _, e := range es { // ordered by version; later seqs are larger
				if e.ver <= sealed {
					if cur, ok := out[id]; !ok || e.seq > cur {
						out[id] = e.seq
					}
				}
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// restore replaces the table with a recovered image's copy (into shard 0 —
// dispatchers repopulate their own shards as sessions reconnect). Restored
// entries carry the image's sealed version: any future checkpoint covers
// them (future seals are strictly higher), and the idle-eviction clock
// starts at the recovery point rather than treating every recovered session
// as ancient.
func (t *sessionTable) restore(m map[uint64]uint32, sealed uint32) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.seqs = make(map[uint64][]verSeq)
		sh.mu.Unlock()
	}
	sh := &t.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for id, seq := range m {
		sh.seqs[id] = []verSeq{{ver: sealed, seq: seq}}
	}
}

// CheckpointResult describes a committed server checkpoint.
type CheckpointResult struct {
	Info       faster.CheckpointInfo
	Generation uint64 // image store generation holding the image
	Sessions   int    // client sessions captured in the image
}

// ErrNoCheckpointDevice is returned when checkpointing is not configured.
var ErrNoCheckpointDevice = errors.New("core: no checkpoint device configured")

// Checkpoint takes a durable server checkpoint: the FASTER store via its CPR
// cut, plus the ownership view and client session table captured on the cut,
// all streamed into one image on the configured checkpoint device and
// committed atomically. It blocks until the image is committed and must not
// be called from a dispatcher goroutine (the cut needs dispatchers free to
// refresh); the admin-message handler and the periodic loop call it from
// their own goroutines. Concurrent calls serialize.
func (s *Server) Checkpoint() (CheckpointResult, error) {
	if s.images == nil {
		return CheckpointResult{}, ErrNoCheckpointDevice
	}
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Checked under ckptMu: Close's teardown handshake also takes ckptMu, so
	// a checkpoint that sees stopping==false here finishes before the store
	// is closed, and one arriving later is rejected instead of touching a
	// closed store.
	if s.stopping.Load() {
		return CheckpointResult{}, errors.New("core: server closing")
	}

	w := s.images.NewWriter()
	sessions := 0
	type outcome struct {
		info faster.CheckpointInfo
		err  error
	}
	ch := make(chan outcome, 1)
	s.store.CheckpointCut(w,
		func(sealed uint32) {
			// On the cut: snapshot the session table restricted to the
			// sealed version — the exact operation set recovery's version
			// filter will keep in the store image.
			view := s.view.Load().Clone()
			tab := s.sessTab.snapshotUpTo(sealed)
			sessions = len(tab)
			writeServerSection(w, view, tab, s.store.Fences())
		},
		func(info faster.CheckpointInfo, err error) {
			ch <- outcome{info, err}
		})
	out := <-ch
	if out.err != nil {
		s.stats.CheckpointFailures.Add(1)
		return CheckpointResult{Info: out.info}, out.err
	}
	if err := w.Commit(); err != nil {
		s.stats.CheckpointFailures.Add(1)
		return CheckpointResult{Info: out.info}, err
	}
	// The committed image references log bytes from its begin address up; the
	// compaction service may now reclaim device space below it (and no
	// further — recovery reads from here).
	s.committedBegin.Store(uint64(out.info.Begin))
	res := CheckpointResult{
		Info:       out.info,
		Generation: s.images.Generation(),
		Sessions:   sessions,
	}
	s.stats.Checkpoints.Add(1)
	return res, nil
}

// checkpointLoop takes periodic checkpoints until the server closes.
func (s *Server) checkpointLoop(every time.Duration) {
	defer s.wg.Done()
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-s.bgQuit:
			return
		case <-tick.C:
			// Failures are counted inside Checkpoint (shared with the
			// admin-message and direct-call paths).
			s.Checkpoint() //nolint:errcheck // best-effort periodic attempt
		}
	}
}

// writeServerSection serializes the server's recovery state ahead of the
// FASTER blob. Errors stick inside the ImageWriter and surface when the
// store blob is written.
func writeServerSection(w io.Writer, view metadata.View, sessions map[uint64]uint32,
	fences []faster.Fence) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, serverImageMagic)
	buf = binary.LittleEndian.AppendUint32(buf, serverImageVersion)
	buf = binary.LittleEndian.AppendUint64(buf, view.Number)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(view.Ranges)))
	for _, r := range view.Ranges {
		buf = binary.LittleEndian.AppendUint64(buf, r.Start)
		buf = binary.LittleEndian.AppendUint64(buf, r.End)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sessions)))
	for id, seq := range sessions {
		buf = binary.LittleEndian.AppendUint64(buf, id)
		buf = binary.LittleEndian.AppendUint32(buf, seq)
	}
	// Ownership fences (version 2): the recovered log still holds the stale
	// records the fences retired, so losing them across a restart would
	// resurrect overwritten data.
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fences)))
	for _, f := range fences {
		buf = binary.LittleEndian.AppendUint64(buf, f.Start)
		buf = binary.LittleEndian.AppendUint64(buf, f.End)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Below))
	}
	w.Write(buf)
}

// readServerSection parses the server section, leaving r positioned at the
// FASTER checkpoint blob.
func readServerSection(r io.Reader) (metadata.View, map[uint64]uint32, []faster.Fence, error) {
	var fixed [20]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return metadata.View{}, nil, nil, fmt.Errorf("core: reading server image header: %w", err)
	}
	if binary.LittleEndian.Uint32(fixed[0:4]) != serverImageMagic {
		return metadata.View{}, nil, nil, errors.New("core: bad server image magic")
	}
	ver := binary.LittleEndian.Uint32(fixed[4:8])
	if ver < 1 || ver > serverImageVersion {
		return metadata.View{}, nil, nil, fmt.Errorf("core: server image version %d unsupported", ver)
	}
	view := metadata.View{Number: binary.LittleEndian.Uint64(fixed[8:16])}
	nRanges := binary.LittleEndian.Uint32(fixed[16:20])
	var u16buf [16]byte
	for i := uint32(0); i < nRanges; i++ {
		if _, err := io.ReadFull(r, u16buf[:]); err != nil {
			return metadata.View{}, nil, nil, fmt.Errorf("core: reading ranges: %w", err)
		}
		view.Ranges = append(view.Ranges, metadata.HashRange{
			Start: binary.LittleEndian.Uint64(u16buf[0:8]),
			End:   binary.LittleEndian.Uint64(u16buf[8:16]),
		})
	}
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return metadata.View{}, nil, nil, fmt.Errorf("core: reading session count: %w", err)
	}
	// The counts come off the checkpoint device, so nothing is sized from
	// them: a corrupt image fails the loop's first short read instead of
	// asking for gigabytes up front.
	nSess := binary.LittleEndian.Uint32(cnt[:])
	sessions := make(map[uint64]uint32)
	var sbuf [12]byte
	for i := uint32(0); i < nSess; i++ {
		if _, err := io.ReadFull(r, sbuf[:]); err != nil {
			return metadata.View{}, nil, nil, fmt.Errorf("core: reading session table: %w", err)
		}
		sessions[binary.LittleEndian.Uint64(sbuf[0:8])] = binary.LittleEndian.Uint32(sbuf[8:12])
	}
	var fences []faster.Fence
	if ver >= 2 {
		if _, err := io.ReadFull(r, cnt[:]); err != nil {
			return metadata.View{}, nil, nil, fmt.Errorf("core: reading fence count: %w", err)
		}
		nFences := binary.LittleEndian.Uint32(cnt[:])
		var fbuf [24]byte
		for i := uint32(0); i < nFences; i++ {
			if _, err := io.ReadFull(r, fbuf[:]); err != nil {
				return metadata.View{}, nil, nil, fmt.Errorf("core: reading fences: %w", err)
			}
			fences = append(fences, faster.Fence{
				Start: binary.LittleEndian.Uint64(fbuf[0:8]),
				End:   binary.LittleEndian.Uint64(fbuf[8:16]),
				Below: hlog.Address(binary.LittleEndian.Uint64(fbuf[16:24])),
			})
		}
	}
	return view, sessions, fences, nil
}

// handleCheckpointReq serves the MsgCheckpoint admin message. The checkpoint
// runs on its own goroutine so the dispatcher keeps polling (and crossing the
// cut); the response ships when the image is committed.
func (s *Server) handleCheckpointReq(c transport.Conn) {
	go func() {
		res, err := s.Checkpoint()
		resp := wire.CheckpointResp{OK: err == nil,
			Version: res.Info.Version, Tail: uint64(res.Info.Tail)}
		if err != nil {
			resp.Err = err.Error()
		}
		c.Send(wire.EncodeCheckpointResp(resp))
	}()
}

// handleSessionRecover answers a reconnecting client with the session's last
// durable sequence number from the (possibly recovered) session table.
func (d *dispatcher) handleSessionRecover(c transport.Conn, frame []byte) {
	req, err := wire.DecodeSessionRecover(frame)
	if err != nil {
		d.s.stats.DecodeErrors.Add(1)
		return
	}
	last, known := d.s.sessTab.get(req.SessionID)
	c.Send(wire.EncodeSessionRecoverResp(wire.SessionRecoverResp{
		SessionID: req.SessionID, Known: known, LastSeq: last}))
}
