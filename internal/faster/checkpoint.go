package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/hashidx"
	"repro/internal/hlog"
)

// Checkpointing follows the CPR scheme (§2.1, [41]) adapted to this
// reproduction: the checkpoint version is advanced over an asynchronous
// global cut; once every thread has crossed the cut, the log is flushed up
// to a captured tail and the (fuzzy) hash index plus the open page's prefix
// are serialized. No thread ever stalls: the capture runs on a background
// goroutine after the cut fires.
//
// Recovery restores the index image, reloads the open page into its frame,
// and points the region markers at the device-resident prefix. As in the
// paper (§3.3.1), exactly-once client semantics across a crash are the
// client library's job (client-assisted recovery); the store-level
// guarantee is that every operation before the cut is durable.

const checkpointMagic = 0x53464158 // "SFAX"

// CheckpointInfo summarizes a completed checkpoint.
type CheckpointInfo struct {
	Version   uint32       // CPR version that was sealed
	Tail      hlog.Address // log prefix covered by the checkpoint
	Begin     hlog.Address
	PageBits  uint
	IndexSize int
}

// CheckpointCut seals the current CPR version (SealVersion, whose contract
// on overlapping sealers applies) and then persists the store to w on the
// cut's background goroutine; done receives the result exactly once and the
// store remains fully available throughout. onCut, when set, runs after
// every thread has crossed the version cut and before any checkpoint bytes
// are written to w, receiving the sealed version. The server layer uses it to
// serialize its own section (ownership view, client session table restricted
// to operations stamped <= sealed) into the same image — recovery then
// filters the fuzzy log to exactly that version prefix, so the two sections
// agree record-for-record.
func (s *Store) CheckpointCut(w io.Writer, onCut func(sealed uint32), done func(CheckpointInfo, error)) {
	// The image records the begin address as of the cut, not as of the
	// write. A compaction pass that truncates in between has copied its
	// live records forward stamped sealed+1; recovery filters those out and
	// falls back to the originals, which a later begin would put out of
	// reach (the keys would recover as NotFound).
	begin := s.log.BeginAddress()
	s.SealVersion(func(sealed uint32, cutTail hlog.Address) {
		if onCut != nil {
			onCut(sealed)
		}
		done(s.writeCheckpoint(sealed, cutTail, begin, w))
	})
}

// CheckpointSync is CheckpointCut for callers that can block (tools, tests).
// It must not be called from an epoch-protected thread.
func (s *Store) CheckpointSync(w io.Writer) (CheckpointInfo, error) {
	type result struct {
		info CheckpointInfo
		err  error
	}
	ch := make(chan result, 1)
	s.CheckpointCut(w, nil, func(info CheckpointInfo, err error) { ch <- result{info, err} })
	s.epoch.DrainPending()
	r := <-ch
	return r.info, r.err
}

func (s *Store) writeCheckpoint(sealed uint32, cutTail, begin hlog.Address, w io.Writer) (CheckpointInfo, error) {
	lg := s.log
	tail := lg.TailAddress()

	// Make everything below the tail's page durable on the device.
	lg.FlushUntil(tail)

	// Serialize the index after the cut; concurrent appends make it fuzzy,
	// but every referenced address is covered: entries only ever move
	// forward, and we flush-verify below.
	var idx bytes.Buffer
	if err := s.index.Snapshot(&idx); err != nil {
		return CheckpointInfo{}, err
	}

	// Re-read the tail: index entries may reference records appended while
	// snapshotting. Flush up to the post-snapshot tail so no serialized
	// entry dangles, then capture the open page's prefix.
	tail = lg.TailAddress()
	lg.FlushUntil(tail)

	pageBits := lg.PageBits()
	tailPage := tail.Page(pageBits)
	tailPageStart := hlog.Address(tailPage << pageBits)
	partial := lg.NewPageBuffer()
	if tail > tailPageStart {
		// Epoch protection pins every page at or above the head in its
		// frame; without it a tiny memory budget lets writers lap the
		// buffer and roll() zero this frame under the copy.
		g := s.epoch.Register()
		ok := lg.InMemory(tailPageStart) && lg.FrameSnapshot(tailPage, partial)
		g.Unregister()
		if !ok {
			return CheckpointInfo{}, fmt.Errorf("faster: tail page %d not resident", tailPage)
		}
	}
	partial = partial[:tail-tailPageStart]

	info := CheckpointInfo{
		Version: sealed, Tail: tail, Begin: begin,
		PageBits: pageBits, IndexSize: idx.Len(),
	}

	var hdr [52]byte
	binary.LittleEndian.PutUint32(hdr[0:4], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], sealed)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(tail))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(begin))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(pageBits))
	binary.LittleEndian.PutUint64(hdr[28:36], uint64(idx.Len()))
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(len(partial)))
	binary.LittleEndian.PutUint64(hdr[44:52], uint64(cutTail))
	if _, err := w.Write(hdr[:]); err != nil {
		return info, err
	}
	if _, err := w.Write(idx.Bytes()); err != nil {
		return info, err
	}
	if _, err := w.Write(partial); err != nil {
		return info, err
	}
	return info, nil
}

// Recover builds a Store from a checkpoint image and the device it was
// taken against (cfg.Log.Device). The store is ready for new sessions on
// return.
func Recover(cfg Config, r io.Reader) (*Store, error) {
	var hdr [52]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("faster: reading checkpoint header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != checkpointMagic {
		return nil, fmt.Errorf("faster: bad checkpoint magic")
	}
	sealed := binary.LittleEndian.Uint32(hdr[4:8])
	tail := hlog.Address(binary.LittleEndian.Uint64(hdr[8:16]))
	begin := hlog.Address(binary.LittleEndian.Uint64(hdr[16:24]))
	pageBits := uint(binary.LittleEndian.Uint32(hdr[24:28]))
	idxLen := binary.LittleEndian.Uint64(hdr[28:36])
	partialLen := binary.LittleEndian.Uint64(hdr[36:44])
	cutTail := hlog.Address(binary.LittleEndian.Uint64(hdr[44:52]))

	if cfg.Log.PageBits != pageBits {
		return nil, fmt.Errorf("faster: checkpoint page bits %d != config %d",
			pageBits, cfg.Log.PageBits)
	}
	s, err := NewStore(cfg)
	if err != nil {
		return nil, err
	}
	ix, err := hashidx.RestoreSnapshot(io.LimitReader(r, int64(idxLen)))
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("faster: restoring index: %w", err)
	}
	s.index = ix

	tailPage := tail.Page(pageBits)
	tailPageStart := hlog.Address(tailPage << pageBits)
	if partialLen > 0 {
		page := s.log.NewPageBuffer()
		if _, err := io.ReadFull(r, page[:partialLen]); err != nil {
			s.Close()
			return nil, fmt.Errorf("faster: reading open page: %w", err)
		}
		s.log.RestoreFrame(tailPage, page)
	}
	s.log.RestoreMarkers(tail, tailPageStart, tailPageStart, tailPageStart)
	s.log.TruncateUntil(begin)
	if err := s.truncateChainsTo(sealed, cutTail); err != nil {
		s.Close()
		return nil, fmt.Errorf("faster: filtering recovered chains: %w", err)
	}
	s.version.Store(sealed + 1)
	return s, nil
}

// truncateChainsTo implements CPR recovery's version filter (§2.1, [41]):
// the checkpoint's index snapshot is fuzzy — it may reference records
// appended after the cut (stamped sealed+1) — so every chain is re-pointed
// at its newest pre-cut record. Post-cut records can only live at or above
// cutTail, which is what makes the 11-bit masked version stamp unambiguous
// here: within that window only sealed and sealed+1 coexist. Dropped suffix
// records stay in the log as garbage; they are unreachable and compaction
// reclaims them.
//
// Residual fuzziness relative to full CPR (which fences version-crossing
// threads with a phase protocol): a post-cut record spliced *below* a
// pre-cut chain head — two sessions racing the same bucket on opposite
// sides of the cut — is not unlinked, since its on-device predecessor
// pointer cannot be rewritten. The filter truncates head prefixes, which
// covers the systematic case (every chain whose head moved after the cut).
func (s *Store) truncateChainsTo(sealed uint32, cutTail hlog.Address) error {
	begin := s.log.BeginAddress()
	var walkErr error
	s.index.ForEachEntryInBuckets(0, s.index.NumBuckets(), func(_ uint64, slot hashidx.Slot) bool {
		e := slot.Load()
		if e.Free() {
			return true
		}
		addr, changed, err := s.newestPreCut(e.Address(), sealed, cutTail, begin)
		if err != nil {
			walkErr = err
			return false
		}
		if !changed {
			return true
		}
		if addr == hlog.InvalidAddress {
			slot.CompareAndSwap(e, 0) // whole chain is post-cut: free the slot
		} else {
			slot.CompareAndSwap(e, hashidx.PackEntry(e.Tag(), addr))
		}
		return true
	})
	return walkErr
}

// newestPreCut walks a chain from addr to the newest live record that is not
// stamped with the post-cut version, reading from the restored frames or the
// device as needed.
func (s *Store) newestPreCut(addr hlog.Address, sealed uint32, cutTail, begin hlog.Address) (hlog.Address, bool, error) {
	lg := s.log
	changed := false
	for addr != hlog.InvalidAddress && addr >= begin {
		if addr < cutTail {
			// Allocated before the version bump: pre-cut by construction.
			return addr, changed, nil
		}
		var m hlog.Meta
		if lg.InMemory(addr) {
			m = lg.RecordAt(addr).Meta()
		} else {
			rec, err := lg.ReadRecordFromDevice(addr, s.cfg.ReadHintBytes)
			if err != nil {
				return hlog.InvalidAddress, false, err
			}
			m = rec.Meta()
		}
		if !m.Invalid() && !hlog.SameVersion(m.Version(), sealed+1) {
			return addr, changed, nil
		}
		changed = true
		addr = m.Previous()
	}
	return hlog.InvalidAddress, changed, nil
}
