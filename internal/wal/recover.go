package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"spanjoin/internal/resilience"
)

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	// SnapshotDocs is the number of documents loaded from the snapshot
	// (0 when no snapshot exists).
	SnapshotDocs uint64
	// SnapshotGen is the generation of the snapshot loaded; 0 with no
	// snapshot.
	SnapshotGen uint64
	// Replayed counts log records applied on top of the snapshot.
	Replayed uint64
	// Skipped counts log records dropped as duplicates — their sequence
	// number was already covered by the snapshot (the idempotence path a
	// crash between snapshot rename and log pruning exercises).
	Skipped uint64
	// TornBytes is how many trailing bytes were truncated as a torn tail
	// across all replayed logs (0 on a clean shutdown).
	TornBytes uint64
	// LastSeq is the store's sequence number after recovery.
	LastSeq uint64
}

// Recovered is the outcome of Open: per-shard document lists ready to
// become the store's shards, the stats, and the live Log positioned to
// append.
type Recovered struct {
	Shards [][]string
	Stats  RecoveryStats
	Log    *Log
}

// corruptf builds a typed corruption error: errors.Is(err,
// resilience.ErrCorrupt) holds for every mid-log or snapshot validation
// failure Open reports.
func corruptf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, resilience.ErrCorrupt)...)
}

// Open recovers the data directory and returns the rebuilt shards plus
// the log opened for append. A fresh (empty or missing) directory is
// created and yields an empty store. shards fixes the store's shard
// count; a snapshot written with a different count is re-dealt
// round-robin, so the count is a tuning knob, not a format commitment.
//
// Failure modes, deliberately distinct:
//   - a torn log tail (crash residue) is truncated silently and counted
//     in Stats.TornBytes;
//   - anything else structurally wrong — checksum failures with intact
//     records after them, corrupt snapshots, impossible record framing —
//     returns an error matching resilience.ErrCorrupt and no Recovered;
//   - Open never panics on any byte content (fuzzed).
func Open(dir string, shards int, opt Options) (*Recovered, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("wal: shard count must be positive, got %d", shards)
	}
	if err := os.MkdirAll(dir, dirModePerm); err != nil {
		return nil, err
	}
	// Crash residue from an interrupted snapshot write is never valid
	// state — the rename is the commit point — so clear temp files first.
	clearTemps(dir)

	logs, snaps, err := listGens(dir)
	if err != nil {
		return nil, err
	}

	rec := &Recovered{Shards: make([][]string, shards)}
	var appliedSeq uint64
	if len(snaps) > 0 {
		gen := snaps[len(snaps)-1]
		appliedSeq, err = readSnapshot(filepath.Join(dir, snapName(gen)), rec.Shards)
		if err != nil {
			return nil, err
		}
		rec.Stats.SnapshotGen = gen
		for _, sh := range rec.Shards {
			rec.Stats.SnapshotDocs += uint64(len(sh))
		}
	}

	// Replay every log at or above the snapshot generation, oldest
	// first. Logs below the snapshot generation are fully covered by it
	// (the snapshot cycle rotates before it captures), but replaying
	// them would be harmless too — the sequence check drops duplicates.
	lastSeq := appliedSeq
	activeGen := rec.Stats.SnapshotGen
	var valid int64 // the active log's valid prefix, where appends resume
	for _, gen := range logs {
		if gen < rec.Stats.SnapshotGen {
			continue
		}
		path := filepath.Join(dir, logName(gen))
		tail := gen == logs[len(logs)-1]
		var torn int64
		valid, torn, err = replayLog(path, opt.maxRecord(), tail, func(seq uint64, shard uint32, doc string) error {
			if seq <= appliedSeq {
				rec.Stats.Skipped++
				return nil
			}
			if seq != lastSeq+1 {
				// Replay must be gapless past the snapshot point: appends
				// number records consecutively, so a hole means a record
				// the log once acked is gone.
				return corruptf("wal: sequence gap, %d follows %d in %s", seq, lastSeq, filepath.Base(path))
			}
			if int(shard) >= shards {
				// Shard indexes beyond the count mean the directory was
				// written with more shards than we were asked to open
				// with; re-deal deterministically instead of failing.
				shard = shard % uint32(shards)
			}
			rec.Shards[shard] = append(rec.Shards[shard], doc)
			rec.Stats.Replayed++
			lastSeq = seq
			return nil
		})
		if err != nil {
			return nil, err
		}
		rec.Stats.TornBytes += uint64(torn)
		activeGen = gen
	}
	rec.Stats.LastSeq = lastSeq

	// Open (or create) the active log for append, truncating any torn
	// tail so new records frame cleanly after the last valid one. The
	// active log, when it exists, is the last one replayed.
	l := &Log{dir: dir, opt: opt, gen: activeGen, seq: lastSeq, buf: make([]byte, 0, chunkBytes)}
	path := filepath.Join(dir, logName(activeGen))
	if _, statErr := os.Stat(path); statErr != nil {
		if l.f, err = createLogFile(dir, activeGen); err != nil {
			return nil, err
		}
		l.size = int64(len(logMagic))
	} else {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		if valid < int64(len(logMagic)) {
			// The crash hit during this log file's creation and even the
			// magic is incomplete — recreate the file rather than framing
			// records behind a partial header.
			f.Close()
			if err := os.Remove(path); err != nil {
				return nil, err
			}
			if l.f, err = createLogFile(dir, activeGen); err != nil {
				return nil, err
			}
			l.size = int64(len(logMagic))
		} else {
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, err
			}
			if _, err := f.Seek(valid, io.SeekStart); err != nil {
				f.Close()
				return nil, err
			}
			l.f, l.size = f, valid
		}
	}
	l.sizeAtomic.Store(uint64(l.size))
	l.lastSeq.Store(lastSeq)
	l.syncedSeq.Store(lastSeq)
	rec.Log = l
	return rec, nil
}

// clearTemps removes *.tmp files — interrupted snapshot writes.
func clearTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == tmpSuffix {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// errTorn is replay's internal marker for a decode failure that is
// consistent with a crash mid-append: everything from the failure offset
// to EOF is the torn tail. Never escapes this package.
var errTorn = errors.New("wal: torn tail")

// replayLog decodes one log file, calling apply for every valid record.
// tail says this is the final (active) log: only there is a trailing
// decode failure accepted as a torn tail — an interior log was rotated
// away by a completed snapshot cycle, so damage in it is corruption
// regardless of position. Returns the byte length of the valid prefix —
// where appends resume — and how many trailing bytes were torn.
func replayLog(path string, maxRecord uint32, tail bool, apply func(seq uint64, shard uint32, doc string) error) (valid, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if len(data) < len(logMagic) {
		if tail && prefixOf(data, []byte(logMagic)) {
			// The crash hit during file creation, before the magic was
			// complete; the file holds nothing.
			return 0, int64(len(data)), nil
		}
		return 0, 0, corruptf("wal: %s: truncated magic", filepath.Base(path))
	}
	if string(data[:len(logMagic)]) != logMagic {
		return 0, 0, corruptf("wal: %s: bad magic", filepath.Base(path))
	}
	off := len(logMagic)
	for off < len(data) {
		n, seq, shard, doc, derr := decodeRecord(data[off:], maxRecord)
		if derr != nil {
			if errors.Is(derr, errTorn) && tail {
				return int64(off), int64(len(data) - off), nil
			}
			return 0, 0, corruptf("wal: %s at offset %d: %v", filepath.Base(path), off, derr)
		}
		if err := apply(seq, shard, doc); err != nil {
			return 0, 0, err
		}
		off += n
	}
	return int64(off), 0, nil
}

// prefixOf reports whether data is a (possibly empty) prefix of full.
func prefixOf(data, full []byte) bool {
	return len(data) <= len(full) && string(data) == string(full[:len(data)])
}

// decodeRecord decodes one record from the head of b. It returns errTorn
// (wrapped) for failures explainable as a crash mid-append — a write is
// a prefix of header+payload, so the damage set is: short header, short
// payload, or a checksum mismatch on the record that reaches EOF. A
// checksum failure with bytes after the framed record, or a length no
// append could have written, is real corruption.
func decodeRecord(b []byte, maxRecord uint32) (n int, seq uint64, shard uint32, doc string, err error) {
	if len(b) < recHdrSize {
		return 0, 0, 0, "", fmt.Errorf("short header (%d bytes): %w", len(b), errTorn)
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if length < recMinBody || length > maxRecord {
		if allZero(b) {
			// A zero-filled tail is filesystem crash residue (size
			// extended, data blocks never written): torn, not corrupt.
			return 0, 0, 0, "", fmt.Errorf("zero-filled tail: %w", errTorn)
		}
		return 0, 0, 0, "", fmt.Errorf("impossible record length %d", length)
	}
	end := recHdrSize + int(length)
	if len(b) < end {
		return 0, 0, 0, "", fmt.Errorf("short payload (%d of %d bytes): %w", len(b)-recHdrSize, length, errTorn)
	}
	payload := b[recHdrSize:end]
	if crc32.Checksum(payload, crcTable) != sum {
		if len(b) == end {
			// The bad record is the file's last: consistent with a torn
			// write whose tail the filesystem zero- or garbage-filled.
			return 0, 0, 0, "", fmt.Errorf("checksum mismatch on final record: %w", errTorn)
		}
		return 0, 0, 0, "", fmt.Errorf("checksum mismatch with %d intact bytes after the record", len(b)-end)
	}
	seq = binary.LittleEndian.Uint64(payload[0:8])
	shard = binary.LittleEndian.Uint32(payload[8:12])
	return end, seq, shard, string(payload[12:]), nil
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
