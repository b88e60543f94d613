// Package wal is the durability layer under the corpus store: a
// checksummed, length-prefixed write-ahead log plus atomically-written
// snapshot files, and the recovery path that rebuilds a sharded document
// store from them after any crash.
//
// The contract is the storage-engine classic — log then ack:
//
//   - Every added document is appended to the log as one
//     CRC32-C-checksummed record (sequence number, shard, document bytes)
//     before the caller is acknowledged. A batch of documents is that
//     many records back to back, written in sequence order, and is
//     acknowledged as a whole; a crash mid-batch can leave a prefix of it
//     on the file. How hard the ack is depends on the fsync policy
//     (SyncAlways: one fsync per batch before the ack; SyncInterval:
//     written to the OS, fsynced by a ticker; SyncNever: written to the
//     OS only).
//   - A snapshot is the store's full state written to a temp file,
//     fsynced, then atomically renamed into place; only after the rename
//     is durable are older logs and snapshots pruned. Snapshots are
//     shard-partitioned so recovery rebuilds the sharded store (and its
//     skip index) directly, and carry the sequence number they cover so
//     log replay over a snapshot is idempotent.
//   - Recovery replays snapshot + log suffix. A torn tail — the residue
//     of a crash mid-append — is detected by the checksum and truncated
//     at the last valid record. Damage that cannot be a torn tail (a bad
//     checksum with intact records after it, a corrupt snapshot) is
//     *corruption*: it surfaces as resilience.ErrCorrupt, never as a
//     panic and never as silently invented or dropped documents.
//
// File layout in the data directory, by generation g:
//
//	wal-<g>.log    records applying on top of snap-<g>.snap (or an
//	               empty store when no snapshot exists)
//	snap-<g>.snap  the store state the moment log g was started
//
// A snapshot cycle rotates the log to generation g+1 first, then writes
// snap-<g+1> from the captured state, then prunes generations ≤ g. A
// crash anywhere in that cycle leaves a recoverable directory: before
// the rename, recovery sees snap-<g> + logs g and g+1 (sequence numbers
// dedupe the overlap); after it, snap-<g+1> + both logs replays to the
// identical store.
package wal

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"spanjoin/internal/obs"
	"spanjoin/internal/resilience"
)

// SyncPolicy says when an Append's bytes are forced to stable storage
// relative to the moment the Append returns (the "ack").
type SyncPolicy int

const (
	// SyncAlways fsyncs the log before every Append returns: an
	// acknowledged write survives even an operating-system crash. The
	// slowest policy — every ack pays a device flush.
	SyncAlways SyncPolicy = iota
	// SyncInterval writes through to the OS on every Append and fsyncs on
	// a timer (Options.Interval): an acknowledged write survives process
	// death immediately and machine death once the next tick has passed.
	SyncInterval
	// SyncNever writes through to the OS and never fsyncs (except on
	// clean Close): an acknowledged write survives process death but a
	// machine crash may lose the page-cache tail.
	SyncNever
)

// String names the policy the way flags and stats report it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParsePolicy is String's inverse, for flag parsing.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("bad fsync policy %q (want always, interval or never)", s)
}

// Options tune a Log.
type Options struct {
	// Policy is the fsync policy (default SyncAlways — durable unless
	// explicitly relaxed).
	Policy SyncPolicy
	// Interval is the SyncInterval tick (default 100ms). The log does not
	// run the ticker itself — the owner calls Sync on this cadence — but
	// records the value for stats.
	Interval time.Duration
	// MaxRecord bounds one record's payload; larger appends (and decoded
	// lengths during recovery) are rejected. Default 1 GiB.
	MaxRecord uint32
	// Stages records the wal_append and wal_fsync stages; nil records
	// none.
	Stages *obs.StageRecorder
}

func (o Options) maxRecord() uint32 {
	if o.MaxRecord == 0 {
		return 1 << 30
	}
	return o.MaxRecord
}

func (o Options) interval() time.Duration {
	if o.Interval <= 0 {
		return 100 * time.Millisecond
	}
	return o.Interval
}

// Record framing. Every record is
//
//	u32 length of payload (little endian)
//	u32 CRC32-C of payload
//	payload = u64 seq | u32 shard | document bytes
//
// and every log file starts with an 8-byte magic. The CRC covers the
// payload, so a bit flip in either header field or the payload fails
// validation; the length field is additionally range-checked (a payload
// is at least the 12-byte seq+shard prefix, at most MaxRecord), so a
// flipped length that frames garbage is caught even when the garbage
// happens to extend to EOF.
const (
	logMagic    = "SJWAL\x00\x01\n"
	recHdrSize  = 8
	recMinBody  = 12
	crcPoly     = crc32.Castagnoli
	snapMagic   = "SJSNAP\x00\x01"
	tmpSuffix   = ".tmp"
	logSuffix   = ".log"
	snapSuffix  = ".snap"
	logPrefix   = "wal-"
	snapPrefix  = "snap-"
	genNameFmt  = "%016x"
	dirModePerm = 0o755
)

var crcTable = crc32.MakeTable(crcPoly)

// Stats are the log's cumulative counters, all monotone, safe to read
// concurrently with appends.
type Stats struct {
	// Appends counts records successfully appended since open.
	Appends uint64
	// AppendBytes counts payload+header bytes appended since open.
	AppendBytes uint64
	// Syncs counts fsyncs issued (policy syncs, explicit Syncs, and the
	// close sync).
	Syncs uint64
	// SyncErrors counts fsyncs that failed; the first one wedges the log.
	SyncErrors uint64
	// Rotations counts snapshot-cycle log rotations since open.
	Rotations uint64
	// Size is the active log file's current size in bytes.
	Size uint64
	// LastSeq is the sequence number of the last record appended (or
	// recovered); 0 before any.
	LastSeq uint64
	// SyncedSeq is the highest sequence number known to be on stable
	// storage (advanced by every successful fsync; equal to LastSeq under
	// SyncAlways).
	SyncedSeq uint64
}

// Log is an open write-ahead log: the append end of the data directory.
// Appends are serialized by the owner (the durable store holds one mutex
// across append+apply); Log itself only guards its counters, so it must
// not be shared between unsynchronized writers.
type Log struct {
	dir string
	opt Options

	f    *os.File
	gen  uint64
	size int64
	seq  uint64 // last appended sequence number
	buf  []byte // one chunk of record framing, reused by every Append

	// dirty tracks whether bytes were written since the last fsync;
	// wedged is the first unrecoverable I/O error — once set, every
	// subsequent Append and Sync returns it (the log's durability story
	// is broken and pretending otherwise would fabricate acks).
	dirty  bool
	wedged error

	appends     atomic.Uint64
	appendBytes atomic.Uint64
	syncs       atomic.Uint64
	syncErrors  atomic.Uint64
	rotations   atomic.Uint64
	syncedSeq   atomic.Uint64
	lastSeq     atomic.Uint64
	sizeAtomic  atomic.Uint64
}

// Policy reports the configured fsync policy.
func (l *Log) Policy() SyncPolicy { return l.opt.Policy }

// Interval reports the configured (or default) sync interval.
func (l *Log) Interval() time.Duration { return l.opt.interval() }

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.appends.Load(),
		AppendBytes: l.appendBytes.Load(),
		Syncs:       l.syncs.Load(),
		SyncErrors:  l.syncErrors.Load(),
		Rotations:   l.rotations.Load(),
		Size:        l.sizeAtomic.Load(),
		LastSeq:     l.lastSeq.Load(),
		SyncedSeq:   l.syncedSeq.Load(),
	}
}

// Size reports the active log file's size in bytes (header included).
func (l *Log) Size() int64 { return int64(l.sizeAtomic.Load()) }

// LastSeq reports the last appended (or recovered) sequence number.
func (l *Log) LastSeq() uint64 { return l.lastSeq.Load() }

func logName(gen uint64) string  { return logPrefix + fmt.Sprintf(genNameFmt, gen) + logSuffix }
func snapName(gen uint64) string { return snapPrefix + fmt.Sprintf(genNameFmt, gen) + snapSuffix }

// parseGen extracts the generation from a wal-/snap- file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var g uint64
	if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], genNameFmt, &g); err != nil {
		return 0, false
	}
	return g, true
}

// Record is one document of an Append batch, with the shard recovery
// deals it to.
type Record struct {
	Shard uint32
	Doc   string
}

// chunkBytes bounds one write of a batch, and so the framing buffer the
// log keeps between appends; a record larger than a chunk is written, and
// framed, on its own.
const chunkBytes = 64 << 10

// readBufBytes is the read-ahead of recovery's decodes: a log record or a
// snapshot document that fits it is decoded in place (see take).
const readBufBytes = 16 << 10

// Append writes a batch of records — log-then-ack's "log" half — and
// returns the sequence number of its last (the log's last for an empty
// batch, which touches nothing). Records are numbered in batch order and
// written in that order, chunk by chunk; under SyncAlways one fsync
// follows the last. The batch is on the file (and, under SyncAlways, on
// stable storage) when Append returns; the caller applies it to the
// in-memory store only after. A document over MaxRecord fails the whole
// batch before any byte is written and leaves the log usable; a failed
// write wedges the log, and every later Append returns the wedging
// error. A crash or a failed write mid-batch can leave a prefix of its
// records on the file. The writes and the policy fsync are recorded as
// the wal_append and wal_fsync stages under ctx, which does not cancel
// the write.
//
//spanjoin:stage wal_append
func (l *Log) Append(ctx context.Context, recs ...Record) (uint64, error) {
	if l.wedged != nil {
		return 0, l.wedged
	}
	for _, r := range recs {
		if uint64(len(r.Doc))+recMinBody > uint64(l.opt.maxRecord()) {
			return 0, fmt.Errorf("wal: document of %d bytes exceeds the %d-byte record cap", len(r.Doc), l.opt.maxRecord())
		}
	}
	if len(recs) == 0 {
		return l.seq, nil
	}
	t0 := time.Now()
	resilience.Inject(resilience.CrashBeforeAppend, l.seq+1)
	b, written := l.buf[:0], 0
	for i, r := range recs {
		if len(b) > 0 && len(b)+recHdrSize+recMinBody+len(r.Doc) > chunkBytes {
			if err := l.writeChunk(b); err != nil {
				return 0, err
			}
			written += len(b)
			b = b[:0]
		}
		b = frame(b, l.seq+uint64(i)+1, r)
	}
	if err := l.writeChunk(b); err != nil {
		return 0, err
	}
	l.seq += uint64(len(recs))
	resilience.Inject(resilience.CrashAfterAppend, l.seq)
	l.dirty = true
	l.lastSeq.Store(l.seq)
	l.appends.Add(uint64(len(recs)))
	l.appendBytes.Add(uint64(written + len(b)))
	l.opt.Stages.Observe(ctx, obs.StageWALAppend, time.Since(t0))
	if l.opt.Policy == SyncAlways {
		if err := l.sync(ctx); err != nil {
			return 0, err
		}
	}
	return l.seq, nil
}

// frame appends record seq, carrying r, to b.
func frame(b []byte, seq uint64, r Record) []byte {
	at := len(b)
	b = binary.LittleEndian.AppendUint32(b, uint32(recMinBody+len(r.Doc)))
	b = binary.LittleEndian.AppendUint32(b, 0) // CRC, set below
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, r.Shard)
	b = append(b, r.Doc...)
	binary.LittleEndian.PutUint32(b[at+4:], crc32.Checksum(b[at+recHdrSize:], crcTable))
	return b
}

// writeChunk writes framed records at the log's end. A failed write
// wedges the log: a partial record on the file is exactly a torn tail,
// which recovery truncates, but this process's view of the log is past
// repair — no later append may frame a record behind the garbage.
func (l *Log) writeChunk(b []byte) error {
	n, err := faultWrite(l.f, b, "append")
	l.size += int64(n)
	l.sizeAtomic.Store(uint64(l.size))
	if err != nil {
		l.wedged = fmt.Errorf("wal: append failed, log wedged: %w", err)
		return l.wedged
	}
	return nil
}

// faultWrite writes b to f, honoring an armed wal/io write failpoint:
// the action may shorten the write (torn-write simulation) or fail it.
func faultWrite(f *os.File, b []byte, op string) (int, error) {
	fault := resilience.IOFault{Op: op, N: len(b), ShortenTo: -1}
	name := resilience.FailWALWrite
	if op == "snapshot" {
		name = resilience.FailSnapWrite
	}
	resilience.Inject(name, &fault)
	if fault.ShortenTo >= 0 && fault.ShortenTo < len(b) {
		n, err := f.Write(b[:fault.ShortenTo])
		if err == nil {
			err = fault.Err
			if err == nil {
				err = fmt.Errorf("wal: short write (%d of %d bytes)", n, len(b))
			}
		}
		return n, err
	}
	if fault.Err != nil {
		return 0, fault.Err
	}
	return f.Write(b)
}

// Sync forces appended bytes to stable storage. A failed fsync wedges
// the log: after a sync error the kernel may have dropped the dirty
// pages, so the durability of every unacked byte is unknown and further
// acks would be lies.
func (l *Log) Sync() error { return l.sync(context.Background()) }

// sync is Sync recording its fsync as the wal_fsync stage under ctx.
//
//spanjoin:stage wal_fsync
func (l *Log) sync(ctx context.Context) error {
	if l.wedged != nil {
		return l.wedged
	}
	if !l.dirty {
		return nil
	}
	fault := resilience.IOFault{Op: "sync"}
	resilience.Inject(resilience.FailWALSync, &fault)
	t0 := time.Now()
	err := fault.Err
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.syncErrors.Add(1)
		l.wedged = fmt.Errorf("wal: fsync failed, log wedged: %w", err)
		return l.wedged
	}
	l.dirty = false
	l.syncs.Add(1)
	l.syncedSeq.Store(l.seq)
	l.opt.Stages.Observe(ctx, obs.StageWALSync, time.Since(t0))
	return nil
}

// Rotate starts generation gen+1: a fresh log file becomes the append
// target and the old one is left for the snapshot cycle to prune. Called
// by the store under its append lock, so the captured store state and
// the rotation point agree.
func (l *Log) Rotate() (newGen uint64, err error) {
	if l.wedged != nil {
		return 0, l.wedged
	}
	// The outgoing log must be durable before the snapshot that will
	// supersede it starts from its state.
	if err := l.Sync(); err != nil {
		return 0, err
	}
	gen := l.gen + 1
	f, err := createLogFile(l.dir, gen)
	if err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		f.Close()
		l.wedged = fmt.Errorf("wal: closing rotated log: %w", err)
		return 0, l.wedged
	}
	l.f, l.gen = f, gen
	l.size = int64(len(logMagic))
	l.sizeAtomic.Store(uint64(l.size))
	l.dirty = false
	l.rotations.Add(1)
	return gen, nil
}

// createLogFile creates wal-<gen>.log with its magic header, fsynced so
// the file frames correctly even if the process dies immediately after.
func createLogFile(dir string, gen uint64) (*os.File, error) {
	path := filepath.Join(dir, logName(gen))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(logMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Prune removes snapshots and logs of generations strictly below keep —
// the final step of a snapshot cycle, safe because snap-<keep> is
// durable by the time it runs. Best-effort: a file that refuses to die
// costs disk, not correctness (recovery dedupes by sequence number).
func (l *Log) Prune(keep uint64) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		g, ok := parseGen(name, logPrefix, logSuffix)
		if !ok {
			g, ok = parseGen(name, snapPrefix, snapSuffix)
		}
		if ok && g < keep {
			os.Remove(filepath.Join(l.dir, name))
		}
	}
}

// Close syncs (so a clean shutdown is durable regardless of policy) and
// closes the log file. The wedging error, if any, is returned — but the
// file is closed either way.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a machine crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// listGens scans the directory for log and snapshot generations.
func listGens(dir string) (logs, snaps []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), logPrefix, logSuffix); ok {
			logs = append(logs, g)
		}
		if g, ok := parseGen(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, g)
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return logs, snaps, nil
}
