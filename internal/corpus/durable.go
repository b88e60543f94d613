package corpus

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"spanjoin/internal/obs"
	"spanjoin/internal/resilience"
	"spanjoin/internal/wal"
)

// Durable mode: a Store whose Adds are written to a write-ahead log
// before they become visible, with background snapshotting to bound
// recovery time. The store stays append-only and its evaluation paths
// are untouched — durability is strictly below the shard layer.
//
// Write path (one mutex, durability.mu, serializes it end to end):
//
//	1. choose the shard (round-robin, same as the RAM store)
//	2. wal.Log.Append — the record is on the file, and on stable
//	   storage under SyncAlways, before anything is visible
//	3. apply to the in-memory shard (and skip index)
//	4. return the DocID: the ack
//
// A crash between 2 and 4 can leave a record durable but unacked; a
// crash before 2 leaves nothing. Recovery replays the log, so the
// invariant callers get is: acked ⇒ present, unacked ⇒ absent except
// possibly the single in-flight write, which is then byte-identical to
// what was being written.

// DurabilityStats is a snapshot of the durable layer's counters; the
// zero value is what a RAM store reports.
type DurabilityStats struct {
	// Dir is the data directory; "" for a RAM store.
	Dir string `json:"dir"`
	// Policy is the fsync policy name ("always", "interval", "never").
	Policy string `json:"policy"`
	// Appends counts records logged since open; AppendBytes their size.
	Appends     uint64 `json:"appends"`
	AppendBytes uint64 `json:"append_bytes"`
	// Syncs counts fsyncs; SyncErrors counts failed ones (the first
	// failure wedges the log and every later Add errors).
	Syncs      uint64 `json:"syncs"`
	SyncErrors uint64 `json:"sync_errors"`
	// LastSeq is the newest record's sequence number; SyncedSeq the
	// newest known to be on stable storage.
	LastSeq   uint64 `json:"last_seq"`
	SyncedSeq uint64 `json:"synced_seq"`
	// LogSize is the active log file's size in bytes.
	LogSize uint64 `json:"log_size"`
	// Snapshots counts snapshot cycles completed since open;
	// SnapshotErrors, cycles that failed (the log keeps growing but no
	// data is lost).
	Snapshots      uint64 `json:"snapshots"`
	SnapshotErrors uint64 `json:"snapshot_errors"`
	// Recovery describes what the last Open found and repaired.
	RecoveredDocs     uint64 `json:"recovered_docs"`
	ReplayedRecords   uint64 `json:"replayed_records"`
	TornBytesRepaired uint64 `json:"torn_bytes_repaired"`
}

// durability is the Store's durable half; nil on a RAM store.
type durability struct {
	// mu serializes the append+apply write path and the capture half of a
	// snapshot cycle, so the rotation point and the captured shard state
	// always agree.
	mu  sync.Mutex
	log *wal.Log
	dir string

	// snapMu serializes whole snapshot cycles (an explicit Snapshot
	// racing the background one must not interleave two rotations).
	snapMu sync.Mutex

	// snapThreshold triggers a background snapshot when the active log
	// outgrows it; 0 disables the trigger.
	snapThreshold int64

	recovery wal.RecoveryStats

	snapshots  atomic.Uint64
	snapErrors atomic.Uint64

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// OpenStore recovers (or creates) a durable store from dir. Shard count
// and gate semantics match NewStore; opt tunes the log; snapThreshold,
// when > 0, makes the background loop snapshot whenever the active log
// exceeds it.
func OpenStore(dir string, n int, opt wal.Options, snapThreshold int64) (*Store, error) {
	s := NewStore(n)
	rec, err := wal.Open(dir, len(s.shards), opt)
	if err != nil {
		return nil, err
	}
	var total uint64
	for i := range s.shards {
		s.shards[i].docs = rec.Shards[i]
		total += uint64(len(rec.Shards[i]))
	}
	// Seed the round-robin chooser with the recovered count, so new
	// appends continue the rotation — and the ID sequence — where the
	// previous run left off instead of piling onto shard 0.
	s.rr.Store(total)
	s.dur = &durability{
		log:           rec.Log,
		dir:           dir,
		snapThreshold: snapThreshold,
		recovery:      rec.Stats,
		stop:          make(chan struct{}),
		done:          make(chan struct{}),
	}
	go s.durLoop()
	return s, nil
}

// Durable reports whether the store has a write-ahead log behind it.
func (s *Store) Durable() bool { return s.dur != nil }

// RecoveryStats reports what Open found; zero value for a RAM store.
func (s *Store) RecoveryStats() wal.RecoveryStats {
	if s.dur == nil {
		return wal.RecoveryStats{}
	}
	return s.dur.recovery
}

// DurabilityStats snapshots the durable layer's counters; zero value for
// a RAM store.
func (s *Store) DurabilityStats() DurabilityStats {
	d := s.dur
	if d == nil {
		return DurabilityStats{}
	}
	ws := d.log.Stats()
	return DurabilityStats{
		Dir:               d.dir,
		Policy:            d.log.Policy().String(),
		Appends:           ws.Appends,
		AppendBytes:       ws.AppendBytes,
		Syncs:             ws.Syncs,
		SyncErrors:        ws.SyncErrors,
		LastSeq:           ws.LastSeq,
		SyncedSeq:         ws.SyncedSeq,
		LogSize:           ws.Size,
		Snapshots:         d.snapshots.Load(),
		SnapshotErrors:    d.snapErrors.Load(),
		RecoveredDocs:     d.recovery.SnapshotDocs + d.recovery.Replayed,
		ReplayedRecords:   d.recovery.Replayed,
		TornBytesRepaired: d.recovery.TornBytes,
	}
}

// AddErr appends a document. On a RAM store it never fails; on a durable
// store it returns the log's error — and then the document was NOT added
// (nothing unlogged becomes visible). Safe for concurrent use.
func (s *Store) AddErr(doc string) (DocID, error) {
	return s.AddErrCtx(context.Background(), doc)
}

// AddErrCtx is AddErr with the caller's context: when the context
// carries a trace (obs.WithTrace), the write-ahead-log append and the
// fsync its policy forced are recorded as the wal_append and wal_fsync
// stages, so a traced write explains where its latency went. The context
// does not cancel the write — a logged record is a logged record.
//
//spanjoin:stage wal_append
//spanjoin:stage wal_fsync
func (s *Store) AddErrCtx(ctx context.Context, doc string) (DocID, error) {
	d := s.dur
	if d == nil {
		return s.Add(doc), nil
	}
	tr := obs.FromContext(ctx)
	d.mu.Lock()
	defer d.mu.Unlock()
	t0 := time.Now()
	si := (s.rr.Add(1) - 1) % uint64(len(s.shards))
	seq, err := d.log.Append(uint32(si), doc)
	if tr != nil {
		total := time.Since(t0)
		var synced time.Duration
		if err == nil && d.log.Policy() == wal.SyncAlways {
			// d.mu serializes appends, so the log's last fsync is exactly
			// the one this append paid.
			synced = d.log.LastSyncDuration()
			tr.Observe(obs.StageWALSync, synced)
		}
		tr.Observe(obs.StageWALAppend, total-synced)
	}
	if err != nil {
		return 0, err
	}
	sh := &s.shards[si]
	sh.mu.Lock()
	pos := uint64(len(sh.docs))
	sh.docs = append(sh.docs, doc)
	if sh.idx != nil {
		sh.idx.Add(doc)
	}
	sh.mu.Unlock()
	resilience.Inject(resilience.CrashBeforeAck, seq)
	return s.idOf(si, pos), nil
}

// Sync forces every logged record to stable storage, regardless of the
// fsync policy. No-op on a RAM store.
func (s *Store) Sync() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Sync()
}

// Snapshot runs one snapshot cycle: rotate the log, write the captured
// state to a new snapshot file, prune superseded generations. Appends
// are blocked only for the rotation and capture (slice-header copies);
// the snapshot file is written concurrently with new appends. No-op on a
// RAM store.
func (s *Store) Snapshot() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	t0 := time.Now()
	defer func() { s.met.snapshot.Observe(time.Since(t0)) }()

	d.mu.Lock()
	gen, err := d.log.Rotate()
	if err != nil {
		d.mu.Unlock()
		d.snapErrors.Add(1)
		return err
	}
	seq := d.log.LastSeq()
	shards := make([][]string, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		shards[i] = sh.docs[:len(sh.docs):len(sh.docs)]
		sh.mu.RUnlock()
	}
	d.mu.Unlock()

	if err := wal.WriteSnapshot(d.dir, gen, seq, shards); err != nil {
		// The cycle failed after the rotation: not a correctness problem
		// (the new log still replays over the previous snapshot) but the
		// old generation cannot be pruned.
		d.snapErrors.Add(1)
		return err
	}
	d.log.Prune(gen)
	d.snapshots.Add(1)
	return nil
}

// Close stops the background loop and closes the log, syncing it so a
// clean shutdown is durable under every policy. Idempotent; no-op on a
// RAM store.
func (s *Store) Close() error {
	d := s.dur
	if d == nil {
		return nil
	}
	d.closeOnce.Do(func() {
		close(d.stop)
		<-d.done
		d.mu.Lock()
		d.closeErr = d.log.Close()
		d.mu.Unlock()
	})
	return d.closeErr
}

// durLoop is the background durability goroutine: under SyncInterval it
// fsyncs on the configured cadence, and under any policy it watches the
// active log's size against the snapshot threshold. Snapshot errors are
// counted, not fatal — the next tick retries.
func (s *Store) durLoop() {
	d := s.dur
	defer close(d.done)
	t := time.NewTicker(d.log.Interval())
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if d.log.Policy() == wal.SyncInterval {
				d.mu.Lock()
				// A wedged log keeps returning its sticky error; the write
				// path reports it on the next Add, so it is dropped here.
				_ = d.log.Sync()
				d.mu.Unlock()
			}
			if d.snapThreshold > 0 && d.log.Size() >= d.snapThreshold {
				_ = s.Snapshot()
			}
		}
	}
}
