package spanjoin

import (
	"context"
	"time"

	"spanjoin/internal/corpus"
	"spanjoin/internal/obs"
	"spanjoin/internal/resilience"
	"spanjoin/internal/wal"
)

// Durable corpora. Open recovers (or creates) a corpus backed by a data
// directory: every Add is written to a checksummed write-ahead log
// before it is acknowledged, a background snapshotter bounds recovery
// time, and reopening the directory after any crash replays the store
// back to exactly the acknowledged writes. See the README's "Durability
// and crash recovery" section.
//
// The empty document is a document: Add("") is logged, counted by Len,
// recovered on reopen, and evaluated like any other document. Durability
// never conflates "empty" with "absent".

// SyncPolicy says when an acknowledged Add is guaranteed to have reached
// stable storage: SyncAlways before the ack, SyncInterval within the
// sync interval, SyncNever only on graceful Close.
type SyncPolicy = wal.SyncPolicy

// The sync policies, from most to least durable.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// ParseSyncPolicy parses "always", "interval" or "never" — the flag
// syntax of spand's -fsync.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParsePolicy(s) }

// DurabilityStats is a snapshot of a durable corpus's write-ahead-log
// and snapshot counters; the zero value is what a RAM corpus reports.
type DurabilityStats = corpus.DurabilityStats

// WithSync sets the fsync policy of a durable corpus (default
// SyncAlways). Ignored by NewCorpus.
func WithSync(p SyncPolicy) CorpusOption {
	return func(c *corpusConfig) { c.syncPolicy = p }
}

// WithSyncInterval sets the SyncInterval cadence (default 100ms).
// Ignored by NewCorpus and by the other policies.
func WithSyncInterval(d time.Duration) CorpusOption {
	return func(c *corpusConfig) { c.syncInterval = d }
}

// WithSnapshotThreshold makes the background snapshotter write a new
// snapshot (and prune the log) whenever the active log grows past n
// bytes, bounding both disk use and recovery replay time. n ≤ 0
// disables automatic snapshots — Snapshot can still be called
// explicitly. Default 0. Ignored by NewCorpus.
func WithSnapshotThreshold(n int64) CorpusOption {
	return func(c *corpusConfig) { c.snapshotThreshold = n }
}

// Open recovers a durable corpus from dir, creating it (and the
// directory) when empty. All NewCorpus options apply, plus WithSync,
// WithSyncInterval and WithSnapshotThreshold.
//
// Recovery replays the newest snapshot and the log on top of it. A torn
// log tail — ordinary crash residue — is repaired silently; damaged
// state that cannot be crash residue (checksum failures mid-log, a
// corrupt snapshot) fails Open with an error matching ErrCorrupt rather
// than inventing or silently dropping documents.
func Open(dir string, opts ...CorpusOption) (*Corpus, error) {
	var cfg corpusConfig
	for _, o := range opts {
		o(&cfg)
	}
	reg := obs.NewRegistry()
	store, err := corpus.OpenStore(dir, cfg.shards, wal.Options{
		Policy:   cfg.syncPolicy,
		Interval: cfg.syncInterval,
		Stages:   reg.Stages(),
	}, cfg.snapshotThreshold)
	if err != nil {
		return nil, err
	}
	if cfg.indexed {
		store.EnableIndex()
	}
	if cfg.maxConcurrent > 0 {
		store.SetGate(resilience.NewGate(int64(cfg.maxConcurrent), cfg.maxQueue))
	}
	return newCorpus(store, cfg, reg), nil
}

// Durable reports whether the corpus is backed by a data directory.
func (c *Corpus) Durable() bool { return c.store.Durable() }

// AddErrCtx appends documents like AddAll — one batch, their IDs indexed
// like docs — but returns the durability error instead of panicking. On
// a durable corpus the whole batch is logged, with one fsync under
// SyncAlways, before any of it becomes visible. A document over the
// log's 1 GiB record cap fails the whole batch, and on a corpus whose
// log has failed (a full disk, a failed fsync) every AddErrCtx reports
// the sticky error; either way no document of the batch is added. On a
// RAM corpus AddErrCtx never fails. The batch's WAL append and fsync
// stages are recorded under ctx (and into its trace, WithTrace); the
// context does not cancel the write.
func (c *Corpus) AddErrCtx(ctx context.Context, docs ...string) ([]DocID, error) {
	return c.store.AddErrCtx(ctx, docs...)
}

// Sync forces every acknowledged Add to stable storage regardless of the
// fsync policy. No-op on a RAM corpus.
func (c *Corpus) Sync() error { return c.store.Sync() }

// Snapshot writes the corpus state to a new snapshot file and prunes the
// superseded log — the explicit form of WithSnapshotThreshold's
// background cycle. The cycle is recorded as the snapshot stage under
// ctx, which does not cancel it. No-op on a RAM corpus.
func (c *Corpus) Snapshot(ctx context.Context) error { return c.store.Snapshot(ctx) }

// Close stops the background durability work and closes the log, first
// syncing it so a graceful shutdown is fully durable under every policy.
// Idempotent; no-op on a RAM corpus. The corpus must not be used after
// Close.
func (c *Corpus) Close() error { return c.store.Close() }

// DurabilityStats reports the durable layer's counters: log appends and
// fsyncs, snapshot cycles, and what recovery found at Open.
func (c *Corpus) DurabilityStats() DurabilityStats { return c.store.DurabilityStats() }
