package corpus

import (
	"context"
	"time"

	"spanjoin/internal/obs"
	"spanjoin/internal/prefilter"
)

// storeMetrics holds the store's observability instruments. The zero
// value — a store whose owner never called SetRegistry — is fully
// functional: every field is a nil instrument and every observation a
// nil-check, so library users who want no metrics pay (almost) nothing.
type storeMetrics struct {
	// stages records the admission, prefilter, enumerate, count and
	// snapshot stages into the stage histograms and the query's trace.
	stages *obs.StageRecorder

	docsScanned *obs.Counter
	docsSkipped *obs.Counter
	docsReused  *obs.Counter
	results     *obs.Counter
}

// SetRegistry registers the store's metrics — its stage recorder, gate
// depth, document and result counters, and (on a durable store) the
// cumulative log and snapshot counters. Call once before the store
// serves queries, like SetGate; installation is not synchronized with
// running evaluations.
func (s *Store) SetRegistry(r *obs.Registry) {
	s.met = storeMetrics{
		stages:      r.Stages(),
		docsScanned: r.Counter("spanjoin_docs_scanned_total", "Documents actually evaluated or counted (streaming evaluations and counting sweeps)."),
		docsSkipped: r.Counter("spanjoin_docs_skipped_total", "Documents excluded by the prefilter (streaming evaluations and counting sweeps)."),
		docsReused:  r.Counter("spanjoin_docs_reused_total", "Documents whose counts a counting sweep took from its query's count memo."),
		results:     r.Counter("spanjoin_results_total", "Result tuples delivered by streaming evaluations."),
	}
	r.Gauge("spanjoin_docs", "Documents in the store.", func() float64 { return float64(s.Len()) })
	if g := s.gate; g != nil {
		r.Gauge("spanjoin_gate_active", "Admission units currently held.", func() float64 { return float64(g.Stats().Active) })
		r.Gauge("spanjoin_gate_queued", "Callers waiting in the admission queue.", func() float64 { return float64(g.Stats().Queued) })
		r.CounterFunc("spanjoin_gate_rejected_total", "Queries shed by the admission gate.", func() uint64 { return g.Stats().Rejected })
	}
	if d := s.dur; d != nil {
		r.CounterFunc("spanjoin_wal_appends_total", "WAL records appended since open.", func() uint64 { return d.log.Stats().Appends })
		r.CounterFunc("spanjoin_wal_append_bytes_total", "WAL bytes appended since open.", func() uint64 { return d.log.Stats().AppendBytes })
		r.CounterFunc("spanjoin_wal_fsyncs_total", "WAL fsyncs issued since open.", func() uint64 { return d.log.Stats().Syncs })
		r.CounterFunc("spanjoin_wal_fsync_errors_total", "WAL fsyncs that failed (the first wedges the log).", func() uint64 { return d.log.Stats().SyncErrors })
		r.CounterFunc("spanjoin_snapshots_total", "Snapshot cycles completed since open.", func() uint64 { return d.snapshots.Load() })
		r.CounterFunc("spanjoin_snapshot_errors_total", "Snapshot cycles that failed since open.", func() uint64 { return d.snapErrors.Load() })
		r.Gauge("spanjoin_wal_size_bytes", "Active log file size.", func() float64 { return float64(d.log.Size()) })
	}
}

// planTraced is plan recorded as the prefilter stage: the snapshot
// capture and skip-index candidate selection.
//
//spanjoin:stage prefilter
func (s *Store) planTraced(ctx context.Context, req prefilter.Requirement) []evalShard {
	t0 := time.Now()
	shards := s.plan(req)
	s.met.stages.Observe(ctx, obs.StagePrefilter, time.Since(t0))
	return shards
}
