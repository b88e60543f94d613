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
	gateWait  *obs.Histogram // admission wait, every decision
	evalDur   *obs.Histogram // worker-pool lifetime, streaming evals
	countDur  *obs.Histogram // worker-pool lifetime, counting sweeps
	prefilter *obs.Histogram // snapshot capture + candidate selection
	snapshot  *obs.Histogram // full snapshot cycles (durable stores)

	docsScanned *obs.Counter
	docsSkipped *obs.Counter
	docsReused  *obs.Counter
	results     *obs.Counter
}

// SetRegistry registers the store's metrics — gate wait and queue depth,
// evaluation and count durations, prefilter timings, document and result
// counters, and (on a durable store) WAL append/fsync/snapshot timings
// and cumulative log counters. Call once before the store serves
// queries, like SetGate; installation is not synchronized with running
// evaluations.
func (s *Store) SetRegistry(r *obs.Registry) {
	s.met = storeMetrics{
		gateWait:    r.Histogram("spanjoin_gate_wait_seconds", "Admission-gate wait per query (zero when admitted immediately).", nil),
		evalDur:     r.Histogram("spanjoin_eval_seconds", "Worker-pool lifetime of one corpus operation.", nil, obs.Label{Key: "op", Value: "eval"}),
		countDur:    r.Histogram("spanjoin_eval_seconds", "Worker-pool lifetime of one corpus operation.", nil, obs.Label{Key: "op", Value: "count"}),
		prefilter:   r.Histogram("spanjoin_prefilter_seconds", "Snapshot capture plus skip-index candidate selection.", nil),
		docsScanned: r.Counter("spanjoin_docs_scanned_total", "Documents actually evaluated or counted (streaming evaluations and counting sweeps)."),
		docsSkipped: r.Counter("spanjoin_docs_skipped_total", "Documents excluded by the prefilter (streaming evaluations and counting sweeps)."),
		docsReused:  r.Counter("spanjoin_docs_reused_total", "Documents whose counts a counting sweep took from its query's count memo."),
		results:     r.Counter("spanjoin_results_total", "Result tuples delivered by streaming evaluations."),
	}
	r.Gauge("spanjoin_docs", "Documents in the store.", func() float64 { return float64(s.Len()) })
	if g := s.gate; g != nil {
		g.SetWaitObserver(func(wait time.Duration, admitted bool) {
			if admitted {
				s.met.gateWait.Observe(wait)
			}
		})
		r.Gauge("spanjoin_gate_active", "Admission units currently held.", func() float64 { return float64(g.Stats().Active) })
		r.Gauge("spanjoin_gate_queued", "Callers waiting in the admission queue.", func() float64 { return float64(g.Stats().Queued) })
		r.CounterFunc("spanjoin_gate_rejected_total", "Queries shed by the admission gate.", func() uint64 { return g.Stats().Rejected })
	}
	if d := s.dur; d != nil {
		s.met.snapshot = r.Histogram("spanjoin_snapshot_seconds", "Full snapshot cycles: rotate, write, prune.", nil)
		d.log.SetObs(
			r.Histogram("spanjoin_wal_append_seconds", "WAL record write, excluding the policy fsync.", nil),
			r.Histogram("spanjoin_wal_fsync_seconds", "WAL fsync (policy syncs, explicit Syncs, close).", nil),
		)
		r.CounterFunc("spanjoin_wal_appends_total", "WAL records appended since open.", func() uint64 { return d.log.Stats().Appends })
		r.CounterFunc("spanjoin_wal_append_bytes_total", "WAL bytes appended since open.", func() uint64 { return d.log.Stats().AppendBytes })
		r.CounterFunc("spanjoin_wal_fsyncs_total", "WAL fsyncs issued since open.", func() uint64 { return d.log.Stats().Syncs })
		r.CounterFunc("spanjoin_wal_fsync_errors_total", "WAL fsyncs that failed (the first wedges the log).", func() uint64 { return d.log.Stats().SyncErrors })
		r.CounterFunc("spanjoin_snapshots_total", "Snapshot cycles completed since open.", func() uint64 { return d.snapshots.Load() })
		r.CounterFunc("spanjoin_snapshot_errors_total", "Snapshot cycles that failed since open.", func() uint64 { return d.snapErrors.Load() })
		r.Gauge("spanjoin_wal_size_bytes", "Active log file size.", func() float64 { return float64(d.log.Size()) })
	}
}

// planTraced is plan plus observability: the snapshot capture and
// skip-index candidate selection are timed into the prefilter histogram
// and, when the query is traced, its prefilter stage.
//
//spanjoin:stage prefilter
func (s *Store) planTraced(ctx context.Context, req prefilter.Requirement) []evalShard {
	t0 := time.Now()
	shards := s.plan(req)
	d := time.Since(t0)
	s.met.prefilter.Observe(d)
	obs.FromContext(ctx).Observe(obs.StagePrefilter, d)
	return shards
}
