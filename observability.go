package spanjoin

import (
	"context"

	"spanjoin/internal/obs"
)

// Observability: every Corpus carries a metrics registry — counters,
// gauges and one latency histogram series per pipeline stage,
// spanjoin_stage_seconds{stage} — and any individual query can be traced
// per stage by attaching a QueryTrace to its context. One call records
// each stage (the admission wait, the cache lookup, the plan build, the
// prefilter, the enumeration or count, the WAL append and fsync, the
// snapshot cycle) into both its histogram series and the context's
// trace, so a traced query's stages are exactly what the histograms
// gained from it.
//
//	ctx, tr := spanjoin.WithTrace(ctx)
//	ms, _ := c.Eval(ctx, spanjoin.Anchored(pattern))
//	... drain ...
//	for _, s := range tr.Spans() {
//	    fmt.Println(s.Stage, s.Dur)
//	}
//
// Tracing is opt-in per query. Stages are recorded per stage, never per
// tuple: an untraced query pays one histogram observation and one
// context lookup per stage.

// MetricsRegistry holds a corpus's metrics. Scrape it with
// WritePrometheus (text exposition format, what spand serves on
// /metrics) or Snapshot (structured points with exact p50/p90/p99 for
// histograms, what /stats embeds).
type MetricsRegistry = obs.Registry

// MetricPoint is one metric series in a MetricsRegistry.Snapshot.
type MetricPoint = obs.MetricPoint

// QueryTrace records per-stage wall time of the queries evaluated under
// a context carrying it. Safe for concurrent use; read it after the
// evaluation drains.
type QueryTrace = obs.Trace

// StageSpan is one stage of a QueryTrace: offset from the trace start,
// duration, and stage-specific item counts (documents scanned, results
// delivered, cache misses).
type StageSpan = obs.StageSpan

// The stages a traced corpus query can record.
const (
	// StageAdmission is the wait for an admission-gate slot.
	StageAdmission = obs.StageAdmission
	// StageCache is the compiled-query cache lookup; Items=1 on a miss.
	StageCache = obs.StageCache
	// StagePlanBuild is plan compilation, recorded only when this query
	// actually ran it (a cache miss on an unmemoized Spanner or Query).
	// It covers the plan's eager part only, the trim and the functionality
	// check; the letter table, transition table and build caches are
	// built on first use, inside the count or enumerate stage (or the
	// page window) of the query whose document first needs them.
	StagePlanBuild = obs.StagePlan
	// StagePrefilter is snapshot capture plus skip-index candidate
	// selection.
	StagePrefilter = obs.StagePrefilter
	// StageEnumerate is the worker pool's lifetime for a streaming
	// evaluation; Items counts delivered results.
	StageEnumerate = obs.StageEnumerate
	// StageCount is the worker pool's lifetime for a counting sweep;
	// Items counts scanned documents.
	StageCount = obs.StageCount
	// StageWALAppend is the write-ahead-log record writes of one durable
	// add batch (one document or many), excluding the policy fsync.
	StageWALAppend = obs.StageWALAppend
	// StageWALSync is one WAL fsync: the one a SyncAlways batch paid,
	// traced with the add, or an interval, rotation, Sync or Close fsync,
	// which reaches the histogram only.
	StageWALSync = obs.StageWALSync
	// StageSnapshot is a full snapshot cycle: Snapshot(ctx) records it
	// under ctx (spand's POST /snapshot under the request's trace), a
	// background cycle in the histogram only.
	StageSnapshot = obs.StageSnapshot
)

// WithTrace attaches a fresh QueryTrace to the context: corpus
// evaluations, counts, durable writes and snapshots under the returned
// context record their stages into it.
func WithTrace(ctx context.Context) (context.Context, *QueryTrace) {
	return obs.WithTrace(ctx)
}

// TraceFromContext returns the context's QueryTrace, or nil.
func TraceFromContext(ctx context.Context) *QueryTrace {
	return obs.FromContext(ctx)
}

// Metrics returns the corpus's metrics registry. It is always non-nil
// and registration is cheap, so callers may add their own instruments
// (spand adds per-endpoint request histograms).
func (c *Corpus) Metrics() *MetricsRegistry { return c.reg }
