package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Stage names one pipeline phase of a query's life. The constants below
// are the taxonomy every layer records against; spanlint's obsspan
// analyzer checks that functions annotated //spanjoin:stage <name>
// actually record that stage.
type Stage string

const (
	// StageAdmission is the wait in the gate's queue before the worker
	// pool may start.
	StageAdmission Stage = "admission_wait"
	// StageCache is the compiled-query cache lookup, including the
	// compilation when the lookup misses (the span's Items is 0 on a hit,
	// 1 on a miss).
	StageCache Stage = "cache"
	// StagePlan is the enum.Plan build — automaton trim, closures,
	// letter table, transition matrices. Recorded only when the plan was
	// actually built (memoized plans cost nothing).
	StagePlan Stage = "plan_build"
	// StagePrefilter is candidate selection: the snapshot capture plus
	// the skip-index posting intersection.
	StagePrefilter Stage = "prefilter"
	// StageEnumerate is the worker pool's lifetime — graph builds and
	// result streaming; Items is the number of delivered results.
	StageEnumerate Stage = "enumerate"
	// StageCount is the counting sweep (the count-kernel fan-out behind
	// /count and cursor pagination).
	StageCount Stage = "count"
	// StageWALAppend is the write-ahead-log append of one added
	// document, excluding the fsync.
	StageWALAppend Stage = "wal_append"
	// StageWALSync is the fsync forced by the append's policy.
	StageWALSync Stage = "wal_fsync"
	// StageSnapshot is one full snapshot cycle (rotate, write, prune).
	StageSnapshot Stage = "snapshot"
)

// StageSpan is one stage's accumulated time within a trace. Repeated
// observations of the same stage merge: Start keeps the first
// occurrence's offset from the trace start, Dur and Items accumulate,
// and Calls counts the observations.
type StageSpan struct {
	Stage Stage `json:"stage"`
	// Start is the stage's first occurrence, as an offset from the
	// trace's start, in nanoseconds.
	Start time.Duration `json:"start_ns"`
	// Dur is the stage's total wall time in nanoseconds.
	Dur time.Duration `json:"dur_ns"`
	// Items counts stage-specific work units (delivered results for
	// enumerate, cache misses for cache).
	Items int64 `json:"items,omitempty"`
	// Calls counts how many observations merged into this span.
	Calls int64 `json:"calls,omitempty"`
}

// Trace accumulates one query's per-stage timings. It is carried on the
// context (WithTrace/FromContext) so every layer below the entry point
// can record into it without plumbing. All methods are safe for
// concurrent use and safe on the nil trace — a query evaluated without
// tracing pays one context lookup, then every record is a nil-check.
type Trace struct {
	start time.Time

	mu    sync.Mutex
	spans []StageSpan
}

// NewTrace starts an empty trace; its clock starts now.
func NewTrace() *Trace { return &Trace{start: time.Now()} }

// Total is the wall time since the trace started.
func (t *Trace) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Observe records d against the stage.
func (t *Trace) Observe(s Stage, d time.Duration) { t.ObserveItems(s, d, 0) }

// ObserveItems records d and n work units against the stage.
func (t *Trace) ObserveItems(s Stage, d time.Duration, n int64) {
	if t == nil {
		return
	}
	offset := time.Since(t.start) - d
	if offset < 0 {
		offset = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].Stage == s {
			t.spans[i].Dur += d
			t.spans[i].Items += n
			t.spans[i].Calls++
			return
		}
	}
	t.spans = append(t.spans, StageSpan{Stage: s, Start: offset, Dur: d, Items: n, Calls: 1})
}

// Span is an open stage measurement; obtain with Start, finish with End
// or EndItems. The zero Span (from a nil trace) is a no-op.
type Span struct {
	t     *Trace
	stage Stage
	t0    time.Time
}

// Start opens a span for the stage. On the nil trace the returned span
// does nothing.
func (t *Trace) Start(s Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: s, t0: time.Now()}
}

// End closes the span, recording its elapsed time.
func (sp Span) End() { sp.EndItems(0) }

// EndItems closes the span, recording its elapsed time and n work units.
func (sp Span) EndItems(n int64) {
	if sp.t == nil {
		return
	}
	sp.t.ObserveItems(sp.stage, time.Since(sp.t0), n)
}

// Spans snapshots the recorded stages, ordered by first occurrence.
func (t *Trace) Spans() []StageSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]StageSpan(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

type traceKey struct{}

// WithTrace derives a context carrying a fresh trace, returning both.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	t := NewTrace()
	return context.WithValue(ctx, traceKey{}, t), t
}

// FromContext returns the context's trace, or nil when the query is not
// being traced — the nil trace's methods all no-op, so callers record
// unconditionally.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
