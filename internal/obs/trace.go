package obs

import (
	"context"
	"slices"
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
	// StagePlan is the eager part of the enum.Plan build — automaton
	// trim and functionality check, both linear. Recorded only when the
	// plan was actually built (memoized plans cost nothing). The plan's
	// kernels (letter table, transition matrices, build caches) are
	// built on first use, inside the stage whose document first needs
	// them: count or enumerate, or a page's window build, which is no
	// stage.
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
	// StageWALAppend is the write-ahead-log record writes of one added
	// batch of documents, excluding the fsync.
	StageWALAppend Stage = "wal_append"
	// StageWALSync is one fsync of the log: the one an append's
	// SyncAlways policy forces, recorded under the append's context, or
	// an interval, rotation, Sync or Close fsync, which no query context
	// carries and so reaches the histogram only.
	StageWALSync Stage = "wal_fsync"
	// StageSnapshot is one full snapshot cycle (rotate, write, prune); a
	// background cycle has no query context and reaches the histogram
	// only.
	StageSnapshot Stage = "snapshot"
)

// AllStages is the taxonomy in pipeline order: the stage recorder keeps
// one histogram series per entry, and spanlint's obsspan analyzer accepts
// exactly these names.
var AllStages = []Stage{
	StageAdmission, StageCache, StagePlan, StagePrefilter, StageEnumerate,
	StageCount, StageWALAppend, StageWALSync, StageSnapshot,
}

// StageRecorder is the one way a stage is recorded. Each observation
// goes to the stage's series of the spanjoin_stage_seconds histogram
// family and, when the context carries one, to the query's trace, so the
// two cannot disagree: a traced stage's Calls and Dur are exactly what
// its series gained from that query. An observation under a context
// without a trace reaches the histogram only. Obtain the recorder from
// Registry.Stages; the nil recorder discards observations.
type StageRecorder struct {
	hist []*Histogram // AllStages[i]'s series is hist[i]
}

func newStageRecorder(r *Registry) *StageRecorder {
	sr := &StageRecorder{hist: make([]*Histogram, len(AllStages))}
	for i, s := range AllStages {
		sr.hist[i] = r.Histogram("spanjoin_stage_seconds",
			"Wall time per pipeline stage; the trace of a traced query records the same observations.",
			nil, Label{Key: "stage", Value: string(s)})
	}
	return sr
}

// Observe records d against the stage.
func (r *StageRecorder) Observe(ctx context.Context, s Stage, d time.Duration) {
	r.ObserveItems(ctx, s, d, 0)
}

// ObserveItems records d against the stage, and n work units against it
// in the context's trace. A name outside the taxonomy is recorded
// nowhere.
func (r *StageRecorder) ObserveItems(ctx context.Context, s Stage, d time.Duration, n int64) {
	i := slices.Index(AllStages, s)
	if r == nil || i < 0 {
		return
	}
	d = max(d, 0) // the histogram clamps too: both sides see one value
	r.hist[i].Observe(d)
	FromContext(ctx).observe(s, d, n)
}

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
// records into it, through the stage recorder, without plumbing. All
// methods are safe for concurrent use and safe on the nil trace — a
// query evaluated without tracing pays one context lookup per stage.
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

// observe merges d and n work units into the stage's span. The stage
// recorder is its only caller.
func (t *Trace) observe(s Stage, d time.Duration, n int64) {
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
