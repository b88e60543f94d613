package spanjoin

import (
	"context"
	"errors"
	"time"

	"spanjoin/internal/core"
	"spanjoin/internal/resilience"
)

// Resilience surface of the engine: typed failure modes, per-query
// limits, and corpus admission control. See the README's "Operational
// limits and failure modes" section for how they compose.

// ErrOverloaded is returned synchronously by corpus evaluations and
// counts when the admission gate (WithMaxConcurrent) is at capacity and
// its wait queue (WithMaxQueue) is full: the query is shed before any
// worker is spawned or any document touched. Detect with errors.Is.
var ErrOverloaded = resilience.ErrOverloaded

// ErrBudgetExceeded surfaces on a stream's Err (or from a count) when the
// evaluation ran out of its work budget (WithBudget). Results delivered
// before the budget ran out are valid partial output. Detect with
// errors.Is.
var ErrBudgetExceeded = resilience.ErrBudgetExceeded

// ErrCorrupt is returned by Open when the data directory's durable state
// cannot be recovered: a log checksum failure with intact records after
// it, a sequence gap, or a corrupt snapshot. It is deliberately distinct
// from a torn log tail — ordinary crash residue, which recovery repairs
// silently — and means the bytes on disk were damaged after they were
// written (bit rot, truncation by another program, a lying device).
// Detect with errors.Is; the wrapped message names the file and offset.
var ErrCorrupt = resilience.ErrCorrupt

// PanicError is a panic recovered inside the engine — in a corpus worker
// (a Spanner.EvalAll batch's included), the shard dealer, a cache fill,
// or an evaluator constructor — converted into an error on the failing
// query's stream. One poisoned document fails its own query; concurrent
// queries and the process are unaffected. Detect with errors.As; Doc
// names the offending document (its DocID, or for EvalAll its index in
// docs) when the panic struck inside a per-document evaluation
// (resilience.NoDoc otherwise), and Stack carries the recovered
// goroutine's stack trace.
type PanicError = resilience.PanicError

// NoDoc marks a PanicError not attributable to a single document (a panic
// in the dealer or closer rather than in a shard worker).
const NoDoc = resilience.NoDoc

// GateStats is a snapshot of the admission gate's counters.
type GateStats = resilience.GateStats

// GateStats reports the corpus admission gate's counters: running
// evaluations, queued ones, and the cumulative number shed with
// ErrOverloaded. All zero when admission control is off.
func (c *Corpus) GateStats() GateStats { return c.store.GateStats() }

// WithMaxConcurrent bounds how many corpus evaluations and counts run at
// once (their worker pools, arenas and result buffers — the slot is held
// until the pool shuts down, not merely until the call returns). Excess
// queries wait in a bounded FIFO queue (WithMaxQueue, default 0) and past
// that are shed fast with ErrOverloaded. n ≤ 0 leaves admission
// unbounded.
func WithMaxConcurrent(n int) CorpusOption {
	return func(c *corpusConfig) { c.maxConcurrent = n }
}

// WithMaxQueue sets how many queries may wait for an admission slot
// (default 0: at capacity, shed immediately). Queued queries honor their
// deadline/cancellation while waiting and are admitted FIFO. Only
// meaningful together with WithMaxConcurrent.
func WithMaxQueue(n int) CorpusOption {
	return func(c *corpusConfig) { c.maxQueue = n }
}

// WithTimeout bounds an evaluation's wall-clock time, measured from the
// call: admission wait, every graph build and per-document count
// (aborted mid-sweep), and every result delivery all count. On expiry a
// corpus stream stops with context.DeadlineExceeded on Err — results
// already streamed are valid partial output — and a per-document method
// (Spanner.Eval, Count, Sample and EvalAll, Query.Evaluate, Count and
// Exists, UnionQuery.Evaluate) returns context.DeadlineExceeded instead
// of a result. d ≤ 0 means no timeout.
func WithTimeout(d time.Duration) Option {
	return func(o *core.Options) {
		if d > 0 {
			o.Timeout = d
		}
	}
}

// WithLimit caps how many results an evaluation delivers: a corpus
// stream ends after n results with a nil Err — a met limit is normal
// exhaustion, not a failure — and the worker pool stops promptly instead
// of computing results nobody will read. Spanner.Eval, Query.Evaluate
// and UnionQuery.Evaluate return at most n matches, Spanner.EvalAll at
// most n per document, and Query.Count counts at most n. n ≤ 0 means
// unlimited.
func WithLimit(n int) Option {
	return func(o *core.Options) {
		if n > 0 {
			o.Limit = uint64(n)
		}
	}
}

// Failure classes: the engine's error taxonomy as wire-friendly labels.
// Services map them onto transport status codes (spand uses 429/504/413/
// 500) and clients map them back onto the typed sentinels, so errors.Is
// keeps working across a network hop.
const (
	FailureOverloaded = "overloaded" // ErrOverloaded: shed at admission
	FailureDeadline   = "deadline"   // context.DeadlineExceeded: WithTimeout expired
	FailureBudget     = "budget"     // ErrBudgetExceeded: work budget spent
	FailurePanic      = "panic"      // *PanicError: recovered engine panic
	FailureCanceled   = "canceled"   // context.Canceled: caller went away
	FailureCorrupt    = "corrupt"    // ErrCorrupt: durable state unrecoverable
)

// FailureClass names an error's place in the engine's failure taxonomy,
// or "" for errors outside it (compile errors, I/O). The class survives
// wrapping: any error that errors.Is/As-matches a taxonomy member gets
// that member's label, deadline taking precedence over bare cancellation.
func FailureClass(err error) string {
	var pe *PanicError
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return FailureOverloaded
	case errors.Is(err, context.DeadlineExceeded):
		return FailureDeadline
	case errors.Is(err, ErrBudgetExceeded):
		return FailureBudget
	case errors.As(err, &pe):
		return FailurePanic
	case errors.Is(err, context.Canceled):
		return FailureCanceled
	case errors.Is(err, ErrCorrupt):
		return FailureCorrupt
	}
	return ""
}

// WithBudget caps a corpus operation's work in abstract units: one unit
// per document byte scanned plus one per result delivered. A query that
// runs out stops with ErrBudgetExceeded on the stream's Err, keeping
// results already streamed. Budgets make cost explicit where timeouts are
// machine-dependent: the same budget sheds the same query on fast and
// slow hardware alike. Only corpus operations meter a budget; per-document
// methods ignore it. n ≤ 0 means unbounded.
func WithBudget(n int) Option {
	return func(o *core.Options) {
		if n > 0 {
			o.Budget = uint64(n)
		}
	}
}
