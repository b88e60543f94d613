package corpus

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spanjoin/internal/enum"
	"spanjoin/internal/obs"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/resilience"
	"spanjoin/internal/span"
)

// Result is one streamed match: the document it was extracted from and the
// span tuple, aligned with the Results' variable list.
type Result struct {
	Doc   DocID
	Tuple span.Tuple
}

// EvalOptions tune a corpus evaluation.
type EvalOptions struct {
	// Workers is the evaluation pool size; ≤ 0 selects GOMAXPROCS.
	Workers int
	// Buffer is the capacity of the result channel (the producer/consumer
	// decoupling window); ≤ 0 selects 256.
	Buffer int
	// Required is the query's literal requirement: documents that fail it
	// are skipped before any per-document work. When the store's skip
	// index is enabled, the requirement is additionally intersected
	// against the n-gram postings so non-candidates are never visited at
	// all — not even for a substring scan.
	Required prefilter.Requirement

	// Deadline, when non-zero, bounds the whole evaluation: the worker
	// pool runs under a context derived with this deadline, covering the
	// admission-queue wait, every graph build and count (aborted
	// mid-sweep via the enumerator's amortized interrupt), and every
	// emit. An exceeded deadline surfaces as context.DeadlineExceeded on
	// Results.Err, with the results produced so far already delivered.
	Deadline time.Time
	// Limit, when > 0, caps the number of results the stream delivers:
	// exactly Limit tuples are reserved across the worker pool, workers
	// stop as soon as the reservation is exhausted, and the stream ends
	// with a nil Err — a satisfied limit is normal exhaustion, not a
	// failure. EvalDocs applies it to each document instead.
	Limit uint64
	// Budget, when > 0, caps the evaluation's work, measured in abstract
	// units: one per document byte scanned (charged when the document is
	// admitted to a worker, before its graph build) plus one per emitted
	// result. When the budget runs out the query stops with
	// resilience.ErrBudgetExceeded on Results.Err; results already
	// streamed are valid partial output. Checks are amortized — per
	// document at the worker loop and every few thousand positions inside
	// a build — so an unhit budget costs the hot path nothing.
	Budget uint64
}

func (o EvalOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o EvalOptions) buffer() int {
	if o.Buffer <= 0 {
		return 256
	}
	return o.Buffer
}

// evalCtx derives the pool context: the caller's context, tightened by the
// per-query deadline when one is set.
func (o EvalOptions) evalCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if !o.Deadline.IsZero() {
		return context.WithDeadline(ctx, o.Deadline)
	}
	return context.WithCancel(ctx)
}

// DocEval evaluates one document, calling emit for every result tuple.
// emit reports false when the evaluation is cancelled; the evaluator must
// stop promptly (returning nil — cancellation is not an error).
type DocEval func(doc string, emit func(span.Tuple) bool) error

// NewDocEval constructs one worker's evaluator. stop is the query's
// liveness probe — true once the query's context is done or its work
// budget is spent; constructors that build documents incrementally (the
// shared-enumerator path) install it as the enumerator's amortized build
// interrupt, and others may ignore it (their emit path already observes
// cancellation per tuple).
type NewDocEval func(stop func() bool) DocEval

// Results streams (doc, tuple) results of a corpus evaluation. Consume
// with Next until ok is false, then check Err; Close aborts early and
// releases the worker pool. Results is safe for use by one consumer
// goroutine; Close may additionally be called from any number of
// goroutines, at any time, concurrently with Next.
type Results struct {
	vars span.VarList
	ch   chan Result
	// x is the executor sweep feeding the channel; it carries the
	// prefilter counters and the pool's cancel.
	x *sweep

	// limit/budget copy the options; reserved is the limit reservation
	// counter (reservations, not deliveries — see emit), work the budget
	// meter, delivered the tuples actually handed to the channel.
	limit     uint64
	budget    uint64
	reserved  atomic.Uint64
	work      atomic.Uint64
	delivered atomic.Uint64

	mu     sync.Mutex
	err    error
	closed bool
}

// Vars lists the output variables tuples are aligned with.
func (r *Results) Vars() span.VarList { return r.vars }

// Scanned reports how many documents the evaluator has run on so far.
func (r *Results) Scanned() uint64 { return r.x.scanned.Load() }

// Skipped reports how many documents the prefilter has excluded so far
// (index non-candidates plus documents failing the literal scan).
func (r *Results) Skipped() uint64 { return r.x.skipped.Load() }

// SkippedIndex reports the subset of Skipped the skip index excluded
// outright — documents never visited, not even for a substring scan.
func (r *Results) SkippedIndex() uint64 { return r.x.skippedIndex.Load() }

// Work reports the work units spent so far: one per byte of every scanned
// document plus one per delivered result. It is the meter EvalOptions'
// Budget is charged against.
func (r *Results) Work() uint64 { return r.work.Load() }

// Delivered reports how many results the stream has handed to its channel
// so far; bounded by EvalOptions' Limit when one is set.
func (r *Results) Delivered() uint64 { return r.delivered.Load() }

// overBudget reports whether the work meter has exhausted the budget.
func (r *Results) overBudget() bool {
	return r.budget > 0 && r.work.Load() >= r.budget
}

// limitExhausted reports whether every result slot under the limit has
// been reserved — workers stop starting new documents once it is.
func (r *Results) limitExhausted() bool {
	return r.limit > 0 && r.reserved.Load() >= r.limit
}

// Next returns the next result; ok is false once the stream is exhausted
// (all shards drained, an error occurred, or the context was cancelled) —
// distinguish the cases with Err.
func (r *Results) Next() (Result, bool) {
	res, ok := <-r.ch
	return res, ok
}

// Err reports the first evaluation error, or the context's error when the
// evaluation was cut short by cancellation. It is meaningful after Next
// has returned ok=false. A stream abandoned via Close reports nil, and so
// does one that ended by reaching its result limit; a panic in any pool
// goroutine surfaces as *resilience.PanicError, an exhausted budget as
// resilience.ErrBudgetExceeded, and an exceeded deadline as
// context.DeadlineExceeded.
func (r *Results) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed && errors.Is(r.err, context.Canceled) && !errors.Is(r.err, context.DeadlineExceeded) {
		// The consumer abandoned the stream: its Close races the closer
		// goroutine recording the pool's (or the caller context's)
		// cancellation, so whether err holds context.Canceled here is a
		// scheduling accident. Close means the cancellation was asked for —
		// report the stable answer, not the race's. Real failures (panic,
		// budget, deadline) set before Close still surface.
		return nil
	}
	return r.err
}

// Close aborts the evaluation and blocks until the worker pool has shut
// down. It is idempotent and safe to call from any number of goroutines
// concurrently — with each other, with Next, and after exhaustion.
func (r *Results) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.x.cancel()
	// Drain until the closer goroutine closes the channel. Concurrent
	// Closes (and a concurrent Next) all just race for leftover buffered
	// results; every path unblocks once the pool is gone.
	for range r.ch {
	}
}

func (r *Results) setErr(err error) {
	r.mu.Lock()
	if r.err == nil && !r.closed {
		r.err = err
	}
	r.mu.Unlock()
}

// EvalPlan evaluates a compiled plan over every document in the store
// (snapshotted once the query is admitted), fanning the shards out to the
// shard executor's workers. Each worker owns its own enumerator over the
// shared plan and cycles its documents through it with Reset, so the
// per-document cost is a single graph rebuild into preallocated arenas.
// The corpus layer caches
// one plan per compiled query, so repeated evaluations reuse the trimmed
// automaton, letter table and byte-class transition matrices with no
// per-call compilation at all. Results stream through a bounded
// channel in no guaranteed global order; per document they arrive in the
// engine's deterministic radix order. It returns
// resilience.ErrOverloaded (without starting anything) when the store's
// admission gate sheds the query.
func (s *Store) EvalPlan(ctx context.Context, p *enum.Plan, opt EvalOptions) (res *Results, err error) {
	defer resilience.RecoverTo(&err)
	return s.run(ctx, p.Vars(), func(stop func() bool) DocEval {
		e := p.NewEnumerator()
		e.SetInterrupt(stop)
		return func(doc string, emit func(span.Tuple) bool) error {
			e.Reset(doc)
			for {
				t, ok := e.Next()
				if !ok {
					return nil
				}
				if !emit(t) {
					return nil
				}
			}
		}
	}, opt)
}

// EvalFunc is EvalPlan for evaluators that cannot share a compiled
// enumerator (per-document query plans, string-equality selections):
// newEval is called once per worker and the returned DocEval is applied
// to each of the worker's documents. Like EvalPlan, it honors
// opt.Required — candidate selection and the literal prefilter run before
// the evaluator sees a document.
func (s *Store) EvalFunc(ctx context.Context, vars span.VarList, newEval NewDocEval, opt EvalOptions) (res *Results, err error) {
	defer resilience.RecoverTo(&err)
	return s.run(ctx, vars, newEval, opt)
}

// run is the streaming visitor on the shard executor: every emitted tuple
// is tagged with its stable DocID and sent on the result channel, and the
// send selects on the pool context so cancellation aborts
// mid-enumeration. The visitor meters the limit and the budget: a spent
// budget fails the query with resilience.ErrBudgetExceeded, a reserved
// limit halts it quietly. A closer goroutine waits for the pool, records
// the enumerate stage under ctx with the delivered-result count, gives
// the admission slot back and closes the channel.
//
//spanjoin:stage enumerate
func (s *Store) run(ctx context.Context, vars span.VarList, newEval NewDocEval, opt EvalOptions) (*Results, error) {
	res := &Results{
		vars:   vars,
		ch:     make(chan Result, opt.buffer()),
		limit:  opt.Limit,
		budget: opt.Budget,
	}
	x, err := s.startSweep(ctx, sweepSpec{
		opt:       opt,
		failpoint: resilience.FailWorkerDoc,
		halt: func() error {
			if res.limitExhausted() {
				// Every result slot is reserved: the query is done;
				// reserved sends complete, nothing new starts.
				return errHalt
			}
			if res.overBudget() {
				return resilience.ErrBudgetExceeded
			}
			return nil
		},
		newVisitor: func(x *sweep) visitor {
			eval := newEval(x.stop)
			done := x.ctx.Done()
			return func(_ int, id DocID, doc string) error {
				// Charge the document's scan cost up front, so a build
				// that would blow the budget trips the stop probe
				// mid-sweep instead of completing.
				res.work.Add(uint64(len(doc)))
				return eval(doc, func(t span.Tuple) bool {
					if res.limit > 0 && res.reserved.Add(1) > res.limit {
						// Over-reserved: this tuple is beyond the limit.
						// Stop this producer; the halt stops the rest.
						// No error — a met limit is exhaustion.
						return false
					}
					select {
					case res.ch <- Result{Doc: id, Tuple: t}:
						res.delivered.Add(1)
						res.work.Add(1)
						return true
					case <-done:
						return false
					}
				})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	res.x = x
	go func() {
		// The closer owns shutdown: it must close the channel and release
		// the gate on every path, including a panic in wait's bookkeeping.
		defer func() {
			if p := recover(); p != nil {
				res.setErr(resilience.NewPanicError(resilience.NoDoc, p))
			}
			// The pool is gone: record its lifetime (the enumerate stage)
			// and final counters before the channel closes — the consumer
			// reads the trace only after Next returns false, so the close
			// below publishes these writes to it.
			s.met.stages.ObserveItems(ctx, obs.StageEnumerate, time.Since(x.start), int64(res.delivered.Load()))
			s.met.docsScanned.Add(x.scanned.Load())
			s.met.docsSkipped.Add(x.skipped.Load())
			s.met.results.Add(res.delivered.Load())
			// Admission bounds live pools, not just query starts: the
			// slot goes back only now.
			x.finish()
			close(res.ch)
		}()
		err := x.wait()
		if err == nil && res.overBudget() {
			// A budget that ran out mid-document trips the build interrupt
			// without reaching another worker's pre-document check (the
			// single-large-document case); the meter itself is the record
			// that output may be truncated.
			err = resilience.ErrBudgetExceeded
		}
		if err != nil {
			res.setErr(err)
		}
	}()
	return res, nil
}

// EvalDocs evaluates a compiled plan over docs on the shard executor and
// returns every document's tuples, indexed like docs, each in the
// engine's radix order. The executor runs synchronously over a throwaway
// store with one shard per document, so a document's DocID is its index:
// a panic fails the call with *resilience.PanicError naming that index.
// Documents failing opt.Required get no tuples without being visited, and
// opt.Limit caps each document's tuples (not the batch's). The pool
// context interrupts every graph build, and a cancelled ctx or an expired
// deadline returns its error, not a partial result.
func EvalDocs(ctx context.Context, p *enum.Plan, docs []string, opt EvalOptions) (out [][]span.Tuple, err error) {
	defer resilience.RecoverTo(&err)
	s := &Store{shards: make([]shard, len(docs))}
	for i := range docs {
		s.shards[i].docs = docs[i : i+1 : i+1]
	}
	out = make([][]span.Tuple, len(docs))
	x, err := s.startSweep(ctx, sweepSpec{
		opt:       opt,
		failpoint: resilience.FailWorkerDoc,
		newVisitor: func(x *sweep) visitor {
			e := p.NewEnumerator()
			e.SetInterrupt(x.stop)
			return func(_ int, id DocID, doc string) error {
				e.Reset(doc)
				var ts []span.Tuple
				for i := 1; opt.Limit == 0 || uint64(len(ts)) < opt.Limit; i++ {
					// A huge enumeration stays abortable: the pool context
					// is checked every 64 tuples.
					if i&63 == 0 && x.ctx.Err() != nil {
						return nil
					}
					t, ok := e.Next()
					if !ok {
						break
					}
					ts = append(ts, t)
				}
				// One shard per document, each dealt to one worker: no
				// two visitors write the same slot.
				out[id] = ts
				return nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer x.finish()
	if err := x.wait(); err != nil {
		return nil, err
	}
	return out, nil
}
