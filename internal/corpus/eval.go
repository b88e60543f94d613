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
	"spanjoin/internal/vsa"
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
	// admission-queue wait, every graph build (aborted mid-sweep via the
	// enumerator's amortized interrupt), and every emit. An exceeded
	// deadline surfaces as context.DeadlineExceeded on Results.Err, with
	// the results produced so far already delivered.
	Deadline time.Time
	// Limit, when > 0, caps the number of results the stream delivers:
	// exactly Limit tuples are reserved across the worker pool, workers
	// stop as soon as the reservation is exhausted, and the stream ends
	// with a nil Err — a satisfied limit is normal exhaustion, not a
	// failure.
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
	vars   span.VarList
	ch     chan Result
	cancel context.CancelFunc

	// limit/budget copy the options; reserved is the limit reservation
	// counter (reservations, not deliveries — see emit), work the budget
	// meter, delivered the tuples actually handed to the channel.
	limit     uint64
	budget    uint64
	reserved  atomic.Uint64
	work      atomic.Uint64
	delivered atomic.Uint64

	// scanned counts documents the evaluator actually ran on; skipped
	// counts documents excluded by the prefilter (skip-index candidate
	// selection or the literal scan). They sum to the snapshot size once
	// the stream drains without cancellation. skippedIndex is the subset
	// of skipped that the index excluded without even a substring scan.
	scanned      atomic.Uint64
	skipped      atomic.Uint64
	skippedIndex atomic.Uint64

	mu     sync.Mutex
	err    error
	closed bool
}

// Vars lists the output variables tuples are aligned with.
func (r *Results) Vars() span.VarList { return r.vars }

// Scanned reports how many documents the evaluator has run on so far.
func (r *Results) Scanned() uint64 { return r.scanned.Load() }

// Skipped reports how many documents the prefilter has excluded so far
// (index non-candidates plus documents failing the literal scan).
func (r *Results) Skipped() uint64 { return r.skipped.Load() }

// SkippedIndex reports the subset of Skipped the skip index excluded
// outright — documents never visited, not even for a substring scan.
func (r *Results) SkippedIndex() uint64 { return r.skippedIndex.Load() }

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
	r.cancel()
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

// exhausted returns an already-drained Results — the empty-corpus fast
// path, costing neither an enum.Prepare nor a worker goroutine.
func exhausted(vars span.VarList) *Results {
	r := &Results{vars: vars, ch: make(chan Result), cancel: func() {}}
	close(r.ch)
	return r
}

// Eval evaluates the compiled automaton over every document in the store
// (snapshotted at call time), fanning the shards out to a pool of workers.
// Each worker owns a Reset-able clone of one shared compiled enumerator,
// so the per-document cost is a single graph rebuild into preallocated
// arenas — the corpus-wide analogue of Spanner.NewStream. Results stream
// through a bounded channel in no guaranteed global order; per document
// they arrive in the engine's deterministic radix order.
func (s *Store) Eval(ctx context.Context, a *vsa.VSA, opt EvalOptions) (res *Results, err error) {
	defer resilience.RecoverTo(&err)
	shards := s.planTraced(ctx, opt.Required)
	total := 0
	for i := range shards {
		total += len(shards[i].docs)
	}
	if total == 0 {
		// Empty snapshot: nothing to compile, no pool to spin up.
		return exhausted(a.Vars), nil
	}
	p, err := enum.NewPlan(a)
	if err != nil {
		return nil, err
	}
	return s.evalShards(ctx, p, shards, opt)
}

// EvalPlan is Eval for a plan compiled ahead of time. The corpus layer
// caches one plan per compiled query, so repeated evaluations over the
// whole store reuse the trimmed automaton, closures, letter table and
// byte-class transition matrices with no per-call compilation at all. It
// returns resilience.ErrOverloaded (without starting anything) when the
// store's admission gate sheds the query.
func (s *Store) EvalPlan(ctx context.Context, p *enum.Plan, opt EvalOptions) (res *Results, err error) {
	defer resilience.RecoverTo(&err)
	return s.evalShards(ctx, p, s.planTraced(ctx, opt.Required), opt)
}

// evalShards runs the shared-enumerator fast path over a planned snapshot:
// every worker gets its own enumerator over the shared plan (one arena
// allocation) and cycles its documents through it with Reset. The query's
// stop probe doubles as the enumerator's amortized build interrupt, so a
// deadline or budget that dies mid-build on a huge document abandons the
// sweep instead of finishing it.
func (s *Store) evalShards(ctx context.Context, p *enum.Plan, shards []evalShard, opt EvalOptions) (*Results, error) {
	newEval := func(stop func() bool) DocEval {
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
	}
	return s.run(ctx, shards, p.Vars(), newEval, opt)
}

// EvalFunc is Eval for evaluators that cannot share a compiled enumerator
// (per-document query plans, string-equality selections): newEval is
// called once per worker and the returned DocEval is applied to each of
// the worker's documents. Like Eval, it honors opt.Required — candidate
// selection and the literal prefilter run before the evaluator sees a
// document.
func (s *Store) EvalFunc(ctx context.Context, vars span.VarList, newEval NewDocEval, opt EvalOptions) (res *Results, err error) {
	defer resilience.RecoverTo(&err)
	return s.run(ctx, s.planTraced(ctx, opt.Required), vars, newEval, opt)
}

// planStats tallies a planned snapshot: the documents the skip index
// excluded outright (the positions from a constrained shard's start on
// that its candidate list leaves out) and the number of shards with work.
func planStats(shards []evalShard) (idxSkipped uint64, busy int) {
	for i := range shards {
		if shards[i].constrained {
			idxSkipped += uint64(len(shards[i].docs) - shards[i].from - len(shards[i].cand))
		}
		if shards[i].work() > 0 {
			busy++
		}
	}
	return idxSkipped, busy
}

// clampWorkers bounds the pool to the shards with work — the dealer never
// hands out empty ones, so extra workers (and their enumerator clones)
// would be allocated to idle forever.
func clampWorkers(workers, busy int) int {
	if workers > busy {
		workers = busy
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// dealShards starts the dealer: non-empty shards are handed to workers
// over the returned channel (a worker finishing a small shard immediately
// picks up the next); the dealer selects on ctx so cancellation stops the
// deal. A panic in the dealer is recovered into fail — the channel still
// closes, so workers drain and the pool shuts down cleanly.
func dealShards(ctx context.Context, shards []evalShard, fail func(error)) <-chan int {
	shardCh := make(chan int)
	go func() {
		defer close(shardCh)
		defer func() {
			if p := recover(); p != nil {
				fail(resilience.NewPanicError(resilience.NoDoc, p))
			}
		}()
		for si := range shards {
			if shards[si].work() == 0 {
				continue
			}
			resilience.Inject(resilience.FailDealer, si)
			select {
			case shardCh <- si:
			case <-ctx.Done():
				return
			}
		}
	}()
	return shardCh
}

// materializeEvals constructs every worker's evaluator before any
// goroutine starts (EvalFunc constructors may read shared state that a
// running worker would already be mutating), recovering a constructor
// panic into an error so a broken evaluator fails its query, not the
// process.
func materializeEvals(newEval NewDocEval, stop func() bool, workers int) (evals []DocEval, err error) {
	defer func() {
		if p := recover(); p != nil {
			evals, err = nil, resilience.NewPanicError(resilience.NoDoc, p)
		}
	}()
	evals = make([]DocEval, workers)
	for w := range evals {
		evals[w] = newEval(stop)
	}
	return evals, nil
}

// run is the shared fan-out loop: shards are dealt to workers over a
// channel, every emitted tuple is tagged with its stable DocID, and both
// the dealer and the emit path select on the derived context so
// cancellation aborts mid-enumeration. Shards planned with skip-index
// candidates visit only those positions; documents failing the literal
// requirement are counted skipped and never reach the evaluator.
//
// run is also where the resilience layer hooks in: the pool context
// carries the per-query deadline, the store's admission gate is acquired
// before anything spawns (a shed returns resilience.ErrOverloaded with no
// goroutine started), every pool goroutine — worker, dealer, closer —
// recovers panics into *resilience.PanicError on the stream, and the
// worker loop meters the limit and budget.
//
// run is also where the observability layer hooks in: a trace carried on
// ctx (obs.WithTrace) receives the admission wait and, once the pool has
// drained, the enumerate stage with the delivered-result count; the
// store's metrics record the same numbers corpus-wide.
//
//spanjoin:stage admission_wait
//spanjoin:stage enumerate
func (s *Store) run(ctx context.Context, shards []evalShard, vars span.VarList, newEval NewDocEval, opt EvalOptions) (*Results, error) {
	tr := obs.FromContext(ctx)
	cctx, cancel := opt.evalCtx(ctx)
	release := func() {}
	if g := s.gate; g != nil {
		// The admission wait respects the query's own deadline: a queued
		// query whose deadline fires sheds with the context's error.
		t0 := time.Now()
		err := g.Acquire(cctx, 1)
		tr.Observe(obs.StageAdmission, time.Since(t0))
		if err != nil {
			cancel()
			return nil, err
		}
		var once sync.Once
		release = func() { once.Do(func() { g.Release(1) }) }
	}
	res := &Results{
		vars:   vars,
		ch:     make(chan Result, opt.buffer()),
		cancel: cancel,
		limit:  opt.Limit,
		budget: opt.Budget,
	}

	idxSkipped, busy := planStats(shards)
	res.skipped.Add(idxSkipped)
	res.skippedIndex.Add(idxSkipped)
	if busy == 0 {
		// Nothing to visit (empty snapshot, or the index excluded every
		// document): no pool, no dealer — the stream is born exhausted.
		cancel() // release the derived context's registration on ctx
		release()
		close(res.ch)
		return res, nil
	}

	// stop is the query liveness probe workers and builds poll: dead
	// context (cancelled, deadline fired) or spent budget.
	stop := func() bool { return cctx.Err() != nil || res.overBudget() }
	evals, err := materializeEvals(newEval, stop, clampWorkers(opt.workers(), busy))
	if err != nil {
		cancel()
		release()
		return nil, err
	}

	shardCh := dealShards(cctx, shards, func(err error) {
		res.setErr(err)
		cancel()
	})
	done := cctx.Done()
	poolStart := time.Now()
	var wg sync.WaitGroup
	for w := range evals {
		eval := evals[w]
		wg.Add(1)
		go func() {
			// cur tracks the document under evaluation so a recovered
			// panic can name it; NoDoc between documents.
			cur := resilience.NoDoc
			defer func() {
				if p := recover(); p != nil {
					res.setErr(resilience.NewPanicError(cur, p))
					cancel()
				}
				wg.Done()
			}()
			for si := range shardCh {
				es := &shards[si]
				n := es.work()
				for k := 0; k < n; k++ {
					pos := es.pos(k)
					if cctx.Err() != nil {
						return
					}
					if res.limitExhausted() {
						// Every result slot is reserved: the query is done;
						// reserved sends complete, nothing new starts.
						return
					}
					if res.overBudget() {
						res.setErr(resilience.ErrBudgetExceeded)
						cancel()
						return
					}
					doc := es.docs[pos]
					if !opt.Required.IsEmpty() && !opt.Required.Match(doc) {
						// Candidate selection over-approximates (n-gram
						// false positives) or the index is off: the literal
						// scan is the exact filter.
						res.skipped.Add(1)
						continue
					}
					res.scanned.Add(1)
					// Charge the document's scan cost up front, so a build
					// that would blow the budget trips the stop probe
					// mid-sweep instead of completing.
					res.work.Add(uint64(len(doc)))
					id := s.idOf(uint64(si), uint64(pos))
					cur = uint64(id)
					resilience.Inject(resilience.FailWorkerDoc, doc)
					emit := func(t span.Tuple) bool {
						if res.limit > 0 && res.reserved.Add(1) > res.limit {
							// Over-reserved: this tuple is beyond the limit.
							// Stop this producer; the loop above stops the
							// rest. No error — a met limit is exhaustion.
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
					}
					if err := eval(doc, emit); err != nil {
						res.setErr(err)
						cancel()
						return
					}
					cur = resilience.NoDoc
				}
			}
		}()
	}

	go func() {
		// The closer owns shutdown: it must close the channel and release
		// the gate on every path, including a panic in wg.Wait bookkeeping.
		defer func() {
			if p := recover(); p != nil {
				res.setErr(resilience.NewPanicError(resilience.NoDoc, p))
			}
			// The pool is gone: record its lifetime (the enumerate stage)
			// and final counters before the channel closes — the consumer
			// reads the trace only after Next returns false, so the close
			// below publishes these writes to it.
			d := time.Since(poolStart)
			s.met.evalDur.Observe(d)
			tr.ObserveItems(obs.StageEnumerate, d, int64(res.delivered.Load()))
			s.met.docsScanned.Add(res.scanned.Load())
			s.met.docsSkipped.Add(res.skipped.Load())
			s.met.results.Add(res.delivered.Load())
			// Release the derived context's registration on ctx so streams
			// drained without Close don't leak it (Close's own cancel stays
			// idempotent), and give the admission slot back only now —
			// admission bounds live pools, not just query starts.
			cancel()
			release()
			close(res.ch)
		}()
		wg.Wait()
		// Surface cancellation that came from the caller's context (not
		// from Close) as the stream error; a deadline set via EvalOptions
		// lives on the derived context only, so check it second.
		if err := ctx.Err(); err != nil {
			res.setErr(err)
		} else if errors.Is(cctx.Err(), context.DeadlineExceeded) {
			res.setErr(context.DeadlineExceeded)
		} else if res.overBudget() {
			// A budget that ran out mid-document trips the build interrupt
			// without reaching another worker's pre-document check (the
			// single-large-document case); the meter itself is the record
			// that output may be truncated.
			res.setErr(resilience.ErrBudgetExceeded)
		}
	}()
	return res, nil
}
