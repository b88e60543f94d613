package corpus

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"spanjoin/internal/obs"
	"spanjoin/internal/resilience"
)

// visitor handles the documents dealt to one worker of the shard
// executor: it is called once for every document that passes the
// prefilter, on that worker's goroutine, with the document's shard index
// and DocID. A non-nil error fails the sweep.
type visitor func(si int, id DocID, doc string) error

// errHalt is the halt that is not a failure: the query already has what
// it asked for, so the workers stop quietly.
var errHalt = errors.New("corpus: sweep halted")

// sweepSpec is a caller's half of one executor run.
type sweepSpec struct {
	// opt supplies the pool size, the literal requirement and the
	// deadline.
	opt EvalOptions
	// failpoint fires immediately before each visited document.
	failpoint string
	// memo, when non-nil, is a count memo: each shard's sweep starts at
	// the memo's mark for it.
	memo *CountMemo
	// halt, when set, is polled before every document and by every
	// build's interrupt. A non-nil result stops the workers before their
	// next document; any error but errHalt also fails the sweep.
	halt func() error
	// newVisitor builds one worker's visitor. Every worker's visitor is
	// built before any worker starts, since constructors may read shared
	// state that a running worker would already be mutating.
	newVisitor func(x *sweep) visitor
}

// sweep is one run of the shard executor, the one worker pool behind
// every multi-document operation: streams, counts and batches. It holds
// an admission slot from start to finish.
type sweep struct {
	sweepSpec
	store  *Store
	parent context.Context
	// ctx is the pool context: the caller's, tightened by the query
	// deadline. Workers, the dealer and builds all observe it.
	ctx     context.Context
	cancel  context.CancelFunc
	release func()
	// prefix holds the memo's per-shard prefixes, read after admission
	// and before the snapshot, so no mark passes the snapshot; nil
	// without a memo.
	prefix []memoShard
	shards []evalShard
	// start is when the snapshot was planned; the pool's lifetime runs
	// from here.
	start time.Time

	// scanned counts documents a visitor ran on; skipped counts documents
	// the prefilter excluded (skip-index candidate selection or the
	// literal scan), skippedIndex the subset the index excluded without
	// even a substring scan. Scanned plus skipped reach the planned
	// document count once the sweep runs to completion.
	scanned, skipped, skippedIndex atomic.Uint64

	wg  sync.WaitGroup
	mu  sync.Mutex
	err error
}

// startSweep acquires the store's admission gate, snapshots the store
// (with skip-index candidates for opt.Required), builds one visitor per
// worker and starts the pool. It returns once the workers are running;
// the caller then waits for them (wait) and gives the slot back (finish).
// A shed query returns resilience.ErrOverloaded, or the context's error
// when its deadline fires in the queue, with nothing started; a panic
// while planning or building visitors returns *resilience.PanicError.
//
//spanjoin:stage admission_wait
func (s *Store) startSweep(ctx context.Context, spec sweepSpec) (_ *sweep, err error) {
	x := &sweep{sweepSpec: spec, store: s, parent: ctx, release: func() {}}
	x.ctx, x.cancel = spec.opt.evalCtx(ctx)
	if g := s.gate; g != nil {
		// The admission wait respects the query's own deadline: a queued
		// query whose deadline fires sheds with the context's error.
		t0 := time.Now()
		err := g.Acquire(x.ctx, 1)
		s.met.stages.Observe(ctx, obs.StageAdmission, time.Since(t0))
		if err != nil {
			x.cancel()
			return nil, err
		}
		var once sync.Once
		x.release = func() { once.Do(func() { g.Release(1) }) }
	}
	defer func() {
		if p := recover(); p != nil {
			err = resilience.NewPanicError(resilience.NoDoc, p)
		}
		if err != nil {
			x.finish()
		}
	}()

	x.prefix = spec.memo.load()
	x.shards = s.planTraced(ctx, spec.opt.Required)
	busy := 0
	for si := range x.shards {
		es := &x.shards[si]
		if x.prefix != nil {
			es.startAt(x.prefix[si].mark)
		}
		if es.constrained {
			idx := uint64(len(es.docs) - es.from - len(es.cand))
			x.skipped.Add(idx)
			x.skippedIndex.Add(idx)
		}
		if es.work() > 0 {
			busy++
		}
	}
	x.start = time.Now()
	if busy == 0 {
		// Nothing to visit (empty snapshot, or the index excluded every
		// document): no dealer, no workers.
		return x, nil
	}

	// The pool is bounded by the shards with work — the dealer never hands
	// out empty ones, so extra workers would idle forever.
	visitors := make([]visitor, min(spec.opt.workers(), busy))
	for w := range visitors {
		visitors[w] = spec.newVisitor(x)
	}
	deal := x.deal()
	for _, v := range visitors {
		x.wg.Add(1)
		go x.work(deal, v)
	}
	return x, nil
}

// deal starts the dealer: non-empty shards are handed to workers over the
// returned channel (a worker finishing a small shard immediately picks up
// the next); the dealer selects on the pool context so cancellation stops
// the deal. A panic in the dealer fails the sweep — the channel still
// closes, so workers drain and the pool shuts down cleanly.
func (x *sweep) deal() <-chan int {
	ch := make(chan int)
	go func() {
		defer close(ch)
		defer func() {
			if p := recover(); p != nil {
				x.fail(resilience.NewPanicError(resilience.NoDoc, p))
			}
		}()
		for si := range x.shards {
			if x.shards[si].work() == 0 {
				continue
			}
			resilience.Inject(resilience.FailDealer, si)
			select {
			case ch <- si:
			case <-x.ctx.Done():
				return
			}
		}
	}()
	return ch
}

// work is one worker's loop over the shards it is dealt. Documents failing
// the literal requirement are counted skipped and never reach the
// visitor: candidate selection over-approximates (n-gram false positives)
// or the index is off, so the literal scan is the exact filter. A panic
// fails the sweep with a *resilience.PanicError naming the document.
func (x *sweep) work(deal <-chan int, visit visitor) {
	// cur tracks the document under evaluation so a recovered panic can
	// name it; NoDoc between documents.
	cur := resilience.NoDoc
	defer func() {
		if p := recover(); p != nil {
			x.fail(resilience.NewPanicError(cur, p))
		}
		x.wg.Done()
	}()
	req := x.opt.Required
	for si := range deal {
		es := &x.shards[si]
		for k, n := 0, es.work(); k < n; k++ {
			if x.halted() {
				return
			}
			pos := es.pos(k)
			doc := es.docs[pos]
			if !req.IsEmpty() && !req.Match(doc) {
				x.skipped.Add(1)
				continue
			}
			x.scanned.Add(1)
			id := x.store.idOf(uint64(si), uint64(pos))
			cur = uint64(id)
			resilience.Inject(x.failpoint, doc)
			if err := visit(si, id, doc); err != nil {
				x.fail(err)
				return
			}
			cur = resilience.NoDoc
		}
	}
}

// halted reports whether a worker must stop before its next document:
// the pool context is done, or the caller's halt fired (failing the sweep
// unless it is errHalt).
func (x *sweep) halted() bool {
	if x.ctx.Err() != nil {
		return true
	}
	if x.halt == nil {
		return false
	}
	err := x.halt()
	if err != nil && err != errHalt {
		x.fail(err)
	}
	return err != nil
}

// stop is the sweep's liveness probe for builds: true once the pool
// context is done or the caller's halt fires. The streaming and counting
// visitors install it as their enumerators' amortized build interrupt, so
// a deadline or spent budget abandons a long build instead of finishing
// it.
func (x *sweep) stop() bool {
	return x.ctx.Err() != nil || (x.halt != nil && x.halt() != nil)
}

// fail records the sweep's first failure and cancels the pool.
func (x *sweep) fail(err error) {
	x.mu.Lock()
	if x.err == nil {
		x.err = err
	}
	x.mu.Unlock()
	x.cancel()
}

// wait blocks until every worker has exited and reports why the sweep
// ended early: its first failure, else the caller's cancellation, else
// the query deadline. It returns nil when the sweep ran to completion or
// stopped on errHalt.
func (x *sweep) wait() error {
	x.wg.Wait()
	x.mu.Lock()
	err := x.err
	x.mu.Unlock()
	if err != nil {
		return err
	}
	if err := x.parent.Err(); err != nil {
		return err
	}
	// A deadline set via EvalOptions lives on the pool context only.
	if errors.Is(x.ctx.Err(), context.DeadlineExceeded) {
		return context.DeadlineExceeded
	}
	return nil
}

// finish releases the pool context's registration on the caller's
// context and gives the admission slot back. Idempotent.
func (x *sweep) finish() {
	x.cancel()
	x.release()
}
