package corpus

import (
	"context"
	"sort"
	"sync"
	"time"

	"spanjoin/internal/enum"
	"spanjoin/internal/obs"
	"spanjoin/internal/ranked"
	"spanjoin/internal/resilience"
	"spanjoin/internal/span"
)

// DocCount is one document's exact result count.
type DocCount struct {
	Doc DocID
	N   ranked.Count
}

// CountResult aggregates a corpus-wide count.
type CountResult struct {
	// Total is the exact number of result tuples across the snapshot.
	Total ranked.Count
	// PerDoc lists the documents with at least one result, ascending by
	// DocID; nil unless requested.
	PerDoc []DocCount
	// Scanned/Skipped/SkippedIndex mirror Results' prefilter counters:
	// prefiltered documents contribute 0 without being visited.
	Scanned, Skipped, SkippedIndex uint64
	// Reused counts documents whose counts came from the count memo
	// without being visited. Scanned+Skipped+Reused is the snapshot size.
	Reused uint64
}

// docCounter counts one document's results.
type docCounter func(doc string) (ranked.Count, error)

// CountPlan counts the plan's results over every document of the
// snapshot without enumerating any of them: shard workers run the ranked
// path-count DP per document (one graph build each, cost independent of
// that document's result count) and aggregate. Documents the prefilter
// excludes — skip-index non-candidates and literal-scan failures — count
// as 0 without being visited. perDoc additionally collects the non-zero
// per-document counts.
//
// memo, when non-nil, is the plan's count memo (see CountMemo): documents
// below its per-shard marks are served from it, only the rest are swept,
// and a sweep that completes cleanly extends it. A nil memo sweeps the
// whole snapshot.
func (s *Store) CountPlan(ctx context.Context, p *enum.Plan, memo *CountMemo, opt EvalOptions, perDoc bool) (res *CountResult, err error) {
	defer resilience.RecoverTo(&err)
	return s.countDocs(ctx, func(stop func() bool) docCounter {
		e := p.NewEnumerator()
		// A deadline that fires mid-build abandons the sweep (the count
		// comes up 0, but the whole count errors out anyway).
		e.SetInterrupt(stop)
		return func(doc string) (ranked.Count, error) {
			e.Reset(doc)
			return e.Rank().Count(), nil
		}
	}, memo, opt, perDoc)
}

// CountFunc is CountPlan for evaluators that cannot share a compiled
// plan (per-document query plans, string-equality selections): each
// document's count drains its DocEval — output-proportional per
// document, but still parallel and still prefiltered.
func (s *Store) CountFunc(ctx context.Context, newEval NewDocEval, opt EvalOptions, perDoc bool) (res *CountResult, err error) {
	defer resilience.RecoverTo(&err)
	return s.countDocs(ctx, func(stop func() bool) docCounter {
		eval := newEval(stop)
		return func(doc string) (ranked.Count, error) {
			var n uint64
			err := eval(doc, func(span.Tuple) bool { n++; return true })
			return ranked.CountOf(n), err
		}
	}, nil, opt, perDoc)
}

// countDocs is the shared fan-out: shards are dealt to workers exactly
// like run(), and each worker tallies every shard it is dealt into that
// shard's own sweep record, merged once the pool has drained. Like run it
// reports into a trace carried on ctx: the admission wait and, after the
// sweep, the count stage with the scanned-document tally.
//
// The memo is read before the snapshot is captured, so its prefixes never
// reach past the snapshot; the sweep starts at each shard's mark and is
// published back only when it finished with no error, cancellation or
// deadline — a build the stop probe interrupted reports a false 0.
//
//spanjoin:stage admission_wait
//spanjoin:stage count
func (s *Store) countDocs(ctx context.Context, newCounter func(stop func() bool) docCounter, memo *CountMemo, opt EvalOptions, perDoc bool) (*CountResult, error) {
	tr := obs.FromContext(ctx)
	cctx, cancel := opt.evalCtx(ctx)
	defer cancel()
	stop := func() bool { return cctx.Err() != nil }
	if g := s.gate; g != nil {
		// Counts spin the same worker pools as streams, so they pass the
		// same admission gate; the queue wait respects the deadline.
		t0 := time.Now()
		err := g.Acquire(cctx, 1)
		tr.Observe(obs.StageAdmission, time.Since(t0))
		if err != nil {
			return nil, err
		}
		defer g.Release(1)
	}

	prefix := memo.load()
	shards := s.planTraced(ctx, opt.Required)
	sweeps := make([]shardSweep, len(shards))
	for si := range shards {
		if prefix != nil {
			shards[si].startAt(prefix[si].mark)
		}
		sweeps[si] = shardSweep{from: shards[si].from, end: len(shards[si].docs)}
	}
	// The memo needs every non-zero count of the sweep to extend itself.
	collect := perDoc || memo != nil

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	idxSkipped, busy := planStats(shards)
	sweepStart := time.Now()
	if busy > 0 {
		// Materialize every worker's counter before starting any goroutine:
		// like run()'s evaluators, counter constructors may read shared
		// state that a running worker would already be mutating; a
		// constructor panic fails the count, not the process.
		counters := make([]docCounter, clampWorkers(opt.workers(), busy))
		if err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = resilience.NewPanicError(resilience.NoDoc, p)
				}
			}()
			for w := range counters {
				counters[w] = newCounter(stop)
			}
			return nil
		}(); err != nil {
			return nil, err
		}

		shardCh := dealShards(cctx, shards, fail)
		for _, counter := range counters {
			wg.Add(1)
			go func() {
				cur := resilience.NoDoc
				defer func() {
					if p := recover(); p != nil {
						fail(resilience.NewPanicError(cur, p))
					}
					wg.Done()
				}()
				// A shard is dealt to exactly one worker, so its sweep
				// record needs no lock; wg.Wait publishes it.
				for si := range shardCh {
					es, sw := &shards[si], &sweeps[si]
					for k, n := 0, es.work(); k < n; k++ {
						if cctx.Err() != nil {
							break
						}
						pos := es.pos(k)
						doc := es.docs[pos]
						if !opt.Required.IsEmpty() && !opt.Required.Match(doc) {
							sw.skipped++
							continue
						}
						sw.scanned++
						id := s.idOf(uint64(si), uint64(pos))
						cur = uint64(id)
						resilience.Inject(resilience.FailCountDoc, doc)
						c, err := counter(doc)
						if err != nil {
							fail(err)
							break
						}
						cur = resilience.NoDoc
						if c.IsZero() {
							continue
						}
						sw.total = sw.total.Add(c)
						if collect {
							sw.docs = append(sw.docs, DocCount{Doc: id, N: c})
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	sweep := time.Since(sweepStart)

	res := &CountResult{Skipped: idxSkipped, SkippedIndex: idxSkipped}
	for si := range sweeps {
		sw := &sweeps[si]
		res.Total = res.Total.Add(sw.total)
		res.Scanned += sw.scanned
		res.Skipped += sw.skipped
		if prefix != nil {
			res.Total = res.Total.Add(prefix[si].total)
			res.Reused += uint64(prefix[si].mark)
		}
	}
	s.met.countDur.Observe(sweep)
	s.met.docsScanned.Add(res.Scanned)
	s.met.docsSkipped.Add(res.Skipped)
	s.met.docsReused.Add(res.Reused)
	tr.ObserveItems(obs.StageCount, sweep, int64(res.Scanned))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := cctx.Err(); err != nil {
		// The per-count deadline (EvalOptions.Deadline) fired.
		return nil, err
	}
	memo.publish(s, sweeps)
	if perDoc {
		for si := range sweeps {
			if prefix != nil {
				res.PerDoc = append(res.PerDoc, prefix[si].docs...)
			}
			res.PerDoc = append(res.PerDoc, sweeps[si].docs...)
		}
		sort.Slice(res.PerDoc, func(i, j int) bool { return res.PerDoc[i].Doc < res.PerDoc[j].Doc })
	}
	return res, nil
}

// PageResult is one deterministic page of a corpus evaluation.
type PageResult struct {
	// Matches is the window [offset, offset+limit) of the corpus-wide
	// result sequence ordered by ascending DocID, each document's results
	// in the engine's radix order.
	Matches []Result
	// Total is the exact corpus-wide result count.
	Total                                  ranked.Count
	Scanned, Skipped, SkippedIndex, Reused uint64
}

// PagePlan serves offset/limit pagination over the snapshot in ascending
// DocID order, in two phases: the corpus-wide counting sweep runs through
// CountPlan's shard workers (parallel, skip-index aware, no enumeration
// anywhere, and — given the plan's memo — visiting only documents the
// memo has not counted yet), then the window — located in the
// per-document prefix sums — is entered with a single DAG descent and
// streamed from only the documents it intersects. A page deep in the
// result sequence therefore costs the same as page 0: the counting sweep
// plus one descent, and the exact total rides along for free.
func (s *Store) PagePlan(ctx context.Context, p *enum.Plan, memo *CountMemo, opt EvalOptions, offset uint64, limit int) (page *PageResult, err error) {
	defer resilience.RecoverTo(&err)
	cnt, err := s.CountPlan(ctx, p, memo, opt, true)
	if err != nil {
		return nil, err
	}
	res := &PageResult{
		Total:        cnt.Total,
		Scanned:      cnt.Scanned,
		Skipped:      cnt.Skipped,
		SkippedIndex: cnt.SkippedIndex,
		Reused:       cnt.Reused,
	}
	if limit <= 0 {
		return res, nil
	}
	// An offset at or past the total is an exhausted page — returned
	// before any per-document arithmetic, so boundary offsets (up to and
	// including math.MaxUint64, where offset+limit would wrap a uint64)
	// can never walk the subtraction loop into a wrapped window. Totals
	// beyond uint64 always have results at every uint64 offset.
	if u, fits := cnt.Total.Uint64(); fits && offset >= u {
		return res, nil
	}
	// PerDoc is ascending by DocID — exactly the page order. Documents
	// wholly before the window are subtracted from offset by count; the
	// first intersecting document is entered at rank offset.
	e := p.NewEnumerator()
	var wbuf []int32
	for _, dc := range cnt.PerDoc {
		if len(res.Matches) >= limit {
			break
		}
		if u, fits := dc.N.Uint64(); fits && offset >= u {
			offset -= u // the whole document precedes the window
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		doc, ok := s.Get(dc.Doc)
		if !ok {
			continue // unreachable: snapshot documents are immutable
		}
		e.Reset(doc)
		if offset > 0 {
			// Only the window's first document needs the rank descent;
			// later ones stream from their beginning.
			w, okW := e.Rank().WordAt(offset, wbuf)
			if !okW || !e.SeekLetters(w) {
				continue // unreachable on a consistent rank
			}
			wbuf = w
			offset = 0
		}
		for len(res.Matches) < limit {
			t, okT := e.Next()
			if !okT {
				break
			}
			res.Matches = append(res.Matches, Result{Doc: dc.Doc, Tuple: t})
		}
	}
	return res, nil
}
