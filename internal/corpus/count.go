package corpus

import (
	"context"
	"sort"
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
// snapshot without enumerating any of them: shard workers run the count
// kernel per document (enum.Enumerator.CountDoc: one pass over the plan's
// lazily determinized count automaton, whose cached steps every later
// document and sweep of the plan reuses; no graph and no DAG, and cost
// independent of that document's result count) and aggregate. Documents
// the prefilter
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
		// A deadline that fires mid-count abandons the sweep (the count
		// comes up 0, but the whole count errors out anyway).
		e.SetInterrupt(stop)
		return func(doc string) (ranked.Count, error) {
			return e.CountDoc(doc), nil
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

// countDocs is the counting visitor on the shard executor: each worker
// tallies every document it is dealt into that shard's own sweep record,
// merged once the pool has drained. It reports into a trace carried on
// ctx the count stage with the scanned-document tally.
//
// The executor reads the memo after admission and before it captures the
// snapshot, so its prefixes never reach past the snapshot; the sweep
// starts at each shard's mark and is published back only when it finished
// with no error, cancellation or deadline — a build the stop probe
// interrupted reports a false 0.
//
//spanjoin:stage count
func (s *Store) countDocs(ctx context.Context, newCounter func(stop func() bool) docCounter, memo *CountMemo, opt EvalOptions, perDoc bool) (*CountResult, error) {
	sweeps := make([]shardSweep, len(s.shards))
	// The memo needs every non-zero count of the sweep to extend itself.
	collect := perDoc || memo != nil
	x, err := s.startSweep(ctx, sweepSpec{
		opt:       opt,
		failpoint: resilience.FailCountDoc,
		memo:      memo,
		newVisitor: func(x *sweep) visitor {
			counter := newCounter(x.stop)
			return func(si int, id DocID, doc string) error {
				c, err := counter(doc)
				if err != nil || c.IsZero() {
					return err
				}
				// A shard is dealt to exactly one worker, so its sweep
				// record needs no lock; the pool's wait publishes it.
				sw := &sweeps[si]
				sw.total = sw.total.Add(c)
				if collect {
					sw.docs = append(sw.docs, DocCount{Doc: id, N: c})
				}
				return nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	defer x.finish()
	err = x.wait()
	sweep := time.Since(x.start)

	prefix := x.prefix
	res := &CountResult{Scanned: x.scanned.Load(), Skipped: x.skipped.Load(), SkippedIndex: x.skippedIndex.Load()}
	for si := range sweeps {
		sweeps[si].from, sweeps[si].end = x.shards[si].from, len(x.shards[si].docs)
		res.Total = res.Total.Add(sweeps[si].total)
		if prefix != nil {
			res.Total = res.Total.Add(prefix[si].total)
			res.Reused += uint64(prefix[si].mark)
		}
	}
	s.met.stages.ObserveItems(ctx, obs.StageCount, sweep, int64(res.Scanned))
	s.met.docsScanned.Add(res.Scanned)
	s.met.docsSkipped.Add(res.Skipped)
	s.met.docsReused.Add(res.Reused)
	if err != nil {
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
// and no graph anywhere, each document one pass over the plan's count
// automaton, and — given the plan's memo — visiting only documents the
// memo has not counted yet), then the window — located in
// the per-document prefix sums — is entered with a single DAG descent and
// streamed from only the documents it intersects, one graph build each,
// on graph arenas drawn from the process-wide pool and returned to it.
// A page deep in the result sequence therefore costs the same as page 0:
// the counting sweep plus one descent, and the exact total rides along
// for free. The query's context and deadline interrupt the window's
// builds too: a page they cut short fails with the context's error.
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
	ctx, cancel := opt.evalCtx(ctx)
	defer cancel()
	e := p.NewEnumerator()
	defer e.Release() // decode allocates every tuple: nothing views the graph after return
	e.SetInterrupt(func() bool { return ctx.Err() != nil })
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
		if err := ctx.Err(); err != nil {
			return nil, err // the build may have been interrupted
		}
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
