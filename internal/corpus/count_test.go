package corpus

import (
	"context"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// countStore builds a store over docs and the plan for pattern.
func countStore(t *testing.T, shards int, docs []string, pattern string) (*Store, []DocID, *enum.Plan) {
	t.Helper()
	s := NewStore(shards)
	ids := make([]DocID, len(docs))
	for i, d := range docs {
		ids[i] = s.Add(d)
	}
	p, err := enum.NewPlan(rgx.MustCompilePattern(pattern))
	if err != nil {
		t.Fatal(err)
	}
	return s, ids, p
}

func TestCountPlanMatchesDrain(t *testing.T) {
	docs := []string{"aba", "bb", "", "aaab", "ba", "abab", "a", "baab", "bbba", "aaaa"}
	for _, workers := range []int{0, 1, 3, 8} {
		s, ids, p := countStore(t, 4, docs, `(a|b)*x{a+}(a|b)*`)
		res, err := s.CountPlan(context.Background(), p, nil, EvalOptions{Workers: workers}, true)
		if err != nil {
			t.Fatal(err)
		}
		wantTotal := uint64(0)
		wantPerDoc := map[DocID]uint64{}
		for i, d := range docs {
			_, tuples, err := enum.Eval(rgx.MustCompilePattern(`(a|b)*x{a+}(a|b)*`), d)
			if err != nil {
				t.Fatal(err)
			}
			wantTotal += uint64(len(tuples))
			if len(tuples) > 0 {
				wantPerDoc[ids[i]] = uint64(len(tuples))
			}
		}
		if got, ok := res.Total.Uint64(); !ok || got != wantTotal {
			t.Fatalf("workers=%d: Total = %v, want %d", workers, res.Total, wantTotal)
		}
		if len(res.PerDoc) != len(wantPerDoc) {
			t.Fatalf("workers=%d: %d per-doc entries, want %d", workers, len(res.PerDoc), len(wantPerDoc))
		}
		for i, dc := range res.PerDoc {
			if i > 0 && res.PerDoc[i-1].Doc >= dc.Doc {
				t.Fatal("PerDoc not ascending by DocID")
			}
			if got, ok := dc.N.Uint64(); !ok || got != wantPerDoc[dc.Doc] {
				t.Fatalf("doc %d: count %v, want %d", dc.Doc, dc.N, wantPerDoc[dc.Doc])
			}
		}
		if res.Scanned != uint64(len(docs)) || res.Skipped != 0 {
			t.Fatalf("counters: %d scanned / %d skipped, want %d / 0", res.Scanned, res.Skipped, len(docs))
		}
	}
}

// TestCountPlanSkipsViaIndex: prefiltered documents must count as 0
// without being visited — the skip index excludes them outright.
func TestCountPlanSkipsViaIndex(t *testing.T) {
	docs := []string{"xneedley", "aaaa", "bbbb", "needle", "cccc", "dd"}
	s := NewStore(2)
	s.EnableIndex()
	for _, d := range docs {
		s.Add(d)
	}
	p, err := enum.NewPlan(rgx.MustCompilePattern(`.*x{needle}.*`))
	if err != nil {
		t.Fatal(err)
	}
	req := prefilter.New("needle")
	res, err := s.CountPlan(context.Background(), p, nil, EvalOptions{Required: req}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.Total.Uint64(); !ok || got != 2 {
		t.Fatalf("Total = %v, want 2", res.Total)
	}
	if res.SkippedIndex == 0 {
		t.Fatal("index skipped nothing: non-candidates were visited")
	}
	if res.Scanned+res.Skipped != uint64(len(docs)) {
		t.Fatalf("counters do not partition the snapshot: %d + %d != %d",
			res.Scanned, res.Skipped, len(docs))
	}
}

func TestCountFuncDrains(t *testing.T) {
	docs := []string{"aa", "", "aaa"}
	s := NewStore(2)
	ids := make([]DocID, len(docs))
	for i, d := range docs {
		ids[i] = s.Add(d)
	}
	newEval := func(func() bool) DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			for range doc {
				if !emit(span.Tuple{}) {
					return nil
				}
			}
			return nil
		}
	}
	res, err := s.CountFunc(context.Background(), newEval, EvalOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.Total.Uint64(); !ok || got != 5 {
		t.Fatalf("Total = %v, want 5", res.Total)
	}
	want := map[DocID]uint64{ids[0]: 2, ids[2]: 3}
	if len(res.PerDoc) != len(want) {
		t.Fatalf("%d per-doc entries, want %d", len(res.PerDoc), len(want))
	}
	for _, dc := range res.PerDoc {
		if got, _ := dc.N.Uint64(); got != want[dc.Doc] {
			t.Fatalf("doc %d: %v, want %d", dc.Doc, dc.N, want[dc.Doc])
		}
	}
}

func TestCountPlanCancellation(t *testing.T) {
	docs := make([]string, 64)
	for i := range docs {
		docs[i] = "aaaa"
	}
	s, _, p := countStore(t, 4, docs, `a*x{a+}a*`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.CountPlan(ctx, p, nil, EvalOptions{}, false); err == nil {
		t.Fatal("cancelled CountPlan returned nil error")
	}
}

func TestPagePlanWindowsAndTotal(t *testing.T) {
	docs := []string{"aa", "b", "aaa", "", "a", "aaaa"}
	s, _, p := countStore(t, 2, docs, `a*x{a+}a*`)

	// Reference: the full result sequence in ascending DocID order.
	full, err := s.PagePlan(context.Background(), p, nil, EvalOptions{}, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := full.Total.Uint64()
	if !ok || total != uint64(len(full.Matches)) {
		t.Fatalf("full page: Total %v vs %d matches", full.Total, len(full.Matches))
	}
	for i := 1; i < len(full.Matches); i++ {
		if full.Matches[i-1].Doc > full.Matches[i].Doc {
			t.Fatal("full page not ascending by DocID")
		}
	}
	// Every window must be the exact slice of the full sequence.
	for off := uint64(0); off <= total+2; off++ {
		for _, limit := range []int{1, 3, int(total) + 1} {
			pg, err := s.PagePlan(context.Background(), p, nil, EvalOptions{}, off, limit)
			if err != nil {
				t.Fatal(err)
			}
			if gt, _ := pg.Total.Uint64(); gt != total {
				t.Fatalf("page(%d,%d): Total %v, want %d", off, limit, pg.Total, total)
			}
			lo := int(off)
			if lo > len(full.Matches) {
				lo = len(full.Matches)
			}
			hi := lo + limit
			if hi > len(full.Matches) {
				hi = len(full.Matches)
			}
			want := full.Matches[lo:hi]
			if len(pg.Matches) != len(want) {
				t.Fatalf("page(%d,%d): %d matches, want %d", off, limit, len(pg.Matches), len(want))
			}
			for k := range want {
				if pg.Matches[k].Doc != want[k].Doc || pg.Matches[k].Tuple.Compare(want[k].Tuple) != 0 {
					t.Fatalf("page(%d,%d)[%d] = %v@%d, want %v@%d", off, limit, k,
						pg.Matches[k].Tuple, pg.Matches[k].Doc, want[k].Tuple, want[k].Doc)
				}
			}
		}
	}
	// limit 0: counting sweep only.
	pg, err := s.PagePlan(context.Background(), p, nil, EvalOptions{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Matches) != 0 {
		t.Fatal("limit 0 returned matches")
	}
	if gt, _ := pg.Total.Uint64(); gt != total {
		t.Fatalf("limit 0: Total %v, want %d", pg.Total, total)
	}
}

func TestPagePlanWithIndex(t *testing.T) {
	s := NewStore(3)
	s.EnableIndex()
	docs := []string{"zz", "aba", "zzz", "aa", "z", "baab"}
	for _, d := range docs {
		s.Add(d)
	}
	p, err := enum.NewPlan(rgx.MustCompilePattern(`.*x{ab}.*`))
	if err != nil {
		t.Fatal(err)
	}
	// "ab" is bigram-indexable, so non-candidates are skipped outright.
	req := prefilter.New("ab")
	full, err := s.PagePlan(context.Background(), p, nil, EvalOptions{Required: req}, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	noIdx := NewStore(3)
	for _, d := range docs {
		noIdx.Add(d)
	}
	ref, err := noIdx.PagePlan(context.Background(), p, nil, EvalOptions{Required: req}, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if full.Total.String() != ref.Total.String() || len(full.Matches) != len(ref.Matches) {
		t.Fatalf("indexed total %v (%d matches) != unindexed %v (%d)",
			full.Total, len(full.Matches), ref.Total, len(ref.Matches))
	}
	if full.SkippedIndex == 0 {
		t.Fatal("index skipped nothing")
	}
}

// TestPagePlanOffsetBoundary pins the saturating-offset contract: an
// offset at or past the total — all the way up to math.MaxUint64, where
// offset+limit arithmetic would wrap a uint64 — is an exhausted page
// with the exact total, never a wrapped window re-serving rank 0.
func TestPagePlanOffsetBoundary(t *testing.T) {
	docs := []string{"aa", "b", "aaa", "", "a", "aaaa"}
	s, _, p := countStore(t, 2, docs, `a*x{a+}a*`)
	full, err := s.PagePlan(context.Background(), p, nil, EvalOptions{}, 0, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := full.Total.Uint64()
	if !ok || total == 0 {
		t.Fatalf("bad total %v", full.Total)
	}
	for _, off := range []uint64{total, total + 1, ^uint64(0) - 1, ^uint64(0)} {
		for _, limit := range []int{1, int(total), 1 << 30} {
			pg, err := s.PagePlan(context.Background(), p, nil, EvalOptions{}, off, limit)
			if err != nil {
				t.Fatalf("page(%d,%d): %v", off, limit, err)
			}
			if len(pg.Matches) != 0 {
				t.Fatalf("page(%d,%d): %d matches, want exhausted page", off, limit, len(pg.Matches))
			}
			if gt, _ := pg.Total.Uint64(); gt != total {
				t.Fatalf("page(%d,%d): Total %v, want %d", off, limit, pg.Total, total)
			}
		}
	}
	// The last addressable window still works right at the edge.
	pg, err := s.PagePlan(context.Background(), p, nil, EvalOptions{}, total-1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Matches) != 1 {
		t.Fatalf("page(total-1): %d matches, want 1", len(pg.Matches))
	}
	if pg.Matches[0].Doc != full.Matches[total-1].Doc || pg.Matches[0].Tuple.Compare(full.Matches[total-1].Tuple) != 0 {
		t.Fatal("page(total-1) is not the last element of the sequence")
	}
}
