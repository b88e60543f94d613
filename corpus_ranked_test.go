package spanjoin_test

import (
	"context"
	"sort"
	"testing"

	"spanjoin"
)

func rankedTestCorpus(t *testing.T, opts ...spanjoin.CorpusOption) (*spanjoin.Corpus, []string) {
	t.Helper()
	docs := []string{
		"alice sent mail",
		"no matches here",
		"aa mail mail aa",
		"",
		"mail",
		"bb aa mail",
	}
	c := spanjoin.NewCorpus(opts...)
	c.AddAll(docs...)
	return c, docs
}

func TestCorpusCountMatchesEvalAll(t *testing.T) {
	for _, opts := range [][]spanjoin.CorpusOption{
		{spanjoin.WithShards(2)},
		{spanjoin.WithShards(3), spanjoin.WithIndex()},
	} {
		c, _ := rankedTestCorpus(t, opts...)
		const pattern = `.*x{mail}.*`
		all, err := c.EvalAll(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		wantTotal := uint64(0)
		for _, ms := range all {
			wantTotal += uint64(len(ms))
		}
		n, err := c.Count(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		if u, ok := n.Uint64(); !ok || u != wantTotal {
			t.Fatalf("Count = %v, EvalAll found %d", n, wantTotal)
		}
		per, err := c.CountAll(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(per) != len(all) {
			t.Fatalf("CountAll has %d docs, EvalAll %d", len(per), len(all))
		}
		for id, ms := range all {
			if u, ok := per[id].Uint64(); !ok || u != uint64(len(ms)) {
				t.Fatalf("doc %d: CountAll %v, EvalAll %d", id, per[id], len(ms))
			}
		}
	}
}

func TestCorpusCountQuery(t *testing.T) {
	c, _ := rankedTestCorpus(t, spanjoin.WithShards(2))
	q := spanjoin.NewQuery().
		Atom(`.*x{mail}.*`).
		Atom(`.*y{aa}.*`).
		MustBuild()
	ref, err := c.EvalQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer ref.Close()
	want := uint64(0)
	for {
		if _, ok := ref.Next(); !ok {
			break
		}
		want++
	}
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}
	n, err := c.CountQuery(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := n.Uint64(); !ok || u != want {
		t.Fatalf("CountQuery = %v, EvalQuery drained %d", n, want)
	}
	// Forced canonical drains per document; counts must agree.
	canon, err := c.CountQuery(context.Background(), q, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		t.Fatal(err)
	}
	if canon.String() != n.String() {
		t.Fatalf("canonical CountQuery %v != ranked %v", canon, n)
	}

	// With equalities: the per-document drain path.
	eq := spanjoin.NewQuery().
		Atom(`.*x{[a-z]+} .*y{[a-z]+}.*`).
		Equal("x", "y").
		MustBuild()
	eqRef, err := c.EvalQuery(context.Background(), eq)
	if err != nil {
		t.Fatal(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer eqRef.Close()
	wantEq := uint64(0)
	for {
		if _, ok := eqRef.Next(); !ok {
			break
		}
		wantEq++
	}
	if err := eqRef.Err(); err != nil {
		t.Fatal(err)
	}
	eqN, err := c.CountQuery(context.Background(), eq)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := eqN.Uint64(); !ok || u != wantEq {
		t.Fatalf("equality CountQuery = %v, drain found %d", eqN, wantEq)
	}
}

// corpusRefSequence materializes the full corpus result sequence in
// EvalPage's order: ascending DocID, each document in radix order.
func corpusRefSequence(t *testing.T, c *spanjoin.Corpus, pattern string) []spanjoin.CorpusMatch {
	t.Helper()
	sp, err := spanjoin.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	var ids []spanjoin.DocID
	for id := spanjoin.DocID(0); int(id) < 4*c.Len(); id++ {
		if _, ok := c.Doc(id); ok {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []spanjoin.CorpusMatch
	for _, id := range ids {
		doc, _ := c.Doc(id)
		ms, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out = append(out, spanjoin.CorpusMatch{Doc: id, Match: m})
		}
	}
	return out
}

func TestCorpusEvalPage(t *testing.T) {
	for _, opts := range [][]spanjoin.CorpusOption{
		{spanjoin.WithShards(2)},
		{spanjoin.WithShards(3), spanjoin.WithIndex()},
	} {
		c, _ := rankedTestCorpus(t, opts...)
		const pattern = `.*x{mail}.*`
		want := corpusRefSequence(t, c, pattern)
		if len(want) < 4 {
			t.Fatalf("weak instance: %d results", len(want))
		}
		for off := uint64(0); off <= uint64(len(want))+1; off++ {
			pg, err := c.EvalPage(context.Background(), pattern, off, 2)
			if err != nil {
				t.Fatal(err)
			}
			if u, ok := pg.Total.Uint64(); !ok || u != uint64(len(want)) {
				t.Fatalf("offset %d: Total = %v, want %d", off, pg.Total, len(want))
			}
			lo := int(off)
			if lo > len(want) {
				lo = len(want)
			}
			hi := lo + 2
			if hi > len(want) {
				hi = len(want)
			}
			if len(pg.Matches) != hi-lo {
				t.Fatalf("offset %d: %d matches, want %d", off, len(pg.Matches), hi-lo)
			}
			for k, m := range pg.Matches {
				ref := want[lo+k]
				if m.Doc != ref.Doc || matchKey(m.Match) != matchKey(ref.Match) {
					t.Fatalf("offset %d match %d: %v@%d, want %v@%d",
						off, k, m.Match, m.Doc, ref.Match, ref.Doc)
				}
				// The page's match must be bound to its own document text.
				if s := m.Match.MustSubstr("x"); s != "mail" {
					t.Fatalf("page match decodes substring %q", s)
				}
			}
			st := pg.Stats
			if st.Scanned+st.Skipped+st.Reused != uint64(c.Len()) {
				t.Fatalf("offset %d: stats %+v do not partition %d docs", off, st, c.Len())
			}
			// The first page sweeps the corpus; every later page of the
			// cached pattern takes all of it from the count memo.
			if wantReused := uint64(c.Len()) * min(off, 1); st.Reused != wantReused {
				t.Fatalf("offset %d: Reused = %d, want %d", off, st.Reused, wantReused)
			}
		}
	}
}
