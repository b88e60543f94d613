package spanjoin_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"spanjoin"
)

func hasLiteral(lits []string, want string) bool {
	for _, l := range lits {
		if l == want {
			return true
		}
	}
	return false
}

// TestJoinCarriesPrefilter is the regression test for the composition bug:
// Join used to return a spanner with no required literal, silently paying
// full preprocessing on every document. The joined spanner must require
// both operands' factors and skip corpus documents lacking either.
func TestJoinCarriesPrefilter(t *testing.T) {
	a := spanjoin.MustCompile(`.*x{ERROR}.*`)
	b := spanjoin.MustCompile(`.*y{disk}.*`)
	j, err := spanjoin.Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	lits := j.RequiredLiterals()
	if !hasLiteral(lits, "ERROR") || !hasLiteral(lits, "disk") {
		t.Fatalf("joined spanner requires %q, want both ERROR and disk", lits)
	}
	if j.RequiredLiteral() == "" {
		t.Fatal("joined spanner dropped its required literal")
	}

	c := spanjoin.NewCorpus(spanjoin.WithShards(2))
	match := c.Add("ERROR on disk")
	c.Add("ERROR but not the other word")
	c.Add("disk fine")
	c.Add("nothing at all")
	ms, err := c.Eval(context.Background(), spanjoin.Of(j))
	if err != nil {
		t.Fatal(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer ms.Close()
	count := map[spanjoin.DocID]int{}
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		count[m.Doc]++
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	if len(count) != 1 || count[match] == 0 {
		t.Fatalf("join matched docs %v, want only %d", count, match)
	}
	st := ms.Stats()
	if st.Scanned != 1 || st.Skipped != 3 {
		t.Fatalf("stats = %+v, want 1 scanned / 3 skipped", st)
	}
}

// TestProjectCarriesPrefilter: projection changes the output schema, never
// the matching documents, so the operand's full requirement must survive.
func TestProjectCarriesPrefilter(t *testing.T) {
	a := spanjoin.MustCompile(`.*x{ERROR}.*y{disk}.*`)
	p, err := spanjoin.Project(a, "x")
	if err != nil {
		t.Fatal(err)
	}
	lits := p.RequiredLiterals()
	if !hasLiteral(lits, "ERROR") || !hasLiteral(lits, "disk") {
		t.Fatalf("projected spanner requires %q, want both ERROR and disk", lits)
	}
	// Non-matching document: prefilter fast path must stay correct.
	ms, err := p.Eval("no factors here")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("got %d matches on a doc without the factors", len(ms))
	}
	// Matching document: projection must still evaluate normally.
	ms, err = p.Eval("an ERROR hit the disk")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].MustSubstr("x") != "ERROR" {
		t.Fatalf("projected eval = %v", ms)
	}
	// Corpus-level skip, observed through the stats.
	c := spanjoin.NewCorpus(spanjoin.WithShards(3))
	c.AddAll("an ERROR hit the disk", "clean run", "ERROR only")
	cms, err := c.Eval(context.Background(), spanjoin.Of(p))
	if err != nil {
		t.Fatal(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer cms.Close()
	n := 0
	for {
		if _, ok := cms.Next(); !ok {
			break
		}
		n++
	}
	if err := cms.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("corpus matches = %d, want 1", n)
	}
	if st := cms.Stats(); st.Skipped != 2 {
		t.Fatalf("stats = %+v, want 2 skipped", st)
	}
}

// TestUnionPrefilter: a union keeps only factors every branch implies.
func TestUnionPrefilter(t *testing.T) {
	a := spanjoin.MustCompile(`.*x{ERROR}.*`)
	b := spanjoin.MustCompile(`.*x{ERRORS}.*`)
	u, err := spanjoin.Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// "ERRORS" contains "ERROR": the shorter factor stays necessary.
	if got := u.RequiredLiteral(); got != "ERROR" {
		t.Fatalf("union requires %q, want ERROR", got)
	}
	// Disjoint branches must require nothing — anything else would skip
	// documents that one branch matches.
	c := spanjoin.MustCompile(`.*x{disk}.*`)
	u2, err := spanjoin.Union(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if lits := u2.RequiredLiterals(); len(lits) != 0 {
		t.Fatalf("disjoint union requires %q, want nothing", lits)
	}
	// Soundness: the union still matches documents of either branch.
	for _, doc := range []string{"an ERROR here", "a disk there"} {
		ms, err := u2.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 {
			t.Fatalf("union on %q: %d matches, want 1", doc, len(ms))
		}
	}
}

// TestEvalQueryPrefilters is the regression test for the corpus fast path:
// equality-free query evaluation passed no requirement and scanned every
// document. It must now prefilter identically to a spanner target, under both
// the compiled fast path and the forced canonical per-document path.
func TestEvalQueryPrefilters(t *testing.T) {
	q := spanjoin.NewQuery().
		Atom(`.*x{ERROR}.*`).
		Atom(`.*y{disk}.*`).
		MustBuild()
	lits := q.RequiredLiterals()
	if !hasLiteral(lits, "ERROR") || !hasLiteral(lits, "disk") {
		t.Fatalf("query requires %q, want both ERROR and disk", lits)
	}

	c := spanjoin.NewCorpus(spanjoin.WithShards(2))
	match := c.Add("ERROR on disk")
	c.Add("ERROR alone")
	c.Add("disk alone")
	c.Add("neither")

	for _, opts := range [][]spanjoin.Option{
		nil, // fast path (equality-free, compiled once)
		{spanjoin.WithStrategy(spanjoin.StrategyCanonical)}, // per-document path
	} {
		ms, err := c.Eval(context.Background(), spanjoin.OfQuery(q), opts...)
		if err != nil {
			t.Fatal(err)
		}
		count := map[spanjoin.DocID]int{}
		for {
			m, ok := ms.Next()
			if !ok {
				break
			}
			count[m.Doc]++
		}
		if err := ms.Err(); err != nil {
			t.Fatal(err)
		}
		if len(count) != 1 || count[match] == 0 {
			t.Fatalf("opts %v: matched %v, want only doc %d", opts, count, match)
		}
		st := ms.Stats()
		if st.Scanned != 1 || st.Skipped != 3 {
			t.Fatalf("opts %v: stats = %+v, want 1 scanned / 3 skipped", opts, st)
		}
		// spanlint/closecheck: release each round's stream before the next.
		ms.Close()
	}
}

// matchKey renders a corpus/query match as var=span pairs, sorted, so two
// evaluations can be compared variable-by-variable regardless of internal
// column order.
func matchKey(m spanjoin.Match) string {
	vars := m.Vars()
	sort.Strings(vars)
	parts := make([]string, 0, len(vars))
	for _, v := range vars {
		p, ok := m.Span(v)
		if !ok {
			parts = append(parts, v+"=?")
			continue
		}
		parts = append(parts, v+"="+p.String())
	}
	return strings.Join(parts, " ")
}

// TestEvalQueryAgreesWithIterate: the corpus per-document path labels
// tuples with the query's OutVars; Query.Iterate labels them with the
// per-iterator vars. Both must agree variable-by-variable on every
// document, across canonical and automata strategies, with and without
// string equalities (the latter exercising the per-document plan).
func TestEvalQueryAgreesWithIterate(t *testing.T) {
	docs := []string{
		"ERROR on disk disk",
		"ERROR alone",
		"disk disk",
		"",
		"ERROR disk ERROR",
	}
	queries := map[string]*spanjoin.Query{
		"plain": spanjoin.NewQuery().
			Atom(`.*x{ERROR}.*`).
			Atom(`.*y{disk}.*`).
			MustBuild(),
		"projected": spanjoin.NewQuery().
			Atom(`.*x{ERROR}.*`).
			Atom(`.*y{disk}.*`).
			Project("x").
			MustBuild(),
		"equality": spanjoin.NewQuery().
			Atom(`.*x{disk}.*`).
			Atom(`.*y{disk}.*`).
			Equal("x", "y").
			MustBuild(),
	}
	strategies := map[string]spanjoin.Strategy{
		"canonical": spanjoin.StrategyCanonical,
		"automata":  spanjoin.StrategyAutomata,
	}
	for qname, q := range queries {
		for sname, strat := range strategies {
			c := spanjoin.NewCorpus(spanjoin.WithShards(3))
			ids := c.AddAll(docs...)
			ms, err := c.Eval(context.Background(), spanjoin.OfQuery(q), spanjoin.WithStrategy(strat))
			if err != nil {
				t.Fatal(err)
			}
			got := map[spanjoin.DocID]map[string]int{}
			for {
				m, ok := ms.Next()
				if !ok {
					break
				}
				if got[m.Doc] == nil {
					got[m.Doc] = map[string]int{}
				}
				got[m.Doc][matchKey(m.Match)]++
			}
			if err := ms.Err(); err != nil {
				t.Fatal(err)
			}
			// spanlint/closecheck: release the exhausted stream.
			ms.Close()
			for i, doc := range docs {
				it, err := q.Iterate(context.Background(), doc, spanjoin.WithStrategy(strat))
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]int{}
				for {
					m, ok := it.Next()
					if !ok {
						break
					}
					want[matchKey(m)]++
				}
				// spanlint/closecheck: a failure here must not read as exhaustion.
				if err := it.Err(); err != nil {
					t.Fatal(err)
				}
				have := got[ids[i]]
				if len(have) == 0 && len(want) == 0 {
					continue
				}
				if len(have) != len(want) {
					t.Fatalf("%s/%s doc %q: corpus %v, iterate %v", qname, sname, doc, have, want)
				}
				for k, n := range want {
					if have[k] != n {
						t.Fatalf("%s/%s doc %q: key %q corpus=%d iterate=%d", qname, sname, doc, k, have[k], n)
					}
				}
			}
		}
	}
}

// TestIndexedCorpusMatchesUnindexed: WithIndex must never change results,
// only reduce the scanned set.
func TestIndexedCorpusMatchesUnindexed(t *testing.T) {
	docs := []string{
		"an ERROR hit the disk", "all quiet", "ERROR ERROR", "disk spinning",
		"the ERRORS pile up on disk", "", "short", "ERR OR disk",
	}
	sp := spanjoin.MustCompileSearch(`x{ERROR}`)
	run := func(c *spanjoin.Corpus) (map[spanjoin.DocID]int, spanjoin.EvalStats) {
		ms, err := c.Eval(context.Background(), spanjoin.Of(sp))
		if err != nil {
			t.Fatal(err)
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		count := map[spanjoin.DocID]int{}
		for {
			m, ok := ms.Next()
			if !ok {
				break
			}
			count[m.Doc]++
		}
		if err := ms.Err(); err != nil {
			t.Fatal(err)
		}
		return count, ms.Stats()
	}
	plain := spanjoin.NewCorpus(spanjoin.WithShards(3))
	plainIDs := plain.AddAll(docs...)
	indexed := spanjoin.NewCorpus(spanjoin.WithShards(3), spanjoin.WithIndex())
	indexedIDs := indexed.AddAll(docs...)
	if !indexed.Indexed() || plain.Indexed() {
		t.Fatal("Indexed() flags wrong")
	}
	pc, pst := run(plain)
	ic, ist := run(indexed)
	for i := range docs {
		if pc[plainIDs[i]] != ic[indexedIDs[i]] {
			t.Fatalf("doc %q: plain %d matches, indexed %d", docs[i], pc[plainIDs[i]], ic[indexedIDs[i]])
		}
	}
	if pst.Scanned+pst.Skipped != uint64(len(docs)) || ist.Scanned+ist.Skipped != uint64(len(docs)) {
		t.Fatalf("stats don't cover the corpus: plain %+v indexed %+v", pst, ist)
	}
	if ist.Scanned > pst.Scanned {
		t.Fatalf("index scanned more than the full scan: %+v vs %+v", ist, pst)
	}
}

// TestUnionQueryRequiredLiterals: the UCQ-level prefilter keeps only
// factors every disjunct requires.
func TestUnionQueryRequiredLiterals(t *testing.T) {
	qa := spanjoin.NewQuery().Atom(`.*x{ERROR}.*`).MustBuild()
	qb := spanjoin.NewQuery().Atom(`.*x{ERRORS}.*`).MustBuild()
	u, err := spanjoin.NewUnion(qa, qb)
	if err != nil {
		t.Fatal(err)
	}
	if lits := u.RequiredLiterals(); !hasLiteral(lits, "ERROR") {
		t.Fatalf("union query requires %q, want ERROR", lits)
	}
	qc := spanjoin.NewQuery().Atom(`.*x{disk}.*`).MustBuild()
	u2, err := spanjoin.NewUnion(qa, qc)
	if err != nil {
		t.Fatal(err)
	}
	if lits := u2.RequiredLiterals(); len(lits) != 0 {
		t.Fatalf("disjoint union query requires %q, want nothing", lits)
	}
}
