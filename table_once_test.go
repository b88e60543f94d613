package spanjoin_test

import (
	"context"
	"testing"

	"spanjoin"
	"spanjoin/internal/vsa"
)

func drainCorpus(t *testing.T, ms *spanjoin.CorpusMatches) int {
	t.Helper()
	n := 0
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
		n++
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCompiledTableBuiltOncePerCachedQuery asserts — via the construction
// counter, not by inspection — that the byte-class transition table is
// built exactly once per cached corpus query: repeated Eval calls on one
// corpus hit the compiled-query cache, whose Spanner memoizes its plan.
// OfQuery and OfUnion targets memoize theirs on the query.
func TestCompiledTableBuiltOncePerCachedQuery(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithWorkers(3))
	c.AddAll("aab", "abab", "bb", "aaaa", "ba")

	pattern := `(a|b)*x{a+}(a|b)*`
	before := vsa.TableBuildCount()
	ms, err := c.Eval(context.Background(), spanjoin.Anchored(pattern))
	if err != nil {
		t.Fatal(err)
	}
	first := drainCorpus(t, ms)
	if first == 0 {
		t.Fatal("test pattern matched nothing")
	}
	for i := 0; i < 3; i++ {
		ms, err := c.Eval(context.Background(), spanjoin.Anchored(pattern))
		if err != nil {
			t.Fatal(err)
		}
		if n := drainCorpus(t, ms); n != first {
			t.Fatalf("repeat eval %d returned %d matches, first returned %d", i, n, first)
		}
	}
	if got := vsa.TableBuildCount() - before; got != 1 {
		t.Fatalf("transition table built %d times across 4 cached evaluations, want exactly 1", got)
	}
	if st := c.CacheStats(); st.Hits < 3 {
		t.Fatalf("cache hits = %d, want ≥ 3 (the table-once guarantee rides on the cache)", st.Hits)
	}

	// An equality-free OfQuery target memoizes its plan on the Query.
	q := spanjoin.NewQuery().Atom(`(a|b)*x{a+}(a|b)*`).MustBuild()
	before = vsa.TableBuildCount()
	qm1, err := c.Eval(context.Background(), spanjoin.OfQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	n1 := drainCorpus(t, qm1)
	qm2, err := c.Eval(context.Background(), spanjoin.OfQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	n2 := drainCorpus(t, qm2)
	if n1 != n2 {
		t.Fatalf("repeated Eval of the query disagrees: %d vs %d", n1, n2)
	}
	if got := vsa.TableBuildCount() - before; got != 1 {
		t.Fatalf("query plan's table built %d times across 2 evaluations, want exactly 1", got)
	}

	// So does an equality-free OfUnion target, on the UnionQuery.
	u, err := spanjoin.NewUnion(q, spanjoin.NewQuery().Atom(`(a|b)*x{b}(a|b)*`).MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	before = vsa.TableBuildCount()
	var counts [3]int
	for i := range counts {
		um, err := c.Eval(context.Background(), spanjoin.OfUnion(u))
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = drainCorpus(t, um)
	}
	if counts[0] <= n1 || counts[1] != counts[0] || counts[2] != counts[0] {
		t.Fatalf("union Evals returned %v matches; want equal counts above the query's %d", counts, n1)
	}
	if got := vsa.TableBuildCount() - before; got != 1 {
		t.Fatalf("union plan's table built %d times across 3 evaluations, want exactly 1", got)
	}
}

// TestZeroCandidateQueryBuildsNoTable: a fresh pattern whose required
// literal no document contains visits no document — the skip index
// excludes them all — so its plan never needs, and never builds, the
// kernels built on first use: the letter table and the transition table
// (built under one guard). Neither the count nor the page path may build
// them.
func TestZeroCandidateQueryBuildsNoTable(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithIndex())
	c.AddAll("alice sent mail", "bob read mail", "carol", "")

	before := vsa.TableBuildCount()
	n, err := c.Count(context.Background(), spanjoin.Search(`x{zebra}`))
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := n.Uint64(); !ok || u != 0 {
		t.Fatalf("Count = %v, want 0", n)
	}
	pg, err := c.Page(context.Background(), spanjoin.Search(`y{quokka} z{[a-z]+}`), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Matches) != 0 || pg.Stats.Scanned != 0 {
		t.Fatalf("page = %d matches, %d scanned; want none", len(pg.Matches), pg.Stats.Scanned)
	}
	if got := vsa.TableBuildCount() - before; got != 0 {
		t.Fatalf("zero-candidate queries built %d transition tables, want 0", got)
	}
	// The control: a query with a candidate builds its kernels once.
	if _, err := c.Count(context.Background(), spanjoin.Search(`x{mail}`)); err != nil {
		t.Fatal(err)
	}
	if got := vsa.TableBuildCount() - before; got != 1 {
		t.Fatalf("a swept query built %d transition tables, want 1", got)
	}
}
