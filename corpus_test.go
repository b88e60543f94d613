package spanjoin_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"spanjoin"
	"spanjoin/internal/oracle"
	"spanjoin/internal/span"
	"spanjoin/internal/workload"
)

// tupleOf projects a Match back onto a span.Tuple (aligned with the sorted
// variable list), so corpus output can be compared with the tuple-level
// oracles.
func tupleOf(m spanjoin.Match) span.Tuple {
	vars := m.Vars()
	t := make(span.Tuple, len(vars))
	for i, v := range vars {
		s, ok := m.Span(v)
		if !ok {
			panic("missing variable " + v)
		}
		t[i] = s
	}
	return t
}

// sameTupleMultiset compares tuple slices as multisets: same length and,
// after canonical sorting, pairwise equal — so a lost or duplicated result
// fails even when the set of distinct tuples agrees.
func sameTupleMultiset(a, b []span.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]span.Tuple(nil), a...), append([]span.Tuple(nil), b...)
	oracle.SortTuples(a)
	oracle.SortTuples(b)
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// evalAll drains the target's corpus Eval into its matches grouped by
// document; documents without matches have no entry.
func evalAll(t *testing.T, c *spanjoin.Corpus, target spanjoin.Target, opts ...spanjoin.Option) map[spanjoin.DocID][]spanjoin.Match {
	t.Helper()
	ms, err := c.Eval(context.Background(), target, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	out := make(map[spanjoin.DocID][]spanjoin.Match)
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		out[m.Doc] = append(out[m.Doc], m.Match)
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// pageCounts pages the target's result sequence one row at a time and
// tallies the rows per document. Every window is placed by subtracting
// the counts of the documents before it — for a cached pattern, the count
// memo's — so a document's tally is the count the corpus holds for it,
// and a wrong per-document count moves rows between documents even when
// the total still adds up.
func pageCounts(t *testing.T, c *spanjoin.Corpus, target spanjoin.Target) map[spanjoin.DocID]uint64 {
	t.Helper()
	ctx := context.Background()
	n, err := c.Count(ctx, target)
	if err != nil {
		t.Fatal(err)
	}
	total, _ := n.Uint64()
	out := make(map[spanjoin.DocID]uint64)
	var last spanjoin.DocID
	for off := uint64(0); off < total; off++ {
		pg, err := c.Page(ctx, target, off, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(pg.Matches) != 1 {
			t.Fatalf("page at offset %d of %d has %d rows", off, total, len(pg.Matches))
		}
		doc := pg.Matches[0].Doc
		if off > 0 && doc < last {
			t.Fatalf("offset %d: doc %d after doc %d", off, doc, last)
		}
		last = doc
		out[doc]++
	}
	return out
}

func drainByDoc(t *testing.T, ms *spanjoin.CorpusMatches) map[spanjoin.DocID][]span.Tuple {
	t.Helper()
	out := make(map[spanjoin.DocID][]span.Tuple)
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		out[m.Doc] = append(out[m.Doc], tupleOf(m.Match))
	}
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorpusEvalMatchesPerDocumentEval: Corpus.Eval must return, per
// document, exactly Spanner.Eval's result — same tuples, same per-document
// order — for every shard/worker geometry.
func TestCorpusEvalMatchesPerDocumentEval(t *testing.T) {
	r := workload.Rand(2024)
	var docs []string
	for i := 0; i < 30; i++ {
		docs = append(docs, workload.Document(r, workload.DocumentOptions{
			Sentences: 3, EmailRate: 0.5,
		}))
	}
	const pattern = `mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}}`
	sp := spanjoin.MustCompileSearch(pattern)
	for _, shards := range []int{1, 4, 16} {
		c := spanjoin.NewCorpus(spanjoin.WithShards(shards))
		ids := c.AddAll(docs...)
		ms, err := c.Eval(context.Background(), spanjoin.Search(pattern))
		if err != nil {
			t.Fatal(err)
		}
		got := drainByDoc(t, ms)
		for i, doc := range docs {
			ref, err := sp.Eval(doc)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]span.Tuple, len(ref))
			for k, m := range ref {
				want[k] = tupleOf(m)
			}
			have := got[ids[i]]
			if len(have) != len(want) {
				t.Fatalf("shards=%d doc %d: %d matches, want %d", shards, i, len(have), len(want))
			}
			for k := range want {
				if have[k].Compare(want[k]) != 0 {
					t.Fatalf("shards=%d doc %d: order differs at %d", shards, i, k)
				}
			}
		}
	}
}

// TestCorpusMatchBindsDocument: streamed matches must resolve substrings
// against their own document.
func TestCorpusMatchBindsDocument(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(3))
	c.AddAll("write to alice@example.org now", "or to bob@example.net instead", "no address here")
	ms, err := c.Eval(context.Background(), spanjoin.Search(`mail{[a-z]+@[a-z]+\.[a-z]+}`))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	found := map[string]bool{}
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		found[m.Match.MustSubstr("mail")] = true
		doc, ok := c.Doc(m.Doc)
		if !ok || !strings.Contains(doc, m.Match.MustSubstr("mail")) {
			t.Fatalf("match %q does not occur in its document %q", m.Match.MustSubstr("mail"), doc)
		}
	}
	// spanlint/closecheck: a failure here must not read as exhaustion.
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	// The unanchored pattern also matches sub-spans of each address; the
	// full addresses must be among them.
	if !found["alice@example.org"] || !found["bob@example.net"] {
		t.Fatalf("full addresses missing from %v", found)
	}
}

// TestCorpusCompiledQueryCache: repeated queries hit the cache, anchored
// and search compilations of one source do not collide, and a pattern
// asked for again after it left probation compiles once more, into
// protected, where new patterns passing through probation leave it.
func TestCorpusCompiledQueryCache(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithCacheCapacity(8)) // probation 1, protected 7
	c.AddAll("aaa", "aab")
	ctx := context.Background()
	docs := func(tg spanjoin.Target) int {
		t.Helper()
		ms, err := c.Eval(ctx, tg)
		if err != nil {
			t.Fatal(err)
		}
		return len(drainByDoc(t, ms))
	}
	for i := 0; i < 10; i++ {
		docs(spanjoin.Anchored(`x{a+}b?`))
	}
	st := c.CacheStats()
	if st.Misses != 1 || st.Hits != 9 {
		t.Fatalf("stats = %+v, want 1 miss / 9 hits", st)
	}
	if rate := st.HitRate(); rate < 0.89 {
		t.Fatalf("hit rate %.2f, want ≥ 0.9", rate)
	}
	// Same source, different mode: distinct artifacts.
	na, ns := docs(spanjoin.Anchored(`x{a+}`)), docs(spanjoin.Search(`x{a+}`))
	if na != 1 || ns != 2 { // anchored matches only "aaa"; search matches both
		t.Fatalf("anchored matched %d docs, search %d; want 1 and 2", na, ns)
	}
	// Each new key took the one probation slot, so only the search
	// compile is resident; the other two are ghosts.
	if st := c.CacheStats(); st.Resident != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 resident after 3 misses", st)
	}
	docs(spanjoin.Anchored(`x{a+}b?`)) // a ghost: compiled again, into protected
	for i := 1; i <= 20; i++ {
		docs(spanjoin.Anchored(`x{a+}` + strings.Repeat("b?", i+1)))
	}
	before := c.CacheStats()
	docs(spanjoin.Anchored(`x{a+}b?`))
	if st := c.CacheStats(); st.Misses != before.Misses || st.Hits != before.Hits+1 {
		t.Fatalf("after 20 new patterns x{a+}b? missed: %+v, then %+v", before, st)
	}
	if st := c.CacheStats(); st.Resident != 2 || st.Misses != 24 {
		t.Fatalf("stats = %+v, want 2 resident (x{a+}b? protected, the newest pattern in probation) after 24 misses", st)
	}
}

func TestCorpusEvalCompileError(t *testing.T) {
	c := spanjoin.NewCorpus()
	if _, err := c.Eval(context.Background(), spanjoin.Anchored(`x{a}|y{b}`)); err == nil {
		t.Fatal("non-functional pattern must fail to compile")
	}
	// The error must not be cached: a later valid pattern with the same
	// prefix still works, and the bad key re-compiles (and re-fails).
	if _, err := c.Eval(context.Background(), spanjoin.Anchored(`x{a}|y{b}`)); err == nil {
		t.Fatal("second compile must fail too")
	}
	if st := c.CacheStats(); st.Resident != 0 {
		t.Fatalf("failed compilations must not be cached; resident = %d", st.Resident)
	}
}

// TestCorpusEvalQueryBothPlans: the compiled fast path (no equalities) and
// the per-document plan (equalities / forced canonical) must agree with
// Query.Evaluate on every document.
func TestCorpusEvalQueryBothPlans(t *testing.T) {
	docs := []string{"abab", "aabb", "ba", "abba", ""}
	ctx := context.Background()

	plain := spanjoin.NewQuery().
		AtomNamed("xs", `(a|b)*x{a+}(a|b)*`).
		AtomNamed("ys", `(a|b)*y{b+}(a|b)*`).
		MustBuild()
	eq := spanjoin.NewQuery().
		AtomNamed("pair", `(a|b)*x{(a|b)+}(a|b)*y{(a|b)+}(a|b)*`).
		Equal("x", "y").
		MustBuild()

	cases := []struct {
		name string
		q    *spanjoin.Query
		opts []spanjoin.Option
	}{
		{"compiled-fast-path", plain, nil},
		{"forced-canonical", plain, []spanjoin.Option{spanjoin.WithStrategy(spanjoin.StrategyCanonical)}},
		{"equalities-per-doc", eq, nil},
	}
	for _, tc := range cases {
		c := spanjoin.NewCorpus(spanjoin.WithShards(3))
		ids := c.AddAll(docs...)
		// Two passes: the second reuses the Query's memoized compilation
		// artifacts and must agree with the first.
		for pass := 0; pass < 2; pass++ {
			ms, err := c.Eval(ctx, spanjoin.OfQuery(tc.q), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := drainByDoc(t, ms)
			for i, doc := range docs {
				ref, err := tc.q.Evaluate(doc, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]span.Tuple, len(ref))
				for k, m := range ref {
					want[k] = tupleOf(m)
				}
				if !sameTupleMultiset(got[ids[i]], want) {
					t.Fatalf("%s pass %d doc %q: corpus %v, per-doc %v", tc.name, pass, doc, got[ids[i]], want)
				}
			}
		}
	}
}

// TestCorpusEvalCancellation: a cancelled context must end the stream and
// surface through Err.
func TestCorpusEvalCancellation(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(4), spanjoin.WithResultBuffer(1))
	big := strings.Repeat("a", 300)
	for i := 0; i < 16; i++ {
		c.Add(big)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ms, err := c.Eval(ctx, spanjoin.Anchored(`a*x{a*}a*`))
	if err != nil {
		t.Fatal(err)
	}
	// spanlint/closecheck: release the stream's pool slot.
	defer ms.Close()
	for i := 0; i < 5; i++ {
		if _, ok := ms.Next(); !ok {
			t.Fatal("stream ended before cancel")
		}
	}
	cancel()
	for {
		if _, ok := ms.Next(); !ok {
			break
		}
	}
	if err := ms.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
}

func TestCorpusEvalAll(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(2))
	ids := c.AddAll("aa", "b", "a")
	got := evalAll(t, c, spanjoin.Anchored(`x{a+}`))
	if len(got) != 2 || len(got[ids[0]]) != 1 || len(got[ids[2]]) != 1 {
		t.Fatalf("evalAll = %v", got)
	}
	if _, ok := got[ids[1]]; ok {
		t.Fatal("non-matching document must have no entry")
	}
}

// TestCorpusMethodSet pins *Corpus's exported methods: four operations
// over a Target (Eval, Count, Page, Sample) plus EvalCursor, so a
// per-mode or per-input variant cannot grow back unnoticed.
func TestCorpusMethodSet(t *testing.T) {
	want := []string{
		"Add", "AddAll", "AddErrCtx", "CacheStats", "Close", "Count",
		"CountSearch", "Doc", "Durable", "DurabilityStats", "Eval",
		"EvalCursor", "GateStats", "Indexed", "Len", "Metrics",
		"NumShards", "Page", "Sample", "SampleSearch", "Snapshot", "Sync",
	}
	typ := reflect.TypeOf((*spanjoin.Corpus)(nil))
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("*Corpus methods:\n got %v\nwant %v", got, want)
	}
}

// TestEmptyTargetFails: the zero Target, Of(nil), OfQuery(nil) and
// OfUnion(nil) name nothing, so every operation fails on them — none
// compiles anything.
func TestEmptyTargetFails(t *testing.T) {
	c := spanjoin.NewCorpus()
	c.AddAll("", "a")
	ctx := context.Background()
	for _, target := range []spanjoin.Target{{}, spanjoin.Of(nil), spanjoin.OfQuery(nil), spanjoin.OfUnion(nil)} {
		if _, err := c.Eval(ctx, target); err == nil {
			t.Error("Eval of an empty target succeeded")
		}
		if _, err := c.Count(ctx, target); err == nil {
			t.Error("Count of an empty target succeeded")
		}
		if _, err := c.Page(ctx, target, 0, 1); err == nil {
			t.Error("Page of an empty target succeeded")
		}
		if _, err := c.Sample(ctx, target, rand.New(rand.NewSource(1)), 1); err == nil {
			t.Error("Sample of an empty target succeeded")
		}
	}
	if st := c.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("empty targets reached the compile cache: %+v", st)
	}
}
