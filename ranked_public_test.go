package spanjoin_test

import (
	"context"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"spanjoin"
)

// evalRef materializes the reference result list via plain iteration.
func evalRef(t *testing.T, sp *spanjoin.Spanner, doc string) []spanjoin.Match {
	t.Helper()
	ms, err := sp.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestSpannerCountVsEval(t *testing.T) {
	cases := []struct{ pattern, doc string }{
		{"a*x{a*}a*", "aaaa"},
		{".*x{a+}.*", strings.Repeat("a", 40)},
		{".*x{a+}.*y{b+}.*", "aabbab"},
		{"x{.*}y{.*}", "abcde"},
		{".*mail{[a-z]+@[a-z]+}.*", "no address here"},
		{"(a|b)*x{(a|b)+}(a|b)*", ""},
	}
	for _, c := range cases {
		sp := spanjoin.MustCompile(c.pattern)
		want := evalRef(t, sp, c.doc)
		n, err := sp.Count(c.doc)
		if err != nil {
			t.Fatal(err)
		}
		if u, ok := n.Uint64(); !ok || u != uint64(len(want)) {
			t.Errorf("%s on %q: Count = %v, Eval found %d", c.pattern, c.doc, n, len(want))
		}
	}
}

func TestRankedResultAtAndPageVsIterate(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{a+}.*y{b+}.*")
	doc := "aabbaabb"
	want := evalRef(t, sp, doc)
	if len(want) < 10 {
		t.Fatalf("weak test instance: only %d matches", len(want))
	}
	r, err := sp.Ranked(doc)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := r.Count().Uint64(); !ok || u != uint64(len(want)) {
		t.Fatalf("Count = %v, want %d", r.Count(), len(want))
	}
	for i := range want {
		m, ok := r.ResultAt(uint64(i))
		if !ok {
			t.Fatalf("ResultAt(%d) failed below Count", i)
		}
		if matchKey(m) != matchKey(want[i]) {
			t.Fatalf("ResultAt(%d) = %v, want %v", i, m, want[i])
		}
	}
	if _, ok := r.ResultAt(uint64(len(want))); ok {
		t.Fatal("ResultAt(Count) must fail")
	}
	// Pages in arbitrary order, including a ragged final page.
	for _, pg := range []struct {
		offset uint64
		limit  int
	}{{0, 3}, {7, 4}, {uint64(len(want) - 2), 10}, {3, 1}} {
		got := r.Page(pg.offset, pg.limit)
		wantLen := len(want) - int(pg.offset)
		if wantLen > pg.limit {
			wantLen = pg.limit
		}
		if len(got) != wantLen {
			t.Fatalf("Page(%d,%d): %d matches, want %d", pg.offset, pg.limit, len(got), wantLen)
		}
		for k := range got {
			if matchKey(got[k]) != matchKey(want[int(pg.offset)+k]) {
				t.Fatalf("Page(%d,%d)[%d] = %v, want %v", pg.offset, pg.limit, k, got[k], want[int(pg.offset)+k])
			}
		}
	}
	if got := r.Page(uint64(len(want)), 5); got != nil {
		t.Fatalf("Page past the end returned %d matches", len(got))
	}
}

// TestMatchesSkipVsNext: Skip(k) then draining equals the tuple suffix —
// the Skip-vs-Next differential — on the ranked fast path.
func TestMatchesSkipVsNext(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{a+}.*")
	doc := strings.Repeat("ab", 30) // 30 matches: skips land on both sides of the step threshold
	want := evalRef(t, sp, doc)
	for _, k := range []uint64{0, 1, 5, 20, uint64(len(want) - 1), uint64(len(want)), uint64(len(want)) + 100} {
		it, err := sp.Iterate(context.Background(), doc)
		if err != nil {
			t.Fatal(err)
		}
		skipped := it.Skip(k)
		wantSkip := k
		if k > uint64(len(want)) {
			wantSkip = uint64(len(want))
		}
		if skipped != wantSkip {
			t.Fatalf("Skip(%d) reported %d, want %d", k, skipped, wantSkip)
		}
		var rest []spanjoin.Match
		for {
			m, ok := it.Next()
			if !ok {
				break
			}
			rest = append(rest, m)
		}
		// spanlint/closecheck: a failure here must not read as exhaustion.
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if len(rest) != len(want)-int(wantSkip) {
			t.Fatalf("after Skip(%d): %d matches, want %d", k, len(rest), len(want)-int(wantSkip))
		}
		for i := range rest {
			if matchKey(rest[i]) != matchKey(want[int(wantSkip)+i]) {
				t.Fatalf("after Skip(%d) match %d diverges", k, i)
			}
		}
	}

	// Skip composes with prior Next calls (absolute position tracking).
	it, err := sp.Iterate(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	it.Next()
	it.Next()
	it.Skip(3)
	m, ok := it.Next()
	if !ok || matchKey(m) != matchKey(want[5]) {
		t.Fatalf("Next,Next,Skip(3),Next = %v, want match 5 %v", m, want[5])
	}
	// spanlint/closecheck: the stepped iterator must not have faulted.
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestMatchesSkipFallback covers the drain fallback on iterators that are
// not enumerator-backed (a canonical query plan).
func TestMatchesSkipFallback(t *testing.T) {
	q := spanjoin.NewQuery().Atom("a*x{a}a*").MustBuild()
	doc := "aaaaa"
	all, err := q.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		t.Fatal(err)
	}
	it, err := q.Iterate(context.Background(), doc, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Skip(2); got != 2 {
		t.Fatalf("fallback Skip(2) = %d", got)
	}
	m, ok := it.Next()
	if !ok || matchKey(m) != matchKey(all[2]) {
		t.Fatalf("after fallback skip: %v, want %v", m, all[2])
	}
	// spanlint/closecheck: the fallback iterator must not have faulted.
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSpannerSample(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{a+}.*")
	doc := strings.Repeat("a", 30)
	want := evalRef(t, sp, doc)
	keys := make(map[string]bool, len(want))
	for _, m := range want {
		keys[matchKey(m)] = true
	}
	ms, err := sp.Sample(doc, rand.New(rand.NewSource(1)), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 64 {
		t.Fatalf("Sample returned %d matches", len(ms))
	}
	distinct := map[string]bool{}
	for _, m := range ms {
		k := matchKey(m)
		if !keys[k] {
			t.Fatalf("sampled non-result %v", m)
		}
		distinct[k] = true
	}
	// 64 draws from 465 results: collisions allowed, degeneracy not.
	if len(distinct) < 16 {
		t.Fatalf("only %d distinct samples in 64 draws (seeded)", len(distinct))
	}
	// Same seed, same draw sequence.
	again, err := sp.Sample(doc, rand.New(rand.NewSource(1)), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if matchKey(ms[i]) != matchKey(again[i]) {
			t.Fatal("seeded sampling is not deterministic")
		}
	}
	// No matches → nil.
	none, err := sp.Sample("bbbb", rand.New(rand.NewSource(1)), 4)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Fatalf("Sample on an empty result set returned %d matches", len(none))
	}
}

// TestSpannerCountOverflow is the public face of the uint64-overflow
// acceptance case: k ordered disjoint spans over aᵐ count to the closed
// form C(m+k, 2k), here ≈ 3.9·10²⁸.
func TestSpannerCountOverflow(t *testing.T) {
	const k, m = 12, 200
	var sb strings.Builder
	sb.WriteString("a*")
	for i := 0; i < k; i++ {
		sb.WriteString("x")
		sb.WriteByte(byte('a' + i))
		sb.WriteString("{a+}a*")
	}
	sp := spanjoin.MustCompile(sb.String())
	n, err := sp.Count(strings.Repeat("a", m))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Uint64(); ok {
		t.Fatalf("count %v unexpectedly fits uint64", n)
	}
	want := new(big.Int).Binomial(m+k, 2*k)
	if n.BigInt().Cmp(want) != 0 {
		t.Fatalf("Count = %v, want C(%d,%d) = %v", n, m+k, 2*k, want)
	}
	if n.String() != want.String() {
		t.Fatalf("String = %q, want %q", n.String(), want.String())
	}
	// Ranks beyond uint64 stay addressable through ResultAtBig.
	r, err := sp.Ranked(strings.Repeat("a", m))
	if err != nil {
		t.Fatal(err)
	}
	deep := new(big.Int).Lsh(big.NewInt(1), 64) // rank 2^64
	mt, ok := r.ResultAtBig(deep)
	if !ok {
		t.Fatal("ResultAtBig(2^64) failed below Count")
	}
	if len(mt.Vars()) != k {
		t.Fatalf("deep match has %d vars, want %d", len(mt.Vars()), k)
	}
	if _, ok := r.ResultAtBig(want); ok {
		t.Fatal("ResultAtBig(Count) must fail")
	}
	if _, ok := r.ResultAtBig(big.NewInt(-1)); ok {
		t.Fatal("ResultAtBig(-1) must fail")
	}
}

// TestQueryCountStrategies: the ranked fast path and both drain paths
// must agree, with and without string equalities.
func TestQueryCountStrategies(t *testing.T) {
	q := spanjoin.NewQuery().
		Atom(".*x{[a-z]+}@.*").
		Atom(".*@y{[a-z]+}.*").
		MustBuild()
	doc := "ab@cd"
	ref, err := q.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := q.Count(doc)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := fast.Uint64(); !ok || u != uint64(len(ref)) {
		t.Fatalf("ranked Count = %v, automata Evaluate found %d", fast, len(ref))
	}
	canon, err := q.Count(doc, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		t.Fatal(err)
	}
	if canon.String() != fast.String() {
		t.Fatalf("canonical Count %v != ranked Count %v", canon, fast)
	}

	eq := spanjoin.NewQuery().
		Atom(".*x{a+}.*y{a+}.*").
		Equal("x", "y").
		MustBuild()
	eqDoc := "aabaa"
	eqRef, err := eq.Evaluate(eqDoc)
	if err != nil {
		t.Fatal(err)
	}
	eqCount, err := eq.Count(eqDoc)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := eqCount.Uint64(); !ok || u != uint64(len(eqRef)) {
		t.Fatalf("equality Count = %v, Evaluate found %d", eqCount, len(eqRef))
	}
}
