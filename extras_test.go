package spanjoin_test

import (
	"strings"
	"testing"

	"spanjoin"
	"spanjoin/internal/alloctest"
)

func TestCompileSearch(t *testing.T) {
	sp := spanjoin.MustCompileSearch("x{ab}")
	ms, err := sp.Eval("zzabzzabz")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d matches, want 2", len(ms))
	}
	// Equivalent to explicit padding.
	padded := spanjoin.MustCompile(".*x{ab}.*")
	ps, err := padded.Eval("zzabzzabz")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != len(ms) {
		t.Errorf("CompileSearch disagrees with .* padding: %d vs %d", len(ms), len(ps))
	}
	if _, err := spanjoin.CompileSearch("x{a}|y{b}"); err == nil {
		t.Error("non-functional search pattern must be rejected")
	}
}

func TestMatchesAt(t *testing.T) {
	sp := spanjoin.MustCompileSearch("x{a+}")
	doc := "baaab"
	cases := []struct {
		span spanjoin.Span
		want bool
	}{
		{spanjoin.Span{Start: 2, End: 5}, true},  // "aaa"
		{spanjoin.Span{Start: 2, End: 4}, true},  // "aa"
		{spanjoin.Span{Start: 3, End: 4}, true},  // "a"
		{spanjoin.Span{Start: 1, End: 2}, false}, // "b"
		{spanjoin.Span{Start: 2, End: 2}, false}, // empty (a+ needs one)
		{spanjoin.Span{Start: 9, End: 9}, false}, // out of range
	}
	for _, tc := range cases {
		got, err := sp.MatchesAt(doc, map[string]spanjoin.Span{"x": tc.span})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("MatchesAt(%v) = %v, want %v", tc.span, got, tc.want)
		}
	}
	// Wrong schema.
	if _, err := sp.MatchesAt(doc, map[string]spanjoin.Span{"y": {Start: 1, End: 1}}); err == nil {
		t.Error("missing variable must error")
	}
	if _, err := sp.MatchesAt(doc, nil); err == nil {
		t.Error("empty assignment must error")
	}
}

func TestMatchesAtAgreesWithEval(t *testing.T) {
	sp := spanjoin.MustCompileSearch("x{[ab]+}y{c}")
	doc := "xabcx"
	ms, err := sp.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		x, _ := m.Span("x")
		y, _ := m.Span("y")
		ok, err := sp.MatchesAt(doc, map[string]spanjoin.Span{"x": x, "y": y})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("enumerated match %v rejected by MatchesAt", m)
		}
	}
	// A non-match: y not adjacent to x.
	ok, err := sp.MatchesAt(doc, map[string]spanjoin.Span{
		"x": {Start: 2, End: 3}, "y": {Start: 4, End: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("non-adjacent pair should be rejected")
	}
}

func TestEqualAll(t *testing.T) {
	doc := "ab ab ab"
	q, err := spanjoin.NewQuery().
		AtomNamed("three", `x{..} y{..} z{..}`).
		EqualAll("x", "y", "z").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	ms, err := q.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	if ms[0].MustSubstr("x") != "ab" || ms[0].MustSubstr("z") != "ab" {
		t.Errorf("bad match %v", ms[0])
	}
	if _, err := spanjoin.NewQuery().Atom("x{a}").EqualAll("x").Build(); err == nil {
		t.Error("EqualAll with one variable must fail")
	}
}

func TestQueryCount(t *testing.T) {
	q := spanjoin.NewQuery().Atom("a*x{a}a*").MustBuild()
	n, err := q.Count("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := n.Uint64(); !ok || u != 4 {
		t.Errorf("Count = %v, want 4", n)
	}
}

func TestRequiredLiteralPrefilter(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{Belgium}.*")
	if got := sp.RequiredLiteral(); got != "Belgium" {
		t.Fatalf("RequiredLiteral = %q", got)
	}
	// A document without the literal: fast-path empty result.
	ms, err := sp.Eval("nothing to see in France")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("prefilter returned %d matches", len(ms))
	}
	// A document with the literal: normal evaluation.
	ms, err = sp.Eval("visit Belgium soon")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Errorf("got %d matches, want 1", len(ms))
	}
	// Patterns without a derivable literal must evaluate everywhere.
	free := spanjoin.MustCompile("x{.*}")
	if free.RequiredLiteral() != "" {
		t.Errorf("wildcard pattern should have no required literal")
	}
}

func TestPrefilterNeverChangesResults(t *testing.T) {
	// Cross-check: for documents with and without the factor, the result
	// must equal the automaton evaluation without the filter.
	pattern := ".*k{ERROR}.*"
	sp := spanjoin.MustCompile(pattern)
	for _, doc := range []string{"", "ok", "an ERROR here", "ERRO R"} {
		got, err := sp.Eval(doc)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Count(doc, "ERROR")
		if len(got) != want {
			t.Errorf("doc %q: %d matches, want %d", doc, len(got), want)
		}
	}
}

func TestPlannedStrategy(t *testing.T) {
	// Acyclic, single-variable atoms: Auto resolves to canonical.
	chain := spanjoin.NewQuery().
		Atom(".*x{ERROR}.*").
		Atom(".*x{[A-Z]+}.*").
		MustBuild()
	if got := chain.PlannedStrategy(); got != spanjoin.StrategyCanonical {
		t.Errorf("chain planned %v, want canonical", got)
	}
	// Cyclic shape: automata.
	tri := spanjoin.NewQuery().
		Atom(".*x{a}y{b}.*").
		Atom(".*y{b}z{a}.*").
		Atom(".*x{a}.*z{a}.*").
		MustBuild()
	if got := tri.PlannedStrategy(); got != spanjoin.StrategyAutomata {
		t.Errorf("triangle planned %v, want automata", got)
	}
	// Unbounded atoms (no key attribute, many vars): automata.
	wide := spanjoin.NewQuery().
		Atom(".*x{.}.*y{.}.*").
		MustBuild()
	if got := wide.PlannedStrategy(); got != spanjoin.StrategyAutomata {
		t.Errorf("wide planned %v, want automata", got)
	}
	// Key-attributed multi-var atom: canonical (x pins y).
	keyed := spanjoin.NewQuery().
		Atom(".*x{a}y{b}.*").
		MustBuild()
	if got := keyed.PlannedStrategy(); got != spanjoin.StrategyCanonical {
		t.Errorf("keyed planned %v, want canonical", got)
	}
	// Forced strategy passes through.
	if got := keyed.PlannedStrategy(spanjoin.WithStrategy(spanjoin.StrategyAutomata)); got != spanjoin.StrategyAutomata {
		t.Errorf("forced strategy not honored: %v", got)
	}
}

// TestAutoPlansOncePerQuery: the Auto planner's verdict is memoized on the
// query, so Evaluate under Auto allocates what the same Evaluate under the
// strategy Auto resolves to does, not a key-attribute product per
// multi-variable atom per call.
func TestAutoPlansOncePerQuery(t *testing.T) {
	q := spanjoin.NewQuery().
		Atom(`.*x{[a-z]+}@y{[a-z]+}.*`).
		Atom(`.*y{[a-z]+}\.z{[a-z]+}.*`).
		MustBuild()
	doc := " write to alice@example.org and bob@corp.net today "
	eval := func(opts ...spanjoin.Option) func() {
		return func() {
			if _, err := q.Evaluate(doc, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	auto := alloctest.Run(t, 50, eval())
	forced := alloctest.Run(t, 50, eval(spanjoin.WithStrategy(spanjoin.StrategyAutomata)))
	if got := q.PlannedStrategy(); got != spanjoin.StrategyAutomata {
		t.Fatalf("Auto planned %v, want automata", got)
	}
	if auto > forced+2 {
		t.Fatalf("Evaluate allocates %.0f times under Auto, %.0f under StrategyAutomata", auto, forced)
	}
}
