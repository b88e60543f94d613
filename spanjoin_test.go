package spanjoin_test

import (
	"context"
	"strings"
	"testing"

	"spanjoin"
)

func TestCompileAndEval(t *testing.T) {
	sp := spanjoin.MustCompile(`.* mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}} .*`)
	doc := " write to alice@example.org or bob@dev.net today "
	ms, err := sp.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range ms {
		got[m.MustSubstr("mail")] = true
		u, _ := m.Substr("user")
		d, _ := m.Substr("domain")
		if m.MustSubstr("mail") != u+"@"+d {
			t.Errorf("mail != user@domain: %v", m)
		}
	}
	if !got["alice@example.org"] || !got["bob@dev.net"] {
		t.Errorf("extracted %v", got)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := spanjoin.Compile("x{a}|y{b}"); err == nil {
		t.Error("non-functional pattern must be rejected")
	}
	if _, err := spanjoin.Compile("(unclosed"); err == nil {
		t.Error("syntax error must be rejected")
	}
}

func TestMatchAccessors(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{ab}.*")
	ms, err := sp.Eval("zabz")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("got %d matches", len(ms))
	}
	m := ms[0]
	p, ok := m.Span("x")
	if !ok || p.Start != 2 || p.End != 4 {
		t.Errorf("Span(x) = %v, %v", p, ok)
	}
	if _, ok := m.Span("nope"); ok {
		t.Error("unknown variable should report !ok")
	}
	if s := m.String(); !strings.Contains(s, "x=") || !strings.Contains(s, `"ab"`) {
		t.Errorf("String() = %q", s)
	}
	if vars := m.Vars(); len(vars) != 1 || vars[0] != "x" {
		t.Errorf("Vars() = %v", vars)
	}
}

func TestMustSubstrPanics(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{a}.*")
	ms, _ := sp.Eval("a")
	defer func() {
		if recover() == nil {
			t.Error("MustSubstr on unknown variable should panic")
		}
	}()
	ms[0].MustSubstr("ghost")
}

func TestIterateStreaming(t *testing.T) {
	sp := spanjoin.MustCompile("a*x{a*}a*")
	it, err := sp.Iterate(context.Background(), "aaaa")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		n++
	}
	// spanlint/closecheck: a failure here must not read as exhaustion.
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 15 { // spans of a 4-char string: 5·6/2
		t.Errorf("got %d matches, want 15", n)
	}
}

func TestAlgebra(t *testing.T) {
	a := spanjoin.MustCompile(".*x{a+}.*")
	b := spanjoin.MustCompile(".*x{aa}.*")
	j, err := spanjoin.Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := j.Eval("aaa")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.MustSubstr("x") != "aa" {
			t.Errorf("join should pin x to aa runs, got %q", m.MustSubstr("x"))
		}
	}
	if len(ms) != 2 {
		t.Errorf("got %d joined matches, want 2", len(ms))
	}

	u, err := spanjoin.Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ums, err := u.Eval("aaa")
	if err != nil {
		t.Fatal(err)
	}
	ams, _ := a.Eval("aaa")
	if len(ums) != len(ams) { // b's results are a subset of a's
		t.Errorf("union: %d, want %d", len(ums), len(ams))
	}

	two := spanjoin.MustCompile(".*x{a}y{b}.*")
	p, err := spanjoin.Project(two, "x")
	if err != nil {
		t.Fatal(err)
	}
	if vars := p.Vars(); len(vars) != 1 || vars[0] != "x" {
		t.Errorf("projected vars = %v", vars)
	}
}

func TestKeyAttribute(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{a}y{b}.*")
	ok, err := sp.KeyAttribute("x")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("x should be a key attribute")
	}
	sp2 := spanjoin.MustCompile(".*x{a}.*y{b}.*")
	ok, err = sp2.KeyAttribute("x")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("x should not be a key attribute")
	}
}

func TestQueryBuilder(t *testing.T) {
	doc := "tok tok end"
	q, err := spanjoin.NewQuery().
		AtomNamed("first", `x{[a-z]+} .*`).
		AtomNamed("second", `.* y{[a-z]+} .*|.* y{[a-z]+}`).
		Equal("x", "y").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []spanjoin.Strategy{spanjoin.StrategyCanonical, spanjoin.StrategyAutomata} {
		ms, err := q.Evaluate(doc, spanjoin.WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range ms {
			x := m.MustSubstr("x")
			y := m.MustSubstr("y")
			if x != y {
				t.Errorf("ζ= violated: %q vs %q", x, y)
			}
			if x == "tok" {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: expected tok=tok pair", strat)
		}
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	if _, err := spanjoin.NewQuery().Build(); err == nil {
		t.Error("empty query must fail")
	}
	if _, err := spanjoin.NewQuery().Atom("x{a}x{a}").Build(); err == nil {
		t.Error("non-functional atom must fail")
	}
	if _, err := spanjoin.NewQuery().Atom("x{a}").Project("ghost").Build(); err == nil {
		t.Error("projection on unbound variable must fail")
	}
	if _, err := spanjoin.NewQuery().Atom("x{a}").Equal("x", "ghost").Build(); err == nil {
		t.Error("equality on unbound variable must fail")
	}
}

// TestBooleanQueryExists: Project() with no variables builds a Boolean
// query — no output variables, and one empty match on a document where
// the join holds however many joined tuples it has — under every strategy.
func TestBooleanQueryExists(t *testing.T) {
	q := spanjoin.NewQuery().
		Atom(".*x{Belgium}.*").
		Atom(".*y{police}.*").
		Project().
		MustBuild()
	if vars := q.Vars(); len(vars) != 0 {
		t.Fatalf("Vars = %v, want none", vars)
	}
	const twice = "Belgium police, Belgium police" // 4 joined (x, y) tuples
	for _, st := range []spanjoin.Strategy{spanjoin.StrategyAuto, spanjoin.StrategyCanonical, spanjoin.StrategyAutomata} {
		ms, err := q.Evaluate(twice, spanjoin.WithStrategy(st))
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 1 || len(ms[0].Vars()) != 0 {
			t.Fatalf("%v: Evaluate = %v, want one empty match", st, ms)
		}
		if n, err := q.Count(twice, spanjoin.WithStrategy(st)); err != nil || n.String() != "1" {
			t.Fatalf("%v: Count = %v, %v; want 1", st, n, err)
		}
	}
	ok, err := q.Exists("near Belgium police station")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("expected true")
	}
	ok, err = q.Exists("near France police station")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("expected false")
	}
}

// TestBuiltQueryIgnoresLaterBuilderCalls: Build copies the builder's
// query, so atoms and a projection added afterwards leave the built
// query's Evaluate and Count — the canonical plan and the memoized
// spanner — as they were.
func TestBuiltQueryIgnoresLaterBuilderCalls(t *testing.T) {
	b := spanjoin.NewQuery().Atom(".*x{a}.*")
	q := b.MustBuild()
	check := func(when string) {
		t.Helper()
		ms, err := q.Evaluate("aa")
		if err != nil || len(ms) != 2 {
			t.Fatalf("%s: Evaluate = %v, %v; want 2 matches", when, ms, err)
		}
		if n, err := q.Count("aa"); err != nil || n.String() != "2" {
			t.Fatalf("%s: Count = %v, %v; want 2", when, n, err)
		}
		if vars := q.Vars(); len(vars) != 1 || vars[0] != "x" {
			t.Fatalf("%s: Vars = %v, want [x]", when, vars)
		}
	}
	check("after Build")
	b.Atom(".*x{b}.*").Project()
	check("after more builder calls")
}

func TestUnionQuery(t *testing.T) {
	q1 := spanjoin.NewQuery().Atom(".*x{aa}.*").MustBuild()
	q2 := spanjoin.NewQuery().Atom(".*x{ab}.*").MustBuild()
	u, err := spanjoin.NewUnion(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := u.Evaluate("aab")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, m := range ms {
		got[m.MustSubstr("x")] = true
	}
	if !got["aa"] || !got["ab"] {
		t.Errorf("union missing matches: %v", got)
	}
	// Mismatched schemas rejected.
	q3 := spanjoin.NewQuery().Atom(".*z{a}.*").MustBuild()
	if _, err := spanjoin.NewUnion(q1, q3); err == nil {
		t.Error("union with mismatched schemas must fail")
	}
}

func TestAcyclicityAccessors(t *testing.T) {
	tri := spanjoin.NewQuery().
		Atom(".*x{a}y{b}.*").
		Atom(".*y{b}z{a}.*").
		Atom(".*x{a}.*z{a}.*").
		MustBuild()
	if tri.IsAcyclic() {
		t.Error("triangle should be cyclic")
	}
	chain := spanjoin.NewQuery().
		Atom(".*x{a}y{b}.*").
		Atom(".*y{b}z{a}.*").
		MustBuild()
	if !chain.IsAcyclic() || !chain.IsGammaAcyclic() {
		t.Error("chain should be acyclic")
	}
}

func TestSpannerStats(t *testing.T) {
	sp := spanjoin.MustCompile(".*x{a}.*")
	states, trans := sp.Stats()
	if states == 0 || trans == 0 {
		t.Error("stats should be positive")
	}
}

func TestDeterministicOrder(t *testing.T) {
	sp := spanjoin.MustCompile("a*x{a*}a*")
	a, _ := sp.Eval("aaa")
	b, _ := sp.Eval("aaa")
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		pa, _ := a[i].Span("x")
		pb, _ := b[i].Span("x")
		if pa != pb {
			t.Fatalf("order differs at %d", i)
		}
	}
}
