package spanjoin_test

import (
	"strings"
	"testing"

	"spanjoin"
	"spanjoin/internal/workload"
)

// TestIntegrationDocumentPipeline runs a realistic multi-stage extraction on
// a generated document, cross-validating both evaluation strategies and the
// membership test.
func TestIntegrationDocumentPipeline(t *testing.T) {
	doc := workload.Document(workload.Rand(314), workload.DocumentOptions{
		Sentences: 15, AddressRate: 0.4, PoliceRate: 0.4, EmailRate: 0.4,
	})

	// Stage 1: extract e-mails with nested captures.
	emails := spanjoin.MustCompileSearch(` mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}}[ .]`)
	ms, err := emails.Eval(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		mail := m.MustSubstr("mail")
		if !strings.Contains(mail, "@") {
			t.Errorf("bad email %q", mail)
		}
		// Every enumerated match must pass the membership test.
		assign := map[string]spanjoin.Span{}
		for _, v := range m.Vars() {
			p, _ := m.Span(v)
			assign[v] = p
		}
		ok, err := emails.MatchesAt(doc, assign)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("MatchesAt rejects enumerated match %v", m)
		}
	}

	// Stage 2: a CQ joining sentences with contained addresses, both plans.
	q := spanjoin.NewQuery().
		AtomNamed("sen", `(.*\. )?x{[A-Za-z0-9 ]+\.}( .*)?`).
		AtomNamed("adr", `.*y{[A-Za-z]+ Belgium}.*`).
		AtomNamed("sub", `.*x{.*y{.*}.*}.*`).
		Project("x", "y").
		MustBuild()
	auto, err := q.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range auto {
		x := m.MustSubstr("x")
		y := m.MustSubstr("y")
		if !strings.Contains(x, y) {
			t.Errorf("containment violated: %q not in %q", y, x)
		}
		if !strings.HasSuffix(y, "Belgium") {
			t.Errorf("address %q does not end in Belgium", y)
		}
	}

	// Stage 3: Boolean existence with the Auto planner.
	exists := spanjoin.NewQuery().
		Atom(`.*p{police}.*`).
		Atom(`.*b{Belgium}.*`).
		Project().
		MustBuild()
	ok, err := exists.Exists(doc)
	if err != nil {
		t.Fatal(err)
	}
	wantExists := strings.Contains(doc, "police") && strings.Contains(doc, "Belgium")
	if ok != wantExists {
		t.Errorf("Exists = %v, document inspection says %v", ok, wantExists)
	}
	// Boolean: one empty match when the join holds, none otherwise.
	ms, err = exists.Evaluate(doc)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	if wantExists {
		want = 1
	}
	if len(ms) != want || len(exists.Vars()) != 0 {
		t.Errorf("Boolean query: %d matches over vars %v, want %d over none", len(ms), exists.Vars(), want)
	}
}

// TestIntegrationUnionWithEqualities: a UCQ where one disjunct carries a
// string-equality selection, both strategies.
func TestIntegrationUnionWithEqualities(t *testing.T) {
	doc := "aa bb aa"
	// Disjunct 1: pairs of equal two-char tokens.
	q1 := spanjoin.NewQuery().
		AtomNamed("pair", `x{..} .*y{..}|x{..}.* y{..}`).
		Equal("x", "y").
		Project("x", "y").
		MustBuild()
	// Disjunct 2: x = first token, y = last token, unconditionally.
	q2 := spanjoin.NewQuery().
		AtomNamed("ends", `x{..}.* y{..}`).
		Project("x", "y").
		MustBuild()
	u, err := spanjoin.NewUnion(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	autoRes, err := u.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyAutomata))
	if err != nil {
		t.Fatal(err)
	}
	canRes, err := u.Evaluate(doc, spanjoin.WithStrategy(spanjoin.StrategyCanonical))
	if err != nil {
		t.Fatal(err)
	}
	if len(autoRes) != len(canRes) {
		t.Fatalf("plans disagree: automata %d vs canonical %d", len(autoRes), len(canRes))
	}
	keys := func(ms []spanjoin.Match) map[string]bool {
		out := map[string]bool{}
		for _, m := range ms {
			x, _ := m.Span("x")
			y, _ := m.Span("y")
			out[x.String()+y.String()] = true
		}
		return out
	}
	ka, kc := keys(autoRes), keys(canRes)
	for k := range ka {
		if !kc[k] {
			t.Fatalf("canonical missing %s", k)
		}
	}
	// The equal-pair (aa at [1,3⟩, aa at [7,9⟩) must be present.
	if !ka["[1,3⟩[7,9⟩"] {
		t.Errorf("missing the equal-token pair; got %v", ka)
	}
}

// TestIntegrationDifference: spanner difference via the membership filter.
func TestIntegrationDifference(t *testing.T) {
	all := spanjoin.MustCompileSearch("x{[ab]+}")         // all [ab]+ substrings
	evens := spanjoin.MustCompileSearch("x{([ab][ab])+}") // even-length ones
	doc := "zabaz"
	ms, err := spanjoin.Difference(all, evens, doc)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		m, ok := ms.Next()
		if !ok {
			break
		}
		count++
		if len(m.MustSubstr("x"))%2 == 0 {
			t.Errorf("difference leaked even-length %q", m.MustSubstr("x"))
		}
	}
	// spanlint/closecheck: a failure here must not read as exhaustion.
	if err := ms.Err(); err != nil {
		t.Fatal(err)
	}
	// "aba" has odd-length substrings a(×2), b, aba: spans [2,3⟩,[3,4⟩,[4,5⟩,[2,5⟩.
	if count != 4 {
		t.Errorf("got %d odd-length matches, want 4", count)
	}
	// Schema mismatch rejected.
	other := spanjoin.MustCompileSearch("y{a}")
	if _, err := spanjoin.Difference(all, other, doc); err == nil {
		t.Error("difference with different variables must fail")
	}
}

// TestIntegrationLogJoinBothPlans: the log-analysis chain query, asserting
// the Auto planner picks a working plan and matches the forced strategies.
func TestIntegrationLogJoinBothPlans(t *testing.T) {
	doc := workload.Logs(workload.Rand(99), 60)
	q := spanjoin.NewQuery().
		AtomNamed("err", `.*x{ERROR} op=.*`).
		AtomNamed("op", `.*x{[A-Z]+} op=y{[a-z]+} .*`).
		AtomNamed("id", `.*op=y{[a-z]+} id=z{[0-9a-f]+} .*`).
		MustBuild()
	if !q.IsAcyclic() {
		t.Fatal("chain must be acyclic")
	}
	counts := map[spanjoin.Strategy]int{}
	for _, strat := range []spanjoin.Strategy{spanjoin.StrategyAuto, spanjoin.StrategyCanonical, spanjoin.StrategyAutomata} {
		ms, err := q.Evaluate(doc, spanjoin.WithStrategy(strat))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		counts[strat] = len(ms)
		for _, m := range ms {
			if m.MustSubstr("x") != "ERROR" {
				t.Errorf("%v: x = %q, want ERROR", strat, m.MustSubstr("x"))
			}
		}
	}
	if counts[spanjoin.StrategyAuto] != counts[spanjoin.StrategyCanonical] ||
		counts[spanjoin.StrategyCanonical] != counts[spanjoin.StrategyAutomata] {
		t.Errorf("strategies disagree: %v", counts)
	}
	if counts[spanjoin.StrategyAuto] == 0 {
		t.Error("expected ERROR lines in the generated log")
	}
}
