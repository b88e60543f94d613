package core_test

import (
	"strings"
	"testing"

	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rel"
	"spanjoin/internal/span"
)

func atom(t *testing.T, name, pattern string) *core.Atom {
	t.Helper()
	a, err := core.NewAtom(name, pattern)
	if err != nil {
		t.Fatalf("atom %s: %v", name, err)
	}
	return a
}

func TestAtomErrors(t *testing.T) {
	if _, err := core.NewAtom("bad", "x{a}x{a}"); err == nil {
		t.Error("non-functional atom must fail")
	}
	if _, err := core.NewAtom("bad", "("); err == nil {
		t.Error("unparsable atom must fail")
	}
}

func TestCQValidate(t *testing.T) {
	q := &core.CQ{}
	if err := q.Validate(); err == nil {
		t.Error("empty CQ must be invalid")
	}
	q = &core.CQ{
		Atoms:      []*core.Atom{atom(t, "a", "x{a}")},
		Projection: span.NewVarList("nope"),
	}
	if err := q.Validate(); err == nil {
		t.Error("projection onto unbound variable must be invalid")
	}
	q = &core.CQ{
		Atoms:      []*core.Atom{atom(t, "a", "x{a}")},
		Equalities: [][2]string{{"x", "ghost"}},
	}
	if err := q.Validate(); err == nil {
		t.Error("equality with unbound variable must be invalid")
	}
	q = &core.CQ{
		Atoms:      []*core.Atom{atom(t, "a", "x{a}")},
		Equalities: [][2]string{{"x", "x"}},
	}
	if err := q.Validate(); err == nil {
		t.Error("trivial self-equality must be invalid")
	}
}

func TestBothStrategiesAgree(t *testing.T) {
	doc := "aa bb ab ba aa"
	queries := []*core.CQ{
		{
			Atoms: []*core.Atom{
				atom(t, "r1", ".*x{a+}.*"),
				atom(t, "r2", ".*x{aa}.*"),
			},
		},
		{
			Atoms: []*core.Atom{
				atom(t, "r1", ".*x{a}y{.}.*"),
				atom(t, "r2", ".*y{b}.*"),
			},
			Projection: span.NewVarList("x"),
		},
		{
			Atoms: []*core.Atom{
				atom(t, "r1", ".*x{a+}.*"),
				atom(t, "r2", ".*y{b+}.*"),
			},
			Projection: span.NewVarList(),
		},
		{
			Atoms: []*core.Atom{
				atom(t, "r1", ".*x{a+} y{b+}.*"),
			},
			Equalities: [][2]string{},
		},
	}
	for i, q := range queries {
		rc, err := q.Eval(doc, core.Options{Strategy: core.Canonical})
		if err != nil {
			t.Fatalf("query %d canonical: %v", i, err)
		}
		ra, err := q.Eval(doc, core.Options{Strategy: core.Automata})
		if err != nil {
			t.Fatalf("query %d automata: %v", i, err)
		}
		if !oracle.EqualTupleSets(rc.Tuples, ra.Tuples) {
			t.Errorf("query %d: canonical %d tuples, automata %d", i, rc.Len(), ra.Len())
		}
		rauto, err := q.Eval(doc, core.Options{Strategy: core.Auto})
		if err != nil {
			t.Fatalf("query %d auto: %v", i, err)
		}
		if !oracle.EqualTupleSets(rauto.Tuples, ra.Tuples) {
			t.Errorf("query %d: auto plan disagrees", i)
		}
	}
}

func TestBothStrategiesAgreeWithEqualities(t *testing.T) {
	doc := "abc abc xyz"
	q := &core.CQ{
		Atoms: []*core.Atom{
			atom(t, "tok", `.* x{[a-z]+} .*`),
			atom(t, "tok2", `.*y{[a-z]+} .*|.* y{[a-z]+}.*`),
		},
		Equalities: [][2]string{{"x", "y"}},
	}
	// tok patterns are loose; what matters is both plans agreeing.
	rc, err := q.Eval(doc, core.Options{Strategy: core.Canonical})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := q.Eval(doc, core.Options{Strategy: core.Automata})
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.EqualTupleSets(rc.Tuples, ra.Tuples) {
		t.Fatalf("canonical %d vs automata %d tuples", rc.Len(), ra.Len())
	}
	// Every surviving pair must span equal substrings.
	xi, yi := rc.Vars.Index("x"), rc.Vars.Index("y")
	for _, tu := range rc.Tuples {
		if tu[xi].Substr(doc) != tu[yi].Substr(doc) {
			t.Errorf("equality violated: %q vs %q", tu[xi].Substr(doc), tu[yi].Substr(doc))
		}
	}
}

// TestIntroQuery reproduces the paper's introductory query (1): sentences
// that contain a Belgium address and the token police, via a CQ over five
// regex atoms, on a synthetic document.
func TestIntroQuery(t *testing.T) {
	doc := "Nation 2 Bruxelles Belgium police here. Paris armee there."
	// Simplified extractors over a '.'-terminated sentence model:
	sen := `(.* )?sen{[A-Za-z0-9 ]+\.}( .*)?`
	// An address is "<token> Belgium" with the country captured.
	adr := `.*y{[A-Za-z]+ z{Belgium}}.*`
	blg := `.*z{Belgium}.*`
	plc := `.*w{police}.*`
	// y inside x (α_sub of the paper) and w inside x.
	subYX := `.*x{.*y{.*}.*}.*`
	subWX := `.*x{.*w{.*}.*}.*`

	q := &core.CQ{
		Atoms: []*core.Atom{
			atom(t, "sen", strings.Replace(sen, "sen{", "x{", 1)),
			atom(t, "adr", adr),
			atom(t, "subYX", subYX),
			atom(t, "blg", blg),
			atom(t, "plc", plc),
			atom(t, "subWX", subWX),
		},
		Projection: span.NewVarList("x"),
	}
	res, err := q.Eval(doc, core.Options{Strategy: core.Canonical})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("intro query found no sentences")
	}
	for _, tu := range res.Tuples {
		s := tu[0].Substr(doc)
		if !strings.Contains(s, "Belgium") || !strings.Contains(s, "police") {
			t.Errorf("sentence %q lacks Belgium or police", s)
		}
	}
	// The automata plan (Thm 3.11, k = 6) must agree with the canonical one.
	res2, err := q.Eval(doc, core.Options{Strategy: core.Automata})
	if err != nil {
		t.Fatal(err)
	}
	if !oracle.EqualTupleSets(res.Tuples, res2.Tuples) {
		t.Errorf("plans disagree: canonical %d vs automata %d", res.Len(), res2.Len())
	}
}

func TestUCQValidationAndEval(t *testing.T) {
	q1 := &core.CQ{Atoms: []*core.Atom{atom(t, "a", ".*x{a}.*")}}
	q2 := &core.CQ{Atoms: []*core.Atom{atom(t, "b", ".*x{b}.*")}}
	u := &core.UCQ{Disjuncts: []*core.CQ{q1, q2}}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	doc := "ab"
	rc, err := u.Eval(doc, core.Options{Strategy: core.Canonical})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := u.Eval(doc, core.Options{Strategy: core.Automata})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Len() != 2 || ra.Len() != 2 {
		t.Errorf("union sizes: canonical %d, automata %d, want 2", rc.Len(), ra.Len())
	}
	if !oracle.EqualTupleSets(rc.Tuples, ra.Tuples) {
		t.Error("UCQ plans disagree")
	}
	// Mismatched schemas must be rejected.
	q3 := &core.CQ{Atoms: []*core.Atom{atom(t, "c", ".*y{a}.*")}}
	bad := &core.UCQ{Disjuncts: []*core.CQ{q1, q3}}
	if err := bad.Validate(); err == nil {
		t.Error("UCQ with mismatched output schemas must be invalid")
	}
}

func TestUCQDedupAcrossDisjuncts(t *testing.T) {
	// Overlapping disjuncts: tuples found by both must appear once.
	q1 := &core.CQ{Atoms: []*core.Atom{atom(t, "a", ".*x{a.}.*")}}
	q2 := &core.CQ{Atoms: []*core.Atom{atom(t, "b", ".*x{.a}.*")}}
	u := &core.UCQ{Disjuncts: []*core.CQ{q1, q2}}
	doc := "aaa"
	for _, strat := range []core.Strategy{core.Canonical, core.Automata} {
		r, err := u.Eval(doc, core.Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, tu := range r.Tuples {
			if seen[tu.Key()] {
				t.Fatalf("%v: duplicate %v", strat, tu)
			}
			seen[tu.Key()] = true
		}
		// "aa" at [1,3⟩ and [2,4⟩ are found by both disjuncts.
		if r.Len() != 2 {
			t.Errorf("%v: %d tuples, want 2", strat, r.Len())
		}
	}
}

func TestUCQCompileStatic(t *testing.T) {
	q1 := &core.CQ{Atoms: []*core.Atom{atom(t, "a", ".*x{a}.*")}}
	q2 := &core.CQ{Atoms: []*core.Atom{atom(t, "b", ".*x{b}.*")}}
	u := &core.UCQ{Disjuncts: []*core.CQ{q1, q2}}
	a, err := u.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsFunctional() {
		t.Error("compiled UCQ automaton must be functional")
	}
	// With equalities, static compilation must refuse.
	qe := &core.CQ{
		Atoms:      []*core.Atom{atom(t, "e", ".*x{a}.*y{a}.*")},
		Equalities: [][2]string{{"x", "y"}},
	}
	ue := &core.UCQ{Disjuncts: []*core.CQ{qe}}
	if _, err := ue.Compile(); err == nil {
		t.Error("static compilation with ζ= must fail (Thm 5.4: per-string only)")
	}
}

func TestAcyclicityOfCQs(t *testing.T) {
	chain := &core.CQ{Atoms: []*core.Atom{
		atom(t, "1", ".*x{a}y{b}.*"),
		atom(t, "2", ".*y{b}z{a}.*"),
	}}
	if !chain.IsAcyclic() || !chain.IsGammaAcyclic() {
		t.Error("chain CQ should be alpha- and gamma-acyclic")
	}
	tri := &core.CQ{Atoms: []*core.Atom{
		atom(t, "1", ".*x{a}y{b}.*"),
		atom(t, "2", ".*y{b}z{a}.*"),
		atom(t, "3", ".*z{a}.*x{a}.*"),
	}}
	if tri.IsAcyclic() {
		t.Error("triangle CQ should be cyclic")
	}
}

func TestBooleanCQ(t *testing.T) {
	q := &core.CQ{
		Atoms:      []*core.Atom{atom(t, "a", ".*x{ab}.*")},
		Projection: span.VarList{},
	}
	// "abab" binds x twice; the Boolean query still holds once.
	for doc, want := range map[string]int{"ab": 1, "ba": 0, "xabx": 1, "abab": 1} {
		for _, strat := range []core.Strategy{core.Canonical, core.Automata} {
			r, err := q.Eval(doc, core.Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != want {
				t.Errorf("boolean CQ on %q with %v: %d, want %d", doc, strat, r.Len(), want)
			}
		}
	}
}

func TestDrainAndIterator(t *testing.T) {
	q := &core.CQ{Atoms: []*core.Atom{atom(t, "a", "a*x{a}a*")}}
	it, err := q.Enumerate("aaa", core.Options{Strategy: core.Automata})
	if err != nil {
		t.Fatal(err)
	}
	r := core.Drain(it)
	if r.Len() != 3 {
		t.Errorf("drained %d tuples, want 3", r.Len())
	}
	var _ = rel.NewRelation(nil)
}

// TestUCQStaticCompileAgreesWithEnumerate: the statically compiled UCQ
// automaton (Lemma 3.9 over per-disjunct compilations) must define the same
// spanner as per-string evaluation.
func TestUCQStaticCompileAgreesWithEnumerate(t *testing.T) {
	q1 := &core.CQ{Atoms: []*core.Atom{atom(t, "a", ".*x{a.}.*")}}
	q2 := &core.CQ{
		Atoms: []*core.Atom{
			atom(t, "b", ".*x{.b}.*"),
			atom(t, "c", ".*x{.*}b.*|.*x{.*b}.*"),
		},
	}
	u := &core.UCQ{Disjuncts: []*core.CQ{q1, q2}}
	compiled, err := u.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !compiled.IsFunctional() {
		t.Fatal("compiled UCQ not functional")
	}
	for _, s := range []string{"", "ab", "ba", "aabb"} {
		_, want, err := enum.Eval(compiled, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := u.Eval(s, core.Options{Strategy: core.Automata})
		if err != nil {
			t.Fatal(err)
		}
		if !oracle.EqualTupleSets(got.Tuples, want) {
			t.Errorf("on %q: static compile %d tuples, runtime %d", s, len(want), got.Len())
		}
	}
}

func TestCQRequirement(t *testing.T) {
	mustAtom := func(name, pattern string) *core.Atom {
		a, err := core.NewAtom(name, pattern)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	q := &core.CQ{Atoms: []*core.Atom{
		mustAtom("a", `.*x{ERROR}.*`),
		mustAtom("b", `.*y{disk}.*`),
	}}
	req := q.Requirement()
	if !req.Match("ERROR on disk") || req.Match("ERROR alone") || req.Match("disk alone") {
		t.Fatalf("CQ requirement = %v, want conjunction of both atoms", req)
	}

	// UCQ: only factors every disjunct implies survive.
	q2 := &core.CQ{Atoms: []*core.Atom{mustAtom("c", `.*x{ERRORS}.*`)}}
	u := &core.UCQ{Disjuncts: []*core.CQ{q, q2}}
	ureq := u.Requirement()
	if !ureq.Match("ERROR") {
		t.Fatalf("UCQ requirement = %v, want only the common factor ERROR", ureq)
	}
	if ureq.Match("nothing shared") {
		t.Fatalf("UCQ requirement = %v must still demand ERROR", ureq)
	}
	// A disjunct without factors washes out the union.
	free := &core.UCQ{Disjuncts: []*core.CQ{q, {Atoms: []*core.Atom{mustAtom("d", `x{.*}`)}}}}
	if req := free.Requirement(); !req.IsEmpty() {
		t.Fatalf("UCQ with a free disjunct requires %v, want nothing", req)
	}
}
