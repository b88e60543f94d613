package enum_test

import (
	"math/rand"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// TestAcceptsTupleAgainstEnumeration: membership must agree exactly with
// the enumerated result over all candidate tuples.
func TestAcceptsTupleAgainstEnumeration(t *testing.T) {
	patterns := []string{
		"a*x{a*}a*",
		".*x{a+}y{b}.*",
		"x{.*}y{.*}",
		".*x{.}.*y{.}.*",
		"(a|b)*x{ab}(a|b)*",
	}
	strs := []string{"", "a", "ab", "aab", "abab"}
	for _, pat := range patterns {
		p, err := enum.NewPlan(rgx.MustCompilePattern(pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strs {
			checkAccepts(t, p, s, true)
		}
	}
}

// TestAcceptsRejectsInvalidTuples: a tuple of the wrong arity, or with a
// span outside the document, is no result.
func TestAcceptsRejectsInvalidTuples(t *testing.T) {
	p, err := enum.NewPlan(rgx.MustCompilePattern("x{a}"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Accepts("a", span.Tuple{{Start: 1, End: 2}}) {
		t.Fatal("x{a} rejects its one result on \"a\"")
	}
	if p.Accepts("a", span.Tuple{}) || p.Accepts("a", span.Tuple{{Start: 1, End: 2}, {Start: 1, End: 2}}) {
		t.Error("a tuple of the wrong arity is accepted")
	}
	if p.Accepts("a", span.Tuple{{Start: 3, End: 9}}) {
		t.Error("a span outside the document is accepted")
	}
}

// FuzzAccepts: on random functional automata over {a, b} (a fuzzed 'c' is
// a byte no transition reads), every tuple the enumeration yields is
// accepted, and on documents of at most six bytes every other span
// assignment over the plan's variables is rejected.
func FuzzAccepts(f *testing.F) {
	f.Add(int64(1), "ab")
	f.Add(int64(7), "aabb")
	f.Add(int64(42), "")
	f.Add(int64(2024), "abcab")
	f.Add(int64(99), "babbabab")
	f.Fuzz(func(t *testing.T, seed int64, doc string) {
		if len(doc) > 12 {
			doc = doc[:12]
		}
		b := []byte(doc)
		for i := range b {
			b[i] = "abc"[b[i]%3]
		}
		r := rand.New(rand.NewSource(seed))
		vars := span.NewVarList("x", "y")[:1+r.Intn(2)]
		p, err := enum.NewPlan(oracle.RandomFunctionalVSA(r, vars, 2+r.Intn(5), r.Intn(15)))
		if err != nil {
			t.Fatal(err)
		}
		checkAccepts(t, p, string(b), len(b) <= 6)
	})
}

// checkAccepts checks p.Accepts against p's enumeration of s: every result
// is accepted and, with all set, every other candidate tuple is rejected.
func checkAccepts(t *testing.T, p *enum.Plan, s string, all bool) {
	t.Helper()
	in := map[string]bool{}
	for _, tu := range p.Prepare(s).All() {
		if !p.Accepts(s, tu) {
			t.Fatalf("%q: the result %v is rejected", s, tu.Format(p.Vars()))
		}
		in[tu.Key()] = true
	}
	if !all {
		return
	}
	forEachCandidate(len(s), len(p.Vars()), func(tu span.Tuple) {
		if !in[tu.Key()] && p.Accepts(s, tu) {
			t.Fatalf("%q: the non-result %v is accepted", s, tu.Format(p.Vars()))
		}
	})
}

// forEachCandidate calls fn with every assignment of spans of an n-byte
// document to v variables.
func forEachCandidate(n, v int, fn func(span.Tuple)) {
	all := span.All(n)
	tu := make(span.Tuple, v)
	var rec func(int)
	rec = func(i int) {
		if i == v {
			fn(tu)
			return
		}
		for _, sp := range all {
			tu[i] = sp
			rec(i + 1)
		}
	}
	rec(0)
}
