package spanjoin

import (
	"errors"
	"testing"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
)

// FuzzCompile: a pattern of at most 64 bytes either compiles, through
// Compile and CompileSearch alike, or is rejected with a *rgx.ParseError
// or a *rgx.FunctionalityError — never a panic. An accepted pattern's plan
// builds, and its count DFA, warmed on another document first, counts a
// document of at most 16 bytes exactly as the layered graph and the ranked
// DAG do, and, when there are at most 1,000 results, as many as Next on
// the plan enumerates. Every leg so far reads one automaton; the
// last compares the automaton with its formula: on the document's first 6
// bytes, a pattern with at most 3 variables yields exactly the tuples
// the brute-force oracle derives from the parsed formula (wrapped in .*
// for CompileSearch), so a construction that changes the language fails.
func FuzzCompile(f *testing.F) {
	f.Add(".*x{a+}.*y{b+}.*", "abaab", "bbbbbbba")
	f.Add("x{.*}y{.*}", "ab", "")
	f.Add("(a|b)*x{a}(a|b)(a|b)", "abbab", "aaaaaaaaaaa")
	f.Add("x{a}|x{b}y{c}", "b", "a")
	f.Add("[^0-9]*x{[0-9]+}", "a12b3", "99")
	f.Add("(x{a})*", "aa", "a")
	f.Add("a{", "a", "")
	f.Add("a*b*x{c}", "bac", "abc")   // two stars in a row
	f.Add("x{a+b+}c", "ababc", "abc") // two loops in a row
	f.Fuzz(func(t *testing.T, pattern, doc, warm string) {
		if len(pattern) > 64 {
			pattern = pattern[:64]
		}
		if len(doc) > 16 {
			doc = doc[:16]
		}
		if len(warm) > 16 {
			warm = warm[:16]
		}
		for _, search := range []bool{false, true} {
			compile := Compile
			if search {
				compile = CompileSearch
			}
			sp, err := compile(pattern)
			if err != nil {
				var pe *rgx.ParseError
				var fe *rgx.FunctionalityError
				if !errors.As(err, &pe) && !errors.As(err, &fe) {
					t.Fatalf("%q rejected with %T: %v", pattern, err, err)
				}
				continue
			}
			p, err := enum.NewPlan(sp.auto)
			if err != nil {
				t.Fatalf("%q compiled but its plan failed: %v", pattern, err)
			}
			e := p.NewEnumerator()
			e.CountDoc(warm)
			got, want := e.CountDoc(doc), p.Prepare(doc).Rank().Count()
			if got.String() != want.String() {
				t.Fatalf("%q on %q after %q: CountDoc = %v, Rank().Count() = %v", pattern, doc, warm, got, want)
			}
			if n, ok := want.Uint64(); ok && n <= 1000 {
				if all := p.Prepare(doc).All(); uint64(len(all)) != n {
					t.Fatalf("%q on %q: count %d, Next enumerates %d", pattern, doc, n, len(all))
				}
			}
			if len(sp.auto.Vars) <= 3 {
				checkAgainstFormula(t, pattern, search, p, doc[:min(len(doc), 6)])
			}
		}
	})
}

// checkAgainstFormula compares the plan's results on doc with the
// oracle's evaluation of the parsed pattern.
func checkAgainstFormula(t *testing.T, pattern string, search bool, p *enum.Plan, doc string) {
	t.Helper()
	form := rgx.MustParse(pattern)
	if search {
		form = rgx.NewFormula(rgx.Concat{Subs: []rgx.Node{
			rgx.Star{Sub: rgx.Class{C: alphabet.Any()}}, form.Root, rgx.Star{Sub: rgx.Class{C: alphabet.Any()}},
		}})
	}
	got, want := p.Prepare(doc).All(), oracle.EvalFormula(form, doc)
	if !oracle.EqualTupleSets(got, want) {
		oracle.SortTuples(got)
		t.Fatalf("%q (search %v) on %q: automaton yields %v, formula %v", pattern, search, doc, got, want)
	}
}
