package spanjoin

import (
	"errors"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/rgx"
)

// FuzzCompile: a pattern of at most 64 bytes either compiles, through
// Compile and CompileSearch alike, or is rejected with a *rgx.ParseError
// or a *rgx.FunctionalityError — never a panic. An accepted pattern's plan
// builds, and its count DFA, warmed on another document first, counts a
// document of at most 16 bytes exactly as the layered graph and the ranked
// DAG do, and, when there are at most 1,000 results, as many as the
// reference build enumerates.
func FuzzCompile(f *testing.F) {
	f.Add(".*x{a+}.*y{b+}.*", "abaab", "bbbbbbba")
	f.Add("x{.*}y{.*}", "ab", "")
	f.Add("(a|b)*x{a}(a|b)(a|b)", "abbab", "aaaaaaaaaaa")
	f.Add("x{a}|x{b}y{c}", "b", "a")
	f.Add("[^0-9]*x{[0-9]+}", "a12b3", "99")
	f.Add("(x{a})*", "aa", "a")
	f.Add("a{", "a", "")
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
		for _, compile := range []func(string) (*Spanner, error){Compile, CompileSearch} {
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
				ref, err := enum.PrepareRef(sp.auto, doc)
				if err != nil {
					t.Fatal(err)
				}
				if all := ref.All(); uint64(len(all)) != n {
					t.Fatalf("%q on %q: count %d, reference build enumerates %d", pattern, doc, n, len(all))
				}
			}
		}
	})
}
