package rgx_test

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

func evalPattern(t *testing.T, pattern, s string) []span.Tuple {
	t.Helper()
	a, err := rgx.CompilePattern(pattern)
	if err != nil {
		t.Fatalf("compile %q: %v", pattern, err)
	}
	_, tuples, err := enum.Eval(a, s)
	if err != nil {
		t.Fatalf("eval %q on %q: %v", pattern, s, err)
	}
	return tuples
}

func TestCompileProducesFunctionalVSA(t *testing.T) {
	patterns := []string{
		"a", "a*", "x{a}", "a*x{a*}a*", "x{a}y{b}|y{b}x{a}",
		".*x{foo}.*", "x{y{}}a", "[a-c]+x{[0-9]}",
	}
	for _, p := range patterns {
		a, err := rgx.CompilePattern(p)
		if err != nil {
			t.Fatalf("compile %q: %v", p, err)
		}
		if !a.IsFunctional() {
			t.Errorf("compiled automaton for %q is not functional", p)
		}
	}
}

func TestCompileRejectsNonFunctional(t *testing.T) {
	for _, p := range []string{"x{a}x{a}", "x{a}|y{a}", "(x{a})*"} {
		_, err := rgx.CompilePattern(p)
		if err == nil {
			t.Errorf("compile %q should fail", p)
			continue
		}
		var fe *rgx.FunctionalityError
		if !errors.As(err, &fe) {
			t.Errorf("compile %q: error %T, want *FunctionalityError", p, err)
		}
	}
}

// TestExample25EmailFormula evaluates the e-mail formula of Example 2.5.
func TestExample25EmailFormula(t *testing.T) {
	pattern := ` mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}} `
	doc := "contact us: alice@example.com or bob@dev.org today"
	a, err := rgx.CompilePattern(".*" + pattern + ".*")
	if err != nil {
		t.Fatal(err)
	}
	vars, tuples, err := enum.Eval(a, doc)
	if err != nil {
		t.Fatal(err)
	}
	mails := map[string]bool{}
	mi := vars.Index("mail")
	for _, tu := range tuples {
		mails[tu[mi].Substr(doc)] = true
	}
	if len(mails) != 2 || !mails["alice@example.com"] || !mails["bob@dev.org"] {
		t.Fatalf("extracted %v, want alice@example.com and bob@dev.org", mails)
	}
	for _, tu := range tuples {
		user := tu[vars.Index("user")].Substr(doc)
		domain := tu[vars.Index("domain")].Substr(doc)
		mail := tu[mi].Substr(doc)
		if mail != user+"@"+domain {
			t.Errorf("mail %q != user %q @ domain %q", mail, user, domain)
		}
	}
}

func TestEvalFixedCases(t *testing.T) {
	cases := []struct {
		pattern string
		s       string
		want    int // number of tuples
	}{
		{"a*x{a*}a*", "aaa", 10}, // Example A.1
		{"a*x{a*}a*", "", 1},
		{"x{a}", "a", 1},
		{"x{a}", "b", 0},
		// A regex formula must match the WHOLE string (clr(r) = s):
		// without Σ* padding, [[x{.}]]("ab") is empty.
		{"x{.}", "ab", 0},
		{".*x{.}.*", "ab", 2},
		{".*x{a}.*", "aa", 2},
		{"x{.*}", "ab", 1},     // only the full span matches all of s
		{".*x{.*}.*", "ab", 6}, // all spans of a 2-char string
		{"x{}", "ab", 0},
		{".*x{}.*", "ab", 3}, // empty span at each boundary
		{"x{a|b}y{c}", "ac", 1},
		{"x{a|b}y{c}", "bc", 1},
		{"x{a|b}y{c}", "cc", 0},
		{"(x{a}b|a(x{b}))", "ab", 2},
	}
	for _, tc := range cases {
		got := evalPattern(t, tc.pattern, tc.s)
		if len(got) != tc.want {
			t.Errorf("|[[%s]](%q)| = %d, want %d (%v)", tc.pattern, tc.s, len(got), tc.want, got)
		}
	}
}

func TestEvalAgainstOracleFixed(t *testing.T) {
	patterns := []string{
		"a*x{a*}a*",
		"x{a*}y{b*}",
		".*x{ab}.*",
		"x{.*}y{.*}",
		"(x{a}b|a(x{b}))",
		"x{a|}b",
		"x{}a*",
		"a?x{b+}a?",
		"x{(ab)*}",
		".*(x{a}.*y{b}|y{b}.*x{a}).*",
	}
	strs := []string{"", "a", "b", "ab", "ba", "aab", "abab", "bbaa"}
	for _, p := range patterns {
		f := rgx.MustParse(p)
		a, err := rgx.Compile(f)
		if err != nil {
			t.Fatalf("compile %q: %v", p, err)
		}
		for _, s := range strs {
			want := oracle.EvalFormula(f, s)
			_, got, err := enum.Eval(a, s)
			if err != nil {
				t.Fatalf("eval %q on %q: %v", p, s, err)
			}
			if !oracle.EqualTupleSets(got, want) {
				t.Errorf("[[%s]](%q): got %v, want %v", p, s, got, want)
			}
		}
	}
}

// randFunctionalFormula generates a random functional formula by
// construction: captures are introduced only at binding-discipline-safe
// points.
func randFunctionalFormula(r *rand.Rand, depth int, avail []string) (string, []string) {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return "a", nil
		case 1:
			return "b", nil
		case 2:
			return ".", nil
		default:
			return "", nil
		}
	}
	switch r.Intn(4) {
	case 0: // concat: split available vars
		k := r.Intn(len(avail) + 1)
		l, lv := randFunctionalFormula(r, depth-1, avail[:k])
		rr, rv := randFunctionalFormula(r, depth-1, avail[k:])
		return l + rr, append(lv, rv...)
	case 1: // alt: both branches must bind the same vars
		l, lv := randFunctionalFormula(r, depth-1, avail)
		// Force the right branch to bind exactly lv by reusing them.
		rr, rv := randFunctionalFormula(r, depth-1, lv)
		if len(rv) != len(lv) {
			// Right branch didn't consume all: fall back to reusing left.
			return l, lv
		}
		return "(" + l + "|" + rr + ")", lv
	case 2: // star over variable-free subformula
		sub, _ := randFunctionalFormula(r, depth-1, nil)
		if sub == "" {
			return "a*", nil
		}
		return "(" + sub + ")*", nil
	default: // capture, if a variable is available
		if len(avail) == 0 {
			sub, _ := randFunctionalFormula(r, depth-1, nil)
			return sub, nil
		}
		sub, sv := randFunctionalFormula(r, depth-1, avail[1:])
		return avail[0] + "{" + sub + "}", append([]string{avail[0]}, sv...)
	}
}

func TestEvalAgainstOracleRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260612))
	vars := []string{"x", "y"}
	for i := 0; i < 150; i++ {
		pattern, bound := randFunctionalFormula(r, 3, vars)
		if pattern == "" {
			continue
		}
		f, err := rgx.Parse(pattern)
		if err != nil {
			t.Fatalf("generated unparsable %q: %v", pattern, err)
		}
		if !span.NewVarList(bound...).Equal(f.Vars) {
			// Generator bookkeeping mismatch: skip rather than mistest.
			continue
		}
		if f.CheckFunctional() != nil {
			t.Fatalf("generator produced non-functional %q", pattern)
		}
		a, err := rgx.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{"", "a", "ab", "ba", "aab"} {
			want := oracle.EvalFormula(f, s)
			_, got, err := enum.Eval(a, s)
			if err != nil {
				t.Fatalf("eval %q on %q: %v", pattern, s, err)
			}
			if !oracle.EqualTupleSets(got, want) {
				oracle.SortTuples(got)
				t.Errorf("[[%s]](%q): got %v, want %v", pattern, s, got, want)
			}
		}
	}
}

// TestCompileLinearSize verifies Lemma 3.4's size bound: the number of
// states grows linearly in |α|.
func TestCompileLinearSize(t *testing.T) {
	base := "a*x{a*}a*"
	prev := 0
	for k := 1; k <= 4; k++ {
		pattern := strings.Repeat("a*", k*10) + base
		a, err := rgx.CompilePattern(pattern)
		if err != nil {
			t.Fatal(err)
		}
		n := a.NumStates()
		if prev > 0 {
			growth := n - prev
			if growth <= 0 || growth > 10*2*2+10 {
				t.Errorf("state growth %d not linear-looking at k=%d", growth, k)
			}
		}
		prev = n
	}
}

// TestCompiledAutomatonIsTrim: every state of an automaton compiled from a
// non-empty formula lies on an accepting path, so Trim returns the
// automaton itself and a plan shares it with its spanner uncopied.
func TestCompiledAutomatonIsTrim(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	patterns := []string{"", "x{}", "a*x{a*}a*", ".*x{ab}.*", "x{a|}b", "(a|)*", "a([]|b)*c", "(a?b+)*x{(c|[])+}"}
	for i := 0; i < 300; i++ {
		p, _ := randFunctionalFormula(r, 4, []string{"x", "y"})
		patterns = append(patterns, p)
	}
	for _, p := range patterns {
		a, err := rgx.CompilePattern(p)
		if err != nil || a.IsEmptyLanguage() {
			continue
		}
		if tr := a.Trim(); tr != a {
			t.Errorf("%q: Trim copied the compiled automaton (%d states to %d)", p, a.NumStates(), tr.NumStates())
		}
	}
}

func TestCompileEmptyLanguage(t *testing.T) {
	a, err := rgx.CompilePattern("[]x{a}")
	if err != nil {
		t.Fatal(err)
	}
	if !a.IsEmptyLanguage() {
		t.Error("∅-formula should compile to an empty-language automaton")
	}
	_, tuples, err := enum.Eval(a, "a")
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 0 {
		t.Errorf("got %d tuples from ∅", len(tuples))
	}
}

func TestCompiledAutomatonAcceptsOracleRefwords(t *testing.T) {
	// Cross-check at the ref-word level: the compiled automaton must accept
	// exactly the interleavings of tuples in [[α]](s).
	f := rgx.MustParse("x{a*}y{b*}")
	a, err := rgx.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	s := "aab"
	want := oracle.EvalFormula(f, s)
	got := oracle.EvalVSA(a, s)
	if !oracle.EqualTupleSets(got, want) {
		t.Errorf("oracle VSA eval %v != oracle formula eval %v", got, want)
	}
	_ = vsa.ErrNotFunctional
}
