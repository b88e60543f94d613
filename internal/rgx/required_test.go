package rgx_test

import (
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
)

// longestRequired is the one literal Spanner.RequiredLiteral exposes for a
// pattern: the longest of its normalized RequiredLiterals, ties
// lexicographic.
func longestRequired(pattern string) string {
	return prefilter.New(rgx.RequiredLiterals(rgx.MustParse(pattern).Root)...).Longest()
}

func TestRequiredLiteralFixed(t *testing.T) {
	cases := []struct {
		pattern string
		want    string
	}{
		{"abc", "abc"},
		{".*police.*", "police"},
		{".*x{Belgium}.*", "Belgium"},
		{"a*b*", ""},
		{"(abc|abd)", "ab"},    // common prefix of both branches
		{"(abc|abc)", "abc"},   // identical branches
		{"x{ab}y{cd}", "abcd"}, // captures are transparent
		{"ab.cd", "ab"},        // wildcard breaks the run; ties keep first longest
		{"a(bc)+d", "bc"},      // plus body required once... run analysis picks bc
		{"[ab]x", "x"},         // multi-byte class not required
		{"a|", ""},             // ε branch kills the factor
		{".*ERROR op=.*", "ERROR op="},
	}
	for _, tc := range cases {
		got := longestRequired(tc.pattern)
		if got != tc.want {
			t.Errorf("longest of RequiredLiterals(%q) = %q, want %q", tc.pattern, got, tc.want)
		}
	}
}

// TestRequiredLiteralSound: every string with a non-empty result must
// contain the longest computed factor.
func TestRequiredLiteralSound(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	patterns := []string{
		".*x{ab}.*", "(ab|ba)x{c}", "a+x{b?}c*d", ".*x{a}b.*", "x{(ab)+}",
		"(a|b)*cd(a|b)*",
	}
	for _, p := range patterns {
		req := longestRequired(p)
		a, err := rgx.CompilePattern(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			n := r.Intn(7)
			b := make([]byte, n)
			for i := range b {
				b[i] = "abcd"[r.Intn(4)]
			}
			s := string(b)
			_, tuples, err := enum.Eval(a, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(tuples) > 0 && req != "" && !strings.Contains(s, req) {
				t.Fatalf("%q matched %q but required literal %q is absent", p, s, req)
			}
		}
	}
}

func TestRequiredLiteralsFixed(t *testing.T) {
	// Expectations are sets; order is the raw analysis order.
	cases := []struct {
		pattern string
		want    []string
	}{
		{"abc", []string{"abc"}},
		{".*police.*", []string{"police"}},
		// Both mandatory runs survive, not just the longest.
		{"x{ERROR}.*y{op=}", []string{"ERROR", "op="}},
		{"ab.cd", []string{"ab", "cd"}},
		{"a(bc)+d", []string{"a", "bc", "d"}},
		{"a*b*", nil},
		// Branches share "err" via superstring implication.
		{"(xerry|err)", []string{"err"}},
		{"(abc|abd)", []string{"ab"}},
		{"a|", nil},
	}
	for _, tc := range cases {
		f := rgx.MustParse(tc.pattern)
		got := rgx.RequiredLiterals(f.Root)
		gotSet := map[string]bool{}
		for _, l := range got {
			gotSet[l] = true
		}
		wantSet := map[string]bool{}
		for _, l := range tc.want {
			wantSet[l] = true
		}
		if len(gotSet) != len(wantSet) {
			t.Errorf("RequiredLiterals(%q) = %q, want %q", tc.pattern, got, tc.want)
			continue
		}
		for l := range wantSet {
			if !gotSet[l] {
				t.Errorf("RequiredLiterals(%q) = %q, missing %q", tc.pattern, got, l)
			}
		}
	}
}

// TestRequiredLiteralsSound: every string with a non-empty result must
// contain every computed factor.
func TestRequiredLiteralsSound(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	patterns := []string{
		".*x{ab}.*", "(ab|ba)x{c}", "a+x{b?}c*d", ".*x{a}b.*", "x{(ab)+}",
		"(a|b)*cd(a|b)*", "x{ab}.*y{cd}", "(abc|abcd)x{a*}",
	}
	for _, p := range patterns {
		f := rgx.MustParse(p)
		req := rgx.RequiredLiterals(f.Root)
		a, err := rgx.Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			n := r.Intn(8)
			b := make([]byte, n)
			for i := range b {
				b[i] = "abcd"[r.Intn(4)]
			}
			s := string(b)
			_, tuples, err := enum.Eval(a, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(tuples) == 0 {
				continue
			}
			for _, l := range req {
				if !strings.Contains(s, l) {
					t.Fatalf("%q matched %q but required literal %q is absent (set %q)", p, s, l, req)
				}
			}
		}
	}
}

// TestRequiredLiteralsLongRunLinear: a 4,096-byte literal yields the one
// literal it spells, and collecting it costs memory linear in its length.
// A run grown a byte at a time by string concatenation would allocate
// about 17 MiB here, far past the bound.
func TestRequiredLiteralsLongRunLinear(t *testing.T) {
	lit := strings.Repeat("a", 4096)
	f := rgx.MustParse("x{" + lit + "}")
	if got := rgx.RequiredLiterals(f.Root); len(got) != 1 || got[0] != lit {
		t.Fatalf("RequiredLiterals = %d literals, want exactly the 4,096-byte run", len(got))
	}
	if b := alloctest.Bytes(t, 3, func() { rgx.RequiredLiterals(f.Root) }); b > 1<<20 {
		t.Fatalf("RequiredLiterals of a 4,096-byte literal allocates %.1f MiB, want under 1 MiB", b/(1<<20))
	}
}
