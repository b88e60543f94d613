package enum

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// checkRankedVsNext pins every ranked-access operation against the
// enumeration itself: Count and the CountDoc kernel against the drain
// count, WordAt(i) (decoded) against the i-th Next result for every i, and
// SeekLetters against the tuple suffix starting at sampled positions.
// CountDoc runs on the enumerator under test before the descents, which
// therefore also check that it left the built graph and Rank intact.
func checkRankedVsNext(t *testing.T, a *vsa.VSA, s string) {
	t.Helper()
	e, err := Prepare(a, s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Prepare(a, s)
	if err != nil {
		t.Fatal(err)
	}
	all := ref.All()

	r := e.Rank()
	cnt, fits := r.Count().Uint64()
	if !fits {
		t.Fatalf("count overflows uint64 on a tiny instance: %v", r.Count())
	}
	if cnt != uint64(len(all)) {
		t.Fatalf("Count = %d, drain found %d on %q", cnt, len(all), s)
	}
	if k, fits := e.CountDoc(s).Uint64(); !fits || k != cnt {
		t.Fatalf("CountDoc = %v, Rank().Count() = %d on %q", e.CountDoc(s), cnt, s)
	}

	var buf []int32
	for i := range all {
		w, ok := r.WordAt(uint64(i), buf)
		if !ok {
			t.Fatalf("WordAt(%d) out of range below Count on %q", i, s)
		}
		buf = w
		if got := e.DecodeLetters(w); got.Compare(all[i]) != 0 {
			t.Fatalf("WordAt(%d) decodes to %v, Next order says %v (doc %q)", i, got, all[i], s)
		}
	}
	if _, ok := r.WordAt(uint64(len(all)), nil); ok {
		t.Fatalf("WordAt(Count) must fail on %q", s)
	}

	// Seek to a handful of positions and require the exact tuple suffix.
	for _, i := range []int{0, 1, len(all) / 2, len(all) - 1} {
		if i < 0 || i >= len(all) {
			continue
		}
		w, ok := r.WordAt(uint64(i), buf)
		if !ok {
			t.Fatalf("WordAt(%d) failed on %q", i, s)
		}
		buf = w
		if !e.SeekLetters(w) {
			t.Fatalf("SeekLetters rejected WordAt(%d) on %q", i, s)
		}
		rest := e.All()
		if len(rest) != len(all)-i {
			t.Fatalf("after Seek(%d): %d tuples, want %d (doc %q)", i, len(rest), len(all)-i, s)
		}
		for k := range rest {
			if rest[k].Compare(all[i+k]) != 0 {
				t.Fatalf("after Seek(%d) tuple %d: %v, want %v", i, k, rest[k], all[i+k])
			}
		}
	}

	// Sampling returns only genuine results.
	if len(all) > 0 {
		keys := make(map[string]bool, len(all))
		for _, tu := range all {
			keys[tu.Key()] = true
		}
		rng := rand.New(rand.NewSource(int64(len(s))*31 + int64(len(all))))
		for k := 0; k < 8; k++ {
			w, ok := r.SampleWord(rng, buf)
			if !ok {
				t.Fatalf("SampleWord failed with %d results on %q", len(all), s)
			}
			buf = w
			if tu := e.DecodeLetters(w); !keys[tu.Key()] {
				t.Fatalf("sampled %v is not a result on %q", tu, s)
			}
		}
	}
}

func TestRankedVsNextOnPatterns(t *testing.T) {
	patterns := []string{
		"a*x{a*}a*",
		".*x{a+}.*y{b+}.*",
		"x{.*}y{.*}",
		"(a|b)*x{(a|b)+}(a|b)*",
		"[^0-9]*x{[0-9]+}[^0-9]*",
		".*x{a+b}.*",
	}
	alpha := "ab01z"
	r := rand.New(rand.NewSource(555))
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		for trial := 0; trial < 8; trial++ {
			b := make([]byte, r.Intn(12))
			for i := range b {
				b[i] = alpha[r.Intn(len(alpha))]
			}
			checkRankedVsNext(t, a, string(b))
		}
		checkRankedVsNext(t, a, "")
	}
}

func TestRankedVsNextOnRandomAutomata(t *testing.T) {
	r := rand.New(rand.NewSource(556))
	vars := span.NewVarList("x", "y")
	for i := 0; i < 80; i++ {
		a := oracle.RandomFunctionalVSA(r, vars, 5, 14)
		for _, s := range []string{"", "a", "ab", "aab", "abba", "abcab"} {
			checkRankedVsNext(t, a, s)
		}
	}
}

// TestRankCountOverflow builds a result set past 2^64 — k ordered
// disjoint non-empty spans over aᵐ, whose count is the closed form
// C(m+k, 2k) — and requires the exact big.Int value.
func TestRankCountOverflow(t *testing.T) {
	const k, m = 12, 200 // C(212, 24) ≈ 3.9e28 > 2^64
	var sb strings.Builder
	sb.WriteString("a*")
	for i := 1; i <= k; i++ {
		sb.WriteString("x")
		sb.WriteString(string(rune('a' + i - 1)))
		sb.WriteString("{a+}a*")
	}
	a := rgx.MustCompilePattern(sb.String())
	e, err := Prepare(a, strings.Repeat("a", m))
	if err != nil {
		t.Fatal(err)
	}
	c := e.Rank().Count()
	if _, fits := c.Uint64(); fits {
		t.Fatalf("count %v unexpectedly fits uint64", c)
	}
	want := new(big.Int).Binomial(m+k, 2*k)
	if c.BigInt().Cmp(want) != 0 {
		t.Fatalf("count = %v, want C(%d,%d) = %v", c, m+k, 2*k, want)
	}
	if kc := e.CountDoc(strings.Repeat("a", m)); kc.BigInt().Cmp(want) != 0 {
		t.Fatalf("CountDoc = %v, want C(%d,%d) = %v", kc, m+k, 2*k, want)
	}
	// Saturating int view.
	if e.Count() != int(^uint(0)>>1) {
		t.Fatalf("Count() = %d, want MaxInt saturation", e.Count())
	}
	// Direct access works at uint64 indices even though the total does
	// not fit: the first and a deep tuple must be well-formed (ordered
	// disjoint non-empty spans).
	r := e.Rank()
	for _, i := range []uint64{0, 1, 1 << 40, 1 << 63} {
		w, ok := r.WordAt(i, nil)
		if !ok {
			t.Fatalf("WordAt(%d) failed", i)
		}
		tu := e.DecodeLetters(w)
		if len(tu) != k {
			t.Fatalf("tuple arity %d, want %d", len(tu), k)
		}
		prevEnd := 1
		for vi, sp := range tu {
			if sp.Start < prevEnd || sp.End <= sp.Start || sp.End > m+1 {
				t.Fatalf("WordAt(%d) var %d: malformed span %v in %v", i, vi, sp, tu)
			}
			prevEnd = sp.End
		}
	}
	// And sampling from the big-count set yields well-formed tuples.
	rng := rand.New(rand.NewSource(9))
	for j := 0; j < 4; j++ {
		w, ok := r.SampleWord(rng, nil)
		if !ok {
			t.Fatal("SampleWord failed")
		}
		if tu := e.DecodeLetters(w); len(tu) != k {
			t.Fatalf("sampled tuple arity %d", len(tu))
		}
	}
}

// FuzzRankedVsNext is the differential fuzz harness for the ranked
// subsystem: on fuzz-chosen patterns × arbitrary documents, the DP count
// must equal the drain count and ranked access must reproduce the
// enumeration order exactly.
func FuzzRankedVsNext(f *testing.F) {
	patterns := []string{
		"a*x{a*}a*",
		"(a|b)*x{a+}(a|b)*",
		"x{.*}y{.*}",
		"[^0-9]*x{[0-9]+}[^0-9]*",
		".*x{a+b}.*",
		"(a|b)*x{a}y{b?}(a|b)*",
	}
	f.Add(uint8(0), "aaa")
	f.Add(uint8(1), "abba")
	f.Add(uint8(3), "12x34")
	f.Add(uint8(2), "\x00\xffa")
	f.Add(uint8(5), "aabab")
	f.Fuzz(func(t *testing.T, pi uint8, doc string) {
		if len(doc) > 24 {
			doc = doc[:24]
		}
		a := rgx.MustCompilePattern(patterns[int(pi)%len(patterns)])
		checkRankedVsNext(t, a, doc)
	})
}
