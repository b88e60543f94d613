package enum

import (
	"math/rand"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// randDoc returns a random document over {a, b} (workload.RandomString is
// unavailable here: importing it from an in-package test would cycle back
// through internal/core into enum).
func randDoc(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(2))
	}
	return string(b)
}

func tuplesEqual(a, b []span.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestBitsetPrepareMatchesSliceReference: the bitset engine must produce
// byte-identical enumeration output — same tuples, same radix order — as
// the pre-change slice implementation (refimpl_test.go) on compiled
// patterns over randomized documents.
func TestBitsetPrepareMatchesSliceReference(t *testing.T) {
	patterns := []string{
		"a*x{a*}a*",
		".*x{a+}.*y{b+}.*",
		"x{.*}y{.*}",
		"(a|b)*x{(a|b)+}(a|b)*",
		".*x{a+b}.*",
	}
	r := rand.New(rand.NewSource(777))
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		for trial := 0; trial < 8; trial++ {
			s := randDoc(r, r.Intn(12))
			ref, err := refPrepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Prepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			if ref.empty != e.Empty() {
				t.Fatalf("[[%s]](%q): emptiness disagrees (ref %v, bitset %v)", p, s, ref.empty, e.Empty())
			}
			want := ref.all()
			got := e.All()
			if !tuplesEqual(got, want) {
				t.Fatalf("[[%s]](%q): bitset %v, reference %v", p, s, got, want)
			}
		}
	}
}

// TestBitsetPrepareMatchesReferenceOnRandomAutomata widens the property to
// random functional vset-automata, including ones with unreachable finals
// and ε/variable tangles.
func TestBitsetPrepareMatchesReferenceOnRandomAutomata(t *testing.T) {
	r := rand.New(rand.NewSource(778))
	vars := span.NewVarList("x", "y")
	for i := 0; i < 120; i++ {
		a := oracle.RandomFunctionalVSA(r, vars, 5, 14)
		for _, s := range []string{"", "a", "ab", "aab", "abba"} {
			ref, err := refPrepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Prepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.all()
			got := e.All()
			if !tuplesEqual(got, want) {
				t.Fatalf("trial %d on %q: bitset %v, reference %v", i, s, got, want)
			}
		}
	}
}

// TestResetMatchesFreshPrepare: cycling many documents through one
// enumerator with Reset must yield exactly what a fresh Prepare yields for
// each document — including after documents with empty results, documents
// of different lengths, and the empty document.
func TestResetMatchesFreshPrepare(t *testing.T) {
	r := rand.New(rand.NewSource(779))
	patterns := []string{
		".*x{a+}.*y{b+}.*",
		"a*x{a*}a*",
		"x{.*}y{.*}",
	}
	for _, p := range patterns {
		a := rgx.MustCompilePattern(p)
		var reused *Enumerator
		docs := []string{"", "a", "b"}
		for k := 0; k < 10; k++ {
			docs = append(docs, randDoc(r, r.Intn(20)))
		}
		for _, s := range docs {
			fresh, err := Prepare(a, s)
			if err != nil {
				t.Fatal(err)
			}
			if reused == nil {
				reused, err = Prepare(a, s)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				reused.Reset(s)
			}
			want := fresh.All()
			got := reused.All()
			if !tuplesEqual(got, want) {
				t.Fatalf("[[%s]](%q): reset %v, fresh %v", p, s, got, want)
			}
		}
	}
}

// TestCloneMatchesFreshPrepare: a clone shares compiled state but must
// enumerate independently after its own Reset.
func TestCloneMatchesFreshPrepare(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*")
	base, err := Prepare(a, "aab")
	if err != nil {
		t.Fatal(err)
	}
	c := base.Clone()
	if _, ok := c.Next(); ok {
		t.Fatal("unprepared clone must enumerate nothing")
	}
	c.Reset("aba")
	fresh, err := Prepare(a, "aba")
	if err != nil {
		t.Fatal(err)
	}
	if !tuplesEqual(c.All(), fresh.All()) {
		t.Fatal("clone after Reset disagrees with fresh Prepare")
	}
	// The base enumerator is unaffected by the clone's work.
	fresh2, _ := Prepare(a, "aab")
	if !tuplesEqual(base.All(), fresh2.All()) {
		t.Fatal("clone corrupted its parent")
	}
}

// TestResetAllocsSteadyState: repeated documents through one enumerator
// should allocate almost nothing per document beyond the returned tuples.
func TestResetAllocsSteadyState(t *testing.T) {
	a := rgx.MustCompilePattern(".*x{a+}.*")
	s := randDoc(rand.New(rand.NewSource(5)), 64)
	e, err := Prepare(a, s)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() {
		for {
			if _, ok := e.Next(); !ok {
				return
			}
		}
	}
	// Warm up arenas.
	for i := 0; i < 3; i++ {
		e.Reset(s)
		drain()
	}
	// This assertion gates the cached table build's two passes.
	//
	//spanjoin:allocgate spanjoin/internal/enum.(*buildCache).build
	avg := alloctest.Run(t, 20, func() {
		e.Reset(s)
		drain()
	})
	// The drain discards tuples but each Next still allocates one; the
	// bound asserts the graph build itself is allocation-free.
	e.Reset(s)
	tuples := float64(len(e.All()))
	if avg > tuples+4 {
		t.Fatalf("Reset+drain allocates %.1f per document for %v tuples; want ≈ tuple count", avg, tuples)
	}
}
