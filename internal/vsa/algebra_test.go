package vsa_test

import (
	"math/rand"
	"testing"

	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// TestRandomAutomataAlgebraAgainstOracle: generate random functional
// automata and check Join/Union/Project against the ref-word oracle and
// relational semantics.
func TestRandomAutomataAlgebraAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	vars := span.NewVarList("x", "y")
	strs := []string{"", "a", "b", "ab", "ba"}
	trials := 60
	for i := 0; i < trials; i++ {
		a1 := oracle.RandomFunctionalVSA(r, vars, 4, 10)
		a2 := oracle.RandomFunctionalVSA(r, vars, 4, 10)

		// Union vs oracle.
		u, err := vsa.Union(a1, a2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strs {
			want := append(oracle.EvalVSA(a1, s), oracle.EvalVSA(a2, s)...)
			_, got, err := enum.Eval(u, s)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualTupleSets(got, want) {
				t.Fatalf("trial %d union on %q: got %d, want %d distinct", i, s, len(got), len(dedup(want)))
			}
		}

		// Join vs relational cross-check (shared variable set: spans must
		// coincide on both, i.e. intersection of results).
		j, err := vsa.Join(a1, a2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strs {
			r1 := oracle.EvalVSA(a1, s)
			r2 := oracle.EvalVSA(a2, s)
			in2 := map[string]bool{}
			for _, tu := range r2 {
				in2[tu.Key()] = true
			}
			var want []span.Tuple
			for _, tu := range r1 {
				if in2[tu.Key()] {
					want = append(want, tu)
				}
			}
			_, got, err := enum.Eval(j, s)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualTupleSets(got, want) {
				t.Fatalf("trial %d join on %q: got %d, want %d", i, s, len(got), len(want))
			}
		}

		// Projection vs relational semantics.
		keep := span.NewVarList("x")
		p, err := vsa.Project(a1, keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strs {
			full := oracle.EvalVSA(a1, s)
			seen := map[string]bool{}
			var want []span.Tuple
			xi := vars.Index("x")
			for _, tu := range full {
				pt := span.Tuple{tu[xi]}
				if !seen[pt.Key()] {
					seen[pt.Key()] = true
					want = append(want, pt)
				}
			}
			_, got, err := enum.Eval(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualTupleSets(got, want) {
				t.Fatalf("trial %d projection on %q: got %d, want %d", i, s, len(got), len(want))
			}
		}
	}
}

// TestRandomAutomataEnumerationAgainstOracle: the central algorithm on
// random functional automata with awkward ε/variable structure.
func TestRandomAutomataEnumerationAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	vars := span.NewVarList("x")
	for i := 0; i < 120; i++ {
		a := oracle.RandomFunctionalVSA(r, vars, 5, 12)
		for _, s := range []string{"", "a", "ab", "bba"} {
			want := oracle.EvalVSA(a, s)
			_, got, err := enum.Eval(a, s)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.EqualTupleSets(got, want) {
				t.Fatalf("trial %d on %q: got %v, want %v (automaton %v)", i, s, got, want, a)
			}
		}
	}
}

func dedup(ts []span.Tuple) []span.Tuple {
	seen := map[string]bool{}
	var out []span.Tuple
	for _, tu := range ts {
		if !seen[tu.Key()] {
			seen[tu.Key()] = true
			out = append(out, tu)
		}
	}
	return out
}
