package vsa

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/span"
)

// closureFromRef is the pre-bitset slice implementation of the variable-ε
// closure (BFS over adjacency with a []bool seen set), kept as the golden
// reference for boundaryClosures.
func closureFromRef(a *VSA, q int32) []int32 {
	seen := make([]bool, len(a.Adj))
	seen[q] = true
	order := []int32{q}
	for i := 0; i < len(order); i++ {
		for _, t := range a.Adj[order[i]] {
			if t.Kind != KChar && !seen[t.To] {
				seen[t.To] = true
				order = append(order, t.To)
			}
		}
	}
	return order
}

// TestClosuresAgainstSliceReference checks the boundary closures against
// the slice BFS on random automata: each list must hold, in ascending
// order, exactly the reference closure's states that read a byte or are
// qf.
func TestClosuresAgainstSliceReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		// Random automaton with a mix of ε, variable and char transitions;
		// sizes cross the 64-state word boundary on later trials.
		n := 2 + rng.Intn(70)
		a := &VSA{Adj: make([][]Tr, n), Init: 0, Final: int32(n - 1)}
		m := rng.Intn(3 * n)
		for k := 0; k < m; k++ {
			p, q := int32(rng.Intn(n)), int32(rng.Intn(n))
			switch rng.Intn(4) {
			case 0:
				a.AddEps(p, q)
			case 1:
				a.AddOpen(p, 0, q)
			case 2:
				a.AddClose(p, 0, q)
			default:
				a.AddChar(p, alphabet.Single('a'), q)
			}
		}
		boundary := make([]bool, n)
		boundary[a.Final] = true
		for q, ts := range a.Adj {
			for _, x := range ts {
				boundary[q] = boundary[q] || x.Kind == KChar
			}
		}
		ve := a.boundaryClosures()
		for q := 0; q < n; q++ {
			var want []int32
			for _, p := range closureFromRef(a, int32(q)) {
				if boundary[p] {
					want = append(want, p)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !slices.Equal(ve[q], want) {
				t.Fatalf("trial %d state %d: got %v want %v", trial, q, ve[q], want)
			}
		}
	}
}

// TestClosures: the boundary closure of a state lists the states its ε-
// and variable transitions reach that read a byte or are qf, itself
// included when it reads one.
func TestClosures(t *testing.T) {
	a := New(span.NewVarList("x"))
	s1 := a.AddState()
	s2 := a.AddState()
	s3 := a.AddState()
	a.AddEps(a.Init, s1)
	a.AddOpen(s1, 0, s2)
	a.AddChar(s2, alphabet.Single('a'), s3)
	a.AddClose(s3, 0, a.Final)
	ve := a.boundaryClosures()
	for _, c := range []struct {
		q    int32
		want []int32
	}{
		{a.Init, []int32{s2}}, // Init, s1 and s2 are reached; only s2 reads
		{s2, []int32{s2}},
		{s3, []int32{a.Final}},
		{a.Final, []int32{a.Final}},
	} {
		if !slices.Equal(ve[c.q], c.want) {
			t.Errorf("boundary VE(%d) = %v, want %v", c.q, ve[c.q], c.want)
		}
	}
}
