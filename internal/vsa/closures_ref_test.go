package vsa

import (
	"math/rand"
	"sort"
	"testing"

	"spanjoin/internal/alphabet"
)

// closureFromRef is the pre-bitset slice implementation of the variable-ε
// closure (BFS over adjacency with a []bool seen set), kept as the golden
// reference for NewClosures.
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

// TestClosuresAgainstSliceReference checks the bitset closure against the
// slice BFS on random automata: same state sets, with the slice views in
// ascending order and the bitset rows agreeing bit for bit.
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
		cl := a.NewClosures()
		for q := 0; q < n; q++ {
			want := closureFromRef(a, int32(q))
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			got, row := cl.VE[q], cl.VEB.Row(q)
			if len(got) != len(want) {
				t.Fatalf("trial %d state %d: got %v want %v", trial, q, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d state %d: got %v want %v", trial, q, got, want)
				}
				if !row.Test(want[i]) {
					t.Fatalf("trial %d state %d: bitset row missing %d", trial, q, want[i])
				}
			}
			if row.Count() != len(want) {
				t.Fatalf("trial %d state %d: bitset row has extra bits", trial, q)
			}
		}
	}
}
