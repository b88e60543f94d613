// Package vsa implements variable-set automata (vset-automata, paper
// §2.2.3): ε-NFAs over Σ extended with transitions labelled by variable
// operations x⊢ (open) and ⊣x (close).
//
// A vset-automaton A over variables V accepts ref-words over Σ ∪ Γ_V; the
// spanner [[A]] maps a string s to the set of (V,s)-tuples µ_r of the valid
// accepted ref-words r with clr(r) = s. The package provides:
//
//   - the automaton model with byte-class character transitions,
//   - variable configurations and the functionality test (Thm 2.7),
//   - trimming, and variable-ε closures as lists of boundary states,
//   - the spanner algebra: projection (Lemma 3.8), union (Lemma 3.9),
//     natural join (Lemma 3.10),
//   - functionalization of arbitrary vset-automata (state × configuration
//     product, exponential in |V| as per Freydenberger [15]),
//   - the key-attribute test (Prop 3.6).
//
// Enumeration of [[A]](s) lives in package enum.
package vsa

import (
	"fmt"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/span"
)

// Kind distinguishes the transition labels of a vset-automaton.
type Kind uint8

const (
	// KEps is an ε-transition.
	KEps Kind = iota
	// KChar is a terminal transition labelled with a byte class ⊆ Σ.
	KChar
	// KOpen is a variable transition labelled x⊢.
	KOpen
	// KClose is a variable transition labelled ⊣x.
	KClose
)

func (k Kind) String() string {
	switch k {
	case KEps:
		return "ε"
	case KChar:
		return "char"
	case KOpen:
		return "open"
	case KClose:
		return "close"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Tr is a single transition. For KChar, Class is the label; for KOpen and
// KClose, Var indexes into the automaton's variable list.
type Tr struct {
	Kind  Kind
	Var   int32
	Class alphabet.Class
	To    int32
}

// VSA is a vset-automaton A = (V, Q, q0, qf, δ) with a single initial and a
// single final state. States are dense integers 0..NumStates()-1; Adj[q]
// lists the outgoing transitions of q.
type VSA struct {
	// Vars is the sorted variable list V; transition Var fields index it.
	Vars span.VarList
	// Adj is the adjacency list: Adj[q] are the transitions leaving q.
	Adj [][]Tr
	// Init and Final are q0 and qf.
	Init, Final int32
}

// New returns an automaton over the given variables with two states:
// state 0 (initial) and state 1 (final), and no transitions. Its language
// is empty until transitions are added.
func New(vars span.VarList) *VSA {
	return &VSA{Vars: vars, Adj: make([][]Tr, 2), Init: 0, Final: 1}
}

// AddState appends a fresh state and returns its id.
func (a *VSA) AddState() int32 {
	a.Adj = append(a.Adj, nil)
	return int32(len(a.Adj) - 1)
}

// NumStates returns |Q|.
func (a *VSA) NumStates() int { return len(a.Adj) }

// NumTransitions returns the total transition count m.
func (a *VSA) NumTransitions() int {
	m := 0
	for _, ts := range a.Adj {
		m += len(ts)
	}
	return m
}

// AddEps adds an ε-transition p → q.
func (a *VSA) AddEps(p, q int32) {
	a.Adj[p] = append(a.Adj[p], Tr{Kind: KEps, To: q})
}

// AddChar adds a terminal transition p → q labelled with the byte class c.
func (a *VSA) AddChar(p int32, c alphabet.Class, q int32) {
	a.Adj[p] = append(a.Adj[p], Tr{Kind: KChar, Class: c, To: q})
}

// AddOpen adds a variable transition p → q labelled x⊢ for the variable
// with index v in a.Vars.
func (a *VSA) AddOpen(p, v, q int32) {
	a.Adj[p] = append(a.Adj[p], Tr{Kind: KOpen, Var: v, To: q})
}

// AddClose adds a variable transition p → q labelled ⊣x.
func (a *VSA) AddClose(p, v, q int32) {
	a.Adj[p] = append(a.Adj[p], Tr{Kind: KClose, Var: v, To: q})
}

// VarIndex returns the index of the named variable, or -1.
func (a *VSA) VarIndex(name string) int32 { return int32(a.Vars.Index(name)) }

// Clone returns a deep copy of the automaton.
func (a *VSA) Clone() *VSA {
	adj := make([][]Tr, len(a.Adj))
	for i, ts := range a.Adj {
		adj[i] = append([]Tr(nil), ts...)
	}
	return &VSA{Vars: append(span.VarList(nil), a.Vars...), Adj: adj, Init: a.Init, Final: a.Final}
}

// Trim returns an equivalent automaton containing only useful states: those
// reachable from Init and co-reachable from Final. If no accepting path
// exists, the result is an empty-language automaton over the same variables.
// Trimming never changes [[A]].
//
// Trim copies only when it drops a state: an automaton that is trim
// already — every automaton rgx.Compile builds for a non-empty formula —
// comes back as a itself. The result may therefore alias a, so callers
// must mutate neither.
func (a *VSA) Trim() *VSA {
	n := len(a.Adj)
	// use[q] has bit 1 when q is reachable and bit 2 when it is co-reachable.
	use := make([]uint8, n)
	stack := make([]int32, 0, 16)
	mark := func(q int32, bit uint8) {
		if use[q]&bit == 0 {
			use[q] |= bit
			stack = append(stack, q)
		}
	}
	mark(a.Init, 1)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range a.Adj[q] {
			mark(t.To, 1)
		}
	}
	// Reverse adjacency for co-reachability, in one arena: after the fill,
	// the sources of q are src[end[q-1]:end[q]].
	end := make([]int32, n+1)
	for _, ts := range a.Adj {
		for _, t := range ts {
			end[t.To+1]++
		}
	}
	for q := 1; q <= n; q++ {
		end[q] += end[q-1]
	}
	src := make([]int32, end[n])
	for p, ts := range a.Adj {
		for _, t := range ts {
			src[end[t.To]] = int32(p)
			end[t.To]++
		}
	}
	mark(a.Final, 2)
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo := int32(0)
		if q > 0 {
			lo = end[q-1]
		}
		for _, p := range src[lo:end[q]] {
			mark(p, 2)
		}
	}
	if use[a.Final]&1 == 0 || use[a.Init]&2 == 0 {
		return New(a.Vars)
	}
	kept := 0
	for _, u := range use {
		if u == 3 {
			kept++
		}
	}
	if kept == n {
		return a
	}
	remap := make([]int32, n)
	out := &VSA{Vars: a.Vars, Adj: make([][]Tr, 0, kept)}
	for q := 0; q < n; q++ {
		remap[q] = -1
		if use[q] == 3 {
			remap[q] = out.AddState()
		}
	}
	// Rebuild adjacency with remapped ids.
	for q := 0; q < n; q++ {
		if remap[q] < 0 {
			continue
		}
		for _, t := range a.Adj[q] {
			if remap[t.To] < 0 {
				continue
			}
			nt := t
			nt.To = remap[t.To]
			out.Adj[remap[q]] = append(out.Adj[remap[q]], nt)
		}
	}
	out.Init = remap[a.Init]
	out.Final = remap[a.Final]
	return out
}

// IsEmptyLanguage reports whether a trimmed automaton has no accepting
// path. Trim turns every automaton whose language is empty into New's two
// unconnected states, so the test is one shape check; an untrimmed
// automaton must be trimmed first.
func (a *VSA) IsEmptyLanguage() bool {
	return a.NumStates() == 2 && a.NumTransitions() == 0 && a.Init != a.Final
}

// String summarizes the automaton for debugging.
func (a *VSA) String() string {
	return fmt.Sprintf("VSA(vars=%v states=%d transitions=%d init=%d final=%d)",
		a.Vars, a.NumStates(), a.NumTransitions(), a.Init, a.Final)
}
