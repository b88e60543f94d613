// Package oracle provides brute-force reference evaluators for regex
// formulas and vset-automata, implemented directly from the ref-word
// definitions of the paper (§2.2) and deliberately sharing no code with the
// fast paths (no variable configurations, no layered graphs). The test
// suites compare every production algorithm against these oracles.
//
// Complexity is exponential in the number of variables and polynomial of
// high degree in |s|; oracles are for small inputs only.
package oracle

import (
	"sort"

	"spanjoin/internal/refword"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// EvalFormula computes [[α]](s) by enumerating every (Vars(α), s)-tuple and
// every interleaving ref-word for it, testing membership in R(α) with a
// memoized structural matcher. Tuples are returned sorted by span.Compare.
func EvalFormula(f *rgx.Formula, s string) []span.Tuple {
	var out []span.Tuple
	m := newMatcher(f.Root)
	forEachTuple(len(s), len(f.Vars), func(t span.Tuple) {
		for _, w := range refword.Interleavings(s, f.Vars, t) {
			if m.matches(w) {
				out = append(out, t.Clone())
				break
			}
		}
	})
	SortTuples(out)
	return out
}

// EvalVSA computes [[A]](s) by enumerating tuples and interleavings and
// testing ref-word acceptance with a plain NFA subset simulation over the
// extended alphabet Σ ∪ Γ_V.
func EvalVSA(a *vsa.VSA, s string) []span.Tuple {
	var out []span.Tuple
	forEachTuple(len(s), len(a.Vars), func(t span.Tuple) {
		for _, w := range refword.Interleavings(s, a.Vars, t) {
			if Accepts(a, w) {
				out = append(out, t.Clone())
				break
			}
		}
	})
	SortTuples(out)
	return out
}

// Accepts reports whether the vset-automaton, viewed as an NFA over
// Σ ∪ Γ_V, accepts the ref-word w.
func Accepts(a *vsa.VSA, w refword.Word) bool {
	cur := epsClosure(a, []int32{a.Init})
	for _, sym := range w {
		var next []int32
		seen := make(map[int32]bool)
		for _, q := range cur {
			for _, t := range a.Adj[q] {
				ok := false
				switch {
				case sym.Op == refword.Terminal && t.Kind == vsa.KChar:
					ok = t.Class.Contains(sym.Byte)
				case sym.Op == refword.OpenVar && t.Kind == vsa.KOpen:
					ok = a.Vars[t.Var] == sym.Var
				case sym.Op == refword.CloseVar && t.Kind == vsa.KClose:
					ok = a.Vars[t.Var] == sym.Var
				}
				if ok && !seen[t.To] {
					seen[t.To] = true
					next = append(next, t.To)
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = epsClosure(a, next)
	}
	for _, q := range cur {
		if q == a.Final {
			return true
		}
	}
	return false
}

func epsClosure(a *vsa.VSA, states []int32) []int32 {
	seen := make(map[int32]bool, len(states))
	out := append([]int32(nil), states...)
	for _, q := range states {
		seen[q] = true
	}
	for i := 0; i < len(out); i++ {
		for _, t := range a.Adj[out[i]] {
			if t.Kind == vsa.KEps && !seen[t.To] {
				seen[t.To] = true
				out = append(out, t.To)
			}
		}
	}
	return out
}

// forEachTuple enumerates every assignment of v spans over a string of
// length n — ((n+1)(n+2)/2)^v tuples.
func forEachTuple(n, v int, fn func(span.Tuple)) {
	all := span.All(n)
	t := make(span.Tuple, v)
	var rec func(int)
	rec = func(i int) {
		if i == v {
			fn(t)
			return
		}
		for _, sp := range all {
			t[i] = sp
			rec(i + 1)
		}
	}
	rec(0)
}

// SortTuples sorts tuples by span.Tuple.Compare, the canonical order used
// when comparing oracle output with production output.
func SortTuples(ts []span.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}

// EqualTupleSets reports whether two tuple slices contain the same tuples,
// ignoring order and multiplicity.
func EqualTupleSets(a, b []span.Tuple) bool {
	am := map[string]bool{}
	for _, t := range a {
		am[t.Key()] = true
	}
	bm := map[string]bool{}
	for _, t := range b {
		bm[t.Key()] = true
	}
	if len(am) != len(bm) {
		return false
	}
	for k := range am {
		if !bm[k] {
			return false
		}
	}
	return true
}

// matcher decides r ∈ R(α) by memoized structural recursion over the AST
// and the ref-word interval [i, j). Nodes are numbered in preorder at
// construction, so the recursion and its memo run on node ids.
type matcher struct {
	nodes []rgx.Node
	kids  [][]int32 // the ids of each node's subformulas, in order
	word  refword.Word
	// memo[(id·(L+1)+i)·(L+1)+j] for a word of length L: 0 unknown,
	// 1 false or in progress, 2 true.
	memo []uint8
}

func newMatcher(root rgx.Node) *matcher {
	m := &matcher{}
	m.index(desugar(root))
	return m
}

// desugar rewrites α+ into α·α* and α? into ε ∨ α so the matcher only
// handles core constructs and every node it recurses into is indexed.
func desugar(n rgx.Node) rgx.Node {
	switch t := n.(type) {
	case rgx.Concat:
		subs := make([]rgx.Node, len(t.Subs))
		for i, c := range t.Subs {
			subs[i] = desugar(c)
		}
		return rgx.Concat{Subs: subs}
	case rgx.Alt:
		subs := make([]rgx.Node, len(t.Subs))
		for i, c := range t.Subs {
			subs[i] = desugar(c)
		}
		return rgx.Alt{Subs: subs}
	case rgx.Star:
		return rgx.Star{Sub: desugar(t.Sub)}
	case rgx.Plus:
		s := desugar(t.Sub)
		return rgx.Concat{Subs: []rgx.Node{s, rgx.Star{Sub: s}}}
	case rgx.Opt:
		return rgx.Alt{Subs: []rgx.Node{rgx.Epsilon{}, desugar(t.Sub)}}
	case rgx.Capture:
		return rgx.Capture{Var: t.Var, Sub: desugar(t.Sub)}
	}
	return n
}

// index numbers n and its subformulas in preorder and returns n's id.
func (m *matcher) index(n rgx.Node) int32 {
	id := int32(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.kids = append(m.kids, nil)
	var subs []rgx.Node
	switch t := n.(type) {
	case rgx.Concat:
		subs = t.Subs
	case rgx.Alt:
		subs = t.Subs
	case rgx.Star:
		subs = []rgx.Node{t.Sub}
	case rgx.Capture:
		subs = []rgx.Node{t.Sub}
	}
	for _, c := range subs {
		k := m.index(c)
		m.kids[id] = append(m.kids[id], k)
	}
	return id
}

func (m *matcher) matches(w refword.Word) bool {
	m.word = w
	L := len(w) + 1
	m.memo = make([]uint8, len(m.nodes)*L*L)
	return m.gen(0, 0, int32(len(w)))
}

func (m *matcher) gen(id, i, j int32) bool {
	L := int32(len(m.word) + 1)
	key := (id*L+i)*L + j
	if v := m.memo[key]; v != 0 {
		return v == 2
	}
	m.memo[key] = 1 // cycle guard (Star with ε-generating sub)
	v := m.genUncached(id, i, j)
	if v {
		m.memo[key] = 2
	}
	return v
}

func (m *matcher) genUncached(id, i, j int32) bool {
	kids := m.kids[id]
	switch t := m.nodes[id].(type) {
	case rgx.Empty:
		return false
	case rgx.Epsilon:
		return i == j
	case rgx.Class:
		return j == i+1 && m.word[i].Op == refword.Terminal && t.C.Contains(m.word[i].Byte)
	case rgx.Concat:
		return m.genSeq(kids, i, j)
	case rgx.Alt:
		for _, c := range kids {
			if m.gen(c, i, j) {
				return true
			}
		}
		return false
	case rgx.Star:
		if i == j {
			return true
		}
		for k := i + 1; k <= j; k++ {
			if m.gen(kids[0], i, k) && m.gen(id, k, j) {
				return true
			}
		}
		return false
	case rgx.Capture:
		if j-i < 2 {
			return false
		}
		if m.word[i].Op != refword.OpenVar || m.word[i].Var != t.Var {
			return false
		}
		if m.word[j-1].Op != refword.CloseVar || m.word[j-1].Var != t.Var {
			return false
		}
		return m.gen(kids[0], i+1, j-1)
	}
	return false
}

func (m *matcher) genSeq(ids []int32, i, j int32) bool {
	if len(ids) == 0 {
		return i == j
	}
	if len(ids) == 1 {
		return m.gen(ids[0], i, j)
	}
	for k := i; k <= j; k++ {
		if m.gen(ids[0], i, k) && m.genSeq(ids[1:], k, j) {
			return true
		}
	}
	return false
}
