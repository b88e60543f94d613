package rgx

import (
	"spanjoin/internal/vsa"
)

// Compile converts a functional regex formula into an equivalent functional
// vset-automaton in O(|α|) time (Lemma 3.4). The construction is Thompson's,
// operating on the ref-word alphabet: a capture x{β} compiles into an
// x⊢-transition, the fragment for β, and a ⊣x-transition.
//
// Concatenation needs no ε-glue. Every fragment keeps one invariant:
// nothing inside it enters its entry state, and nothing leaves its exit
// state. So a run that reaches a fragment's exit has left the fragment for
// good, and the next part of a concatenation can start at that very state:
// each part of a Concat extends from the previous part's exit, and the
// formula's root from Init. A Class extends by one transition; every
// other node keeps its own entry and exit and is entered by one ε. Star
// and Plus loop back to their body's entry, never to their own entry,
// which the part before them may share. (Collapsing .* into one
// self-looped state would break this: in a*b* both stars would share one
// state and accept (a|b)*.) Every byte-reading transition still leaves a
// state of its own.
//
// Compile returns a *FunctionalityError if the formula is not functional,
// mirroring the paper's convention that regex formulas are functional.
func Compile(f *Formula) (*vsa.VSA, error) {
	root := SimplifyEmpty(f.Root)
	if err := f.checkSimplified(root); err != nil {
		return nil, err
	}
	a := vsa.New(f.Vars)
	if isEmptyNode(root) {
		return a, nil // no transitions: R(A) = ∅
	}
	c := compiler{a: a}
	a.AddEps(c.from(root, a.Init), a.Final)
	return a, nil
}

// CompilePattern parses and compiles a pattern in one step.
func CompilePattern(pattern string) (*vsa.VSA, error) {
	f, err := Parse(pattern)
	if err != nil {
		return nil, err
	}
	return Compile(f)
}

// MustCompilePattern panics on error; for statically known patterns.
func MustCompilePattern(pattern string) *vsa.VSA {
	a, err := CompilePattern(pattern)
	if err != nil {
		panic(err)
	}
	return a
}

type compiler struct {
	a *vsa.VSA
}

// from compiles n as a fragment entered at state s and returns its exit.
func (c *compiler) from(n Node, s int32) int32 {
	switch t := n.(type) {
	case Class:
		e := c.a.AddState()
		c.a.AddChar(s, t.C, e)
		return e
	case Concat:
		for _, sub := range t.Subs {
			s = c.from(sub, s)
		}
		return s
	}
	en, ex := c.frag(n)
	c.a.AddEps(s, en)
	return ex
}

// body compiles n as a fragment with an entry state of its own: a fresh
// one for the nodes that extend from a given state.
func (c *compiler) body(n Node) (entry, exit int32) {
	switch n.(type) {
	case Class, Concat:
		entry = c.a.AddState()
		return entry, c.from(n, entry)
	}
	return c.frag(n)
}

// frag compiles a node that keeps its own entry and exit states.
func (c *compiler) frag(n Node) (start, end int32) {
	a := c.a
	s, e := a.AddState(), a.AddState()
	switch t := n.(type) {
	case Epsilon:
		a.AddEps(s, e)
	case Alt:
		for _, sub := range t.Subs {
			bs, be := c.body(sub)
			a.AddEps(s, bs)
			a.AddEps(be, e)
		}
	case Star:
		bs, be := c.body(t.Sub)
		a.AddEps(s, bs)
		a.AddEps(be, e)
		a.AddEps(s, e)
		a.AddEps(be, bs)
	case Plus:
		bs, be := c.body(t.Sub)
		a.AddEps(s, bs)
		a.AddEps(be, e)
		a.AddEps(be, bs)
	case Opt:
		bs, be := c.body(t.Sub)
		a.AddEps(s, bs)
		a.AddEps(be, e)
		a.AddEps(s, e)
	case Capture:
		bs, be := c.body(t.Sub)
		v := a.VarIndex(t.Var)
		a.AddOpen(s, v, bs)
		a.AddClose(be, v, e)
	default:
		panic("rgx: SimplifyEmpty left an unexpected node")
	}
	return s, e
}
