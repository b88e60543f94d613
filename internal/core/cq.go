// Package core implements the paper's primary contribution: regex CQs and
// regex UCQs over document spanners (§2.3) and their two evaluation
// strategies —
//
//   - canonical relational evaluation (Thm 3.5, Cor 5.3): materialize each
//     atom's span relation with the polynomial-delay enumerator and evaluate
//     the query with the relational engine (Yannakakis when acyclic),
//   - compilation to automata (Thm 3.11, Cor 5.5): compile projection ∘
//     string-equalities ∘ joins ∘ union into a single functional
//     vset-automaton and enumerate it with polynomial delay,
//
// plus the planner that picks between them along the paper's tractability
// conditions (polynomially bounded atoms + acyclic shape → canonical).
package core

import (
	"fmt"

	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rel"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Atom is one regex atom of a CQ: a functional regex formula with its
// compiled vset-automaton.
type Atom struct {
	// Name labels the atom in errors and plans (e.g. "sen", "adr").
	Name string
	// Formula is the parsed regex formula.
	Formula *rgx.Formula
	// Auto is the compiled functional vset-automaton.
	Auto *vsa.VSA
	// Req is the atom's literal requirement, derived from the formula at
	// compile time (empty for atoms built from bare automata).
	Req prefilter.Requirement
}

// NewAtom parses and compiles a pattern into an atom. The pattern must be a
// functional regex formula.
func NewAtom(name, pattern string) (*Atom, error) {
	f, err := rgx.Parse(pattern)
	if err != nil {
		return nil, fmt.Errorf("atom %s: %w", name, err)
	}
	a, err := rgx.Compile(f)
	if err != nil {
		return nil, fmt.Errorf("atom %s: %w", name, err)
	}
	return &Atom{Name: name, Formula: f, Auto: a, Req: prefilter.New(rgx.RequiredLiterals(f.Root)...)}, nil
}

// AtomFromVSA wraps a prebuilt functional vset-automaton as an atom.
func AtomFromVSA(name string, a *vsa.VSA) (*Atom, error) {
	if !a.IsFunctional() {
		return nil, fmt.Errorf("atom %s: %w", name, vsa.ErrNotFunctional)
	}
	return &Atom{Name: name, Auto: a}, nil
}

// Vars returns the variable set of the atom.
func (a *Atom) Vars() span.VarList { return a.Auto.Vars }

// CQ is a regex CQ with string equalities (§2.3):
//
//	q := π_Y ( ζ=_{x1,y1} … ζ=_{xm,ym} (α1 ⋈ … ⋈ αk) )
type CQ struct {
	Atoms []*Atom
	// Projection is Y; nil projects onto all variables.
	Projection span.VarList
	// Equalities are the binary string-equality selections ζ=_{x,y}.
	Equalities [][2]string
}

// AllVars returns the union of the atom variable sets.
func (q *CQ) AllVars() span.VarList {
	var all span.VarList
	for _, a := range q.Atoms {
		all = all.Union(a.Vars())
	}
	return all
}

// OutVars returns Vars(q): the projection if set, else all variables.
func (q *CQ) OutVars() span.VarList {
	if q.Projection != nil {
		return q.AllVars().Intersect(q.Projection)
	}
	return q.AllVars()
}

// Requirement derives the plan-level literal requirement of the CQ: a
// result tuple joins every atom, so a document must satisfy every atom's
// requirement. Equality selections and the projection only restrict the
// result further — they never weaken the necessity — so the conjunction is
// sound for any evaluation strategy.
func (q *CQ) Requirement() prefilter.Requirement {
	var req prefilter.Requirement
	for _, a := range q.Atoms {
		req = req.And(a.Req)
	}
	return req
}

// Validate checks well-formedness: at least one atom, projection and
// equality variables all bound by regex atoms (the paper requires every
// equality variable to occur in a regex atom).
func (q *CQ) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("core: CQ must have at least one atom")
	}
	all := q.AllVars()
	for _, v := range q.Projection {
		if !all.Contains(v) {
			return fmt.Errorf("core: projection variable %s not bound by any atom", v)
		}
	}
	for _, eq := range q.Equalities {
		if eq[0] == eq[1] {
			return fmt.Errorf("core: ζ=_{%s,%s} is trivial; use distinct variables", eq[0], eq[1])
		}
		for _, v := range eq {
			if !all.Contains(v) {
				return fmt.Errorf("core: equality variable %s not bound by any atom", v)
			}
		}
	}
	return nil
}

// Hypergraph returns the query hypergraph of the CQ mapped to a relational
// CQ: one edge per regex atom and one binary edge per equality atom (§2.3).
func (q *CQ) Hypergraph() *rel.Hypergraph {
	h := &rel.Hypergraph{}
	for _, a := range q.Atoms {
		h.Edges = append(h.Edges, a.Vars())
	}
	for _, eq := range q.Equalities {
		h.Edges = append(h.Edges, span.NewVarList(eq[0], eq[1]))
	}
	return h
}

// IsAcyclic reports alpha-acyclicity of the query hypergraph.
func (q *CQ) IsAcyclic() bool {
	_, ok := q.Hypergraph().IsAcyclic()
	return ok
}

// IsGammaAcyclic reports gamma-acyclicity of the query hypergraph.
func (q *CQ) IsGammaAcyclic() bool { return q.Hypergraph().IsGammaAcyclic() }

// IsBoolean reports whether the CQ projects everything away.
func (q *CQ) IsBoolean() bool { return q.Projection != nil && len(q.Projection) == 0 }

// UCQ is a union of regex CQs with string equalities. By definition every
// disjunct must have the same output variables.
type UCQ struct {
	Disjuncts []*CQ
}

// OutVars returns the common output variable set.
func (u *UCQ) OutVars() span.VarList {
	if len(u.Disjuncts) == 0 {
		return nil
	}
	return u.Disjuncts[0].OutVars()
}

// Requirement derives the UCQ's literal requirement: a result comes from
// some disjunct, so only factors every disjunct requires stay necessary.
func (u *UCQ) Requirement() prefilter.Requirement {
	reqs := make([]prefilter.Requirement, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		reqs[i] = q.Requirement()
	}
	return prefilter.Or(reqs...)
}

// Validate checks every disjunct and the common-schema requirement.
func (u *UCQ) Validate() error {
	if len(u.Disjuncts) == 0 {
		return fmt.Errorf("core: UCQ must have at least one disjunct")
	}
	out := u.Disjuncts[0].OutVars()
	for i, q := range u.Disjuncts {
		if err := q.Validate(); err != nil {
			return fmt.Errorf("disjunct %d: %w", i, err)
		}
		if !q.OutVars().Equal(out) {
			return fmt.Errorf("core: disjunct %d has output %v, want %v (UCQ disjuncts must share Vars)",
				i, q.OutVars(), out)
		}
	}
	return nil
}

// MaxEqualities returns the largest equality count of any disjunct — the m
// of "regex k-UCQ with up to m string equalities" (Cor 5.5).
func (u *UCQ) MaxEqualities() int {
	m := 0
	for _, q := range u.Disjuncts {
		if len(q.Equalities) > m {
			m = len(q.Equalities)
		}
	}
	return m
}

// Iterator yields tuples of a query result. Implementations are the
// polynomial-delay automata-backed enumerator and a materialized-slice
// iterator for the canonical plan.
type Iterator interface {
	// Next returns the next tuple; ok is false when exhausted.
	Next() (span.Tuple, bool)
	// Vars returns the output schema.
	Vars() span.VarList
}

type sliceIter struct {
	vars   span.VarList
	tuples []span.Tuple
	pos    int
}

func (it *sliceIter) Next() (span.Tuple, bool) {
	if it.pos >= len(it.tuples) {
		return nil, false
	}
	t := it.tuples[it.pos]
	it.pos++
	return t, true
}

func (it *sliceIter) Vars() span.VarList { return it.vars }

// Drain collects an iterator into a relation.
func Drain(it Iterator) *rel.Relation {
	r := rel.NewRelation(it.Vars())
	for {
		t, ok := it.Next()
		if !ok {
			return r
		}
		r.Add(t)
	}
}

var _ Iterator = (*enum.Enumerator)(nil)
