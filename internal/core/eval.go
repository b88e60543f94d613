package core

import (
	"fmt"
	"time"

	"spanjoin/internal/enum"
	"spanjoin/internal/rel"
	"spanjoin/internal/span"
	"spanjoin/internal/strequal"
	"spanjoin/internal/vsa"
)

// Strategy selects the evaluation plan.
type Strategy int

const (
	// Auto follows the paper's tractability conditions: canonical
	// relational evaluation when every atom is polynomially bounded and the
	// query hypergraph is acyclic (Thm 3.5 / Cor 5.3); compilation to
	// automata otherwise (Thm 3.11 / Cor 5.5).
	Auto Strategy = iota
	// Canonical materializes every atom relation and evaluates relationally.
	Canonical
	// Automata compiles the query into one functional vset-automaton and
	// enumerates it with polynomial delay.
	Automata
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Canonical:
		return "canonical"
	case Automata:
		return "automata"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Options configure evaluation.
type Options struct {
	Strategy Strategy

	// Timeout, Limit and Budget are the resilience knobs. Timeout bounds
	// the whole evaluation wall-clock and Limit caps delivered results;
	// both hold per document (the root package's Eval, Evaluate, Count
	// and Exists) as well as corpus-wide. Budget caps work units
	// (document bytes scanned + results delivered) and is metered by
	// corpus operations only. The canonical plan's up-front
	// materialization cannot be interrupted: a Timeout that fires during
	// it is reported once it ends. Zero values mean unbounded.
	Timeout time.Duration
	Limit   uint64
	Budget  uint64
}

// Enumerate evaluates the CQ on s as its one-disjunct union (see
// UCQ.Enumerate).
func (q *CQ) Enumerate(s string, opts Options) (Iterator, error) {
	return (&UCQ{Disjuncts: []*CQ{q}}).Enumerate(s, opts)
}

// Eval evaluates the CQ and materializes the result.
func (q *CQ) Eval(s string, opts Options) (*rel.Relation, error) {
	it, err := q.Enumerate(s, opts)
	if err != nil {
		return nil, err
	}
	return Drain(it), nil
}

// polyBoundVars is the k of §3.3.2's "at most k variables": an atom with
// at most this many variables counts as polynomially bounded without the
// key-attribute test (|[[α]](s)| ≤ (N+1)^(2v)).
const polyBoundVars = 1

// polyBounded applies the paper's two sufficient conditions (§3.3.2): at
// most k variables for fixed k, or a key attribute (Prop 3.6).
func (a *Atom) polyBounded() bool {
	if len(a.Vars()) <= polyBoundVars {
		return true
	}
	_, ok, err := vsa.HasKeyAttribute(a.Auto)
	return err == nil && ok
}

// evalCanonical is the canonical relational plan: materialize each atom
// relation via the polynomial-delay enumerator, materialize one relation
// per equality atom (polynomial, Cor 5.3), then evaluate with Yannakakis
// when the hypergraph is acyclic, greedy hash joins otherwise.
func (q *CQ) evalCanonical(s string) (*rel.Relation, error) {
	rels := make([]*rel.Relation, 0, len(q.Atoms)+len(q.Equalities))
	for _, a := range q.Atoms {
		vars, tuples, err := enum.Eval(a.Auto, s)
		if err != nil {
			return nil, fmt.Errorf("atom %s: %w", a.Name, err)
		}
		rels = append(rels, rel.FromTuples(vars, tuples))
	}
	for _, eq := range q.Equalities {
		rels = append(rels, equalityRelation(s, eq[0], eq[1]))
	}
	h := q.Hypergraph()
	out := q.OutVars()
	if tree, ok := h.IsAcyclic(); ok {
		if q.IsBoolean() {
			r := rel.NewRelation(nil)
			if rel.YannakakisBoolean(tree, rels) {
				r.Add(span.Tuple{})
			}
			return r, nil
		}
		return rel.Yannakakis(tree, rels, out), nil
	}
	return rel.JoinAllGreedy(rels).Project(out), nil
}

// equalityRelation materializes the relation of the equality atom
// ζ=_{x,y}: all pairs of spans of s with equal substrings, enumerated from
// the longest-common-extension table in O(N³) output size.
func equalityRelation(s, x, y string) *rel.Relation {
	vars := span.NewVarList(x, y)
	xi := vars.Index(x)
	r := rel.NewRelation(vars)
	lce := strequal.LCE(s)
	n := len(s)
	for i := 1; i <= n+1; i++ {
		for j := 1; j <= n+1; j++ {
			maxL := lce[i-1][j-1]
			if m := n + 1 - i; m < maxL {
				maxL = m
			}
			if m := n + 1 - j; m < maxL {
				maxL = m
			}
			for l := 0; l <= maxL; l++ {
				t := make(span.Tuple, 2)
				t[xi] = span.Span{Start: i, End: i + l}
				t[1-xi] = span.Span{Start: j, End: j + l}
				r.Add(t)
			}
		}
	}
	return r
}

func atomAutos(atoms []*Atom) []*vsa.VSA {
	out := make([]*vsa.VSA, len(atoms))
	for i, a := range atoms {
		out[i] = a.Auto
	}
	return out
}

// Plan reports the strategy Enumerate uses under opts: an explicit
// strategy as given, and Auto resolved against the paper's tractability
// conditions — the canonical plan when every disjunct is acyclic and all
// its atoms are polynomially bounded, compilation to automata otherwise.
// Exposed so tools and tests can inspect planning decisions.
func (u *UCQ) Plan(opts Options) Strategy {
	if opts.Strategy != Auto {
		return opts.Strategy
	}
	for _, q := range u.Disjuncts {
		if !q.IsAcyclic() {
			return Automata
		}
		for _, a := range q.Atoms {
			if !a.polyBounded() {
				return Automata
			}
		}
	}
	return Canonical
}

// Enumerate evaluates the UCQ on s under the strategy Plan picks. The
// automata plan compiles the whole union, s's string equalities included,
// into one vset-automaton and enumerates it with polynomial delay —
// duplicates across disjuncts are eliminated inherently. The canonical
// plan materializes the disjuncts' relations, unions them and iterates
// the union sorted.
func (u *UCQ) Enumerate(s string, opts Options) (Iterator, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if u.Plan(opts) == Canonical {
		r, err := u.evalCanonical(s)
		if err != nil {
			return nil, err
		}
		return &sliceIter{vars: r.Vars, tuples: r.Tuples}, nil
	}
	joined, err := u.JoinAtoms()
	if err != nil {
		return nil, err
	}
	return u.EnumerateJoined(joined, s)
}

// Eval evaluates the UCQ and materializes the result.
func (u *UCQ) Eval(s string, opts Options) (*rel.Relation, error) {
	it, err := u.Enumerate(s, opts)
	if err != nil {
		return nil, err
	}
	return Drain(it), nil
}

// evalCanonical adds every further disjunct's canonical relation to the
// first one's and sorts the union.
func (u *UCQ) evalCanonical(s string) (*rel.Relation, error) {
	var out *rel.Relation
	for _, q := range u.Disjuncts {
		r, err := q.evalCanonical(s)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = r
			continue
		}
		for _, t := range r.Tuples {
			out.Add(t)
		}
	}
	out.Sort()
	return out, nil
}

// Compile performs the whole automata plan of a UCQ without string
// equalities once, for every input string: one functional vset-automaton,
// a regular spanner (Thm 3.11), assembled from JoinAtoms' joins as
// EnumerateJoined assembles it per document. A disjunct with equalities
// makes Compile fail: those compile only per input string (Thm 5.4).
func (u *UCQ) Compile() (*vsa.VSA, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	for i, q := range u.Disjuncts {
		if len(q.Equalities) > 0 {
			return nil, fmt.Errorf("core: disjunct %d has string equalities; they compile only per input string (Thm 5.4)", i)
		}
	}
	joined, err := u.JoinAtoms()
	if err != nil {
		return nil, err
	}
	return u.assemble(joined, "")
}

// JoinAtoms performs the document-independent part of the automata plan:
// each disjunct's join of its atom automata (Lemma 3.10), before equality
// selections, projection and union. Callers evaluating a UCQ with string
// equalities over many documents compute it once and pass it to
// EnumerateJoined per document.
func (u *UCQ) JoinAtoms() ([]*vsa.VSA, error) {
	joined := make([]*vsa.VSA, len(u.Disjuncts))
	for i, q := range u.Disjuncts {
		var err error
		if joined[i], err = vsa.JoinAll(atomAutos(q.Atoms)...); err != nil {
			return nil, err
		}
	}
	return joined, nil
}

// EnumerateJoined completes the automata plan for s on joins from
// JoinAtoms of the same UCQ — string-equality compilation (Thm 5.4),
// projection and union — and enumerates the result with polynomial delay.
// The assembled automaton exists for this document only: its plan's
// kernels and build cache serve this one build.
func (u *UCQ) EnumerateJoined(joined []*vsa.VSA, s string) (Iterator, error) {
	a, err := u.assemble(joined, s)
	if err != nil {
		return nil, err
	}
	return enum.Prepare(a, s)
}

// assemble is the automata plan after the joins, for Compile and
// EnumerateJoined alike: each disjunct's join gets s's equality automata
// and, when it binds variables outside the common output, the projection
// onto it (Lemma 3.8); the disjuncts then form one union (Lemma 3.9). A
// disjunct that needs neither stays its join, copied nowhere.
func (u *UCQ) assemble(joined []*vsa.VSA, s string) (*vsa.VSA, error) {
	out := u.OutVars()
	autos := make([]*vsa.VSA, len(joined))
	for i, a := range joined {
		var err error
		if eqs := u.Disjuncts[i].Equalities; len(eqs) > 0 {
			if a, err = strequal.Apply(a, s, eqs); err != nil {
				return nil, err
			}
		}
		if !a.Vars.Equal(out) {
			if a, err = vsa.Project(a, out); err != nil {
				return nil, err
			}
		}
		autos[i] = a
	}
	if len(autos) == 1 {
		return autos[0], nil
	}
	return vsa.Union(autos...)
}
