package spanjoin

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"spanjoin/internal/core"
	"spanjoin/internal/corpus"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Strategy selects how a query is evaluated.
type Strategy = core.Strategy

const (
	// StrategyAuto follows the paper's tractability conditions: the
	// canonical relational plan when every atom is polynomially bounded and
	// the query is acyclic, compilation to automata otherwise.
	StrategyAuto = core.Auto
	// StrategyCanonical materializes every atom's span relation and
	// evaluates relationally (Yannakakis on acyclic queries).
	StrategyCanonical = core.Canonical
	// StrategyAutomata compiles the query into one vset-automaton and
	// enumerates it with polynomial delay.
	StrategyAutomata = core.Automata
)

// Option configures query evaluation.
type Option func(*core.Options)

// WithStrategy forces an evaluation strategy.
func WithStrategy(s Strategy) Option {
	return func(o *core.Options) { o.Strategy = s }
}

// Query is a conjunctive query over regex atoms, optionally with
// string-equality predicates and a projection — the paper's regex CQ
// (with string equalities):
//
//	π_Y ( ζ=_{x1,y1} … ζ=_{xm,ym} (α1 ⋈ … ⋈ αk) )
//
// It evaluates as its one-disjunct union.
type Query struct {
	cq *core.CQ
	compiled
}

// compiled is the form Query and UnionQuery share: a union of conjunctive
// queries and, memoized on first use (a built query is immutable), the
// Auto planner's verdict and the document-independent part of its
// automata plan. An equality-free union compiles into one automaton
// (core.UCQ.Compile, Theorem 3.11) held as a Spanner, whose plan memo,
// literal prefilter, ranked count and arena release every evaluation on a
// shared plan uses. With string equalities only the disjuncts' atom joins
// are memoized; each document's equality automata complete them
// (Theorem 5.4).
type compiled struct {
	ucq    *core.UCQ
	once   sync.Once
	sp     *Spanner
	joined []*vsa.VSA
	err    error

	autoOnce sync.Once
	auto     core.Strategy
}

// strategy resolves o's strategy as core.UCQ.Plan does, running the Auto
// planner's tests (acyclicity, and a key-attribute product per
// multi-variable atom) once per query.
func (c *compiled) strategy(o core.Options) core.Strategy {
	if o.Strategy != core.Auto {
		return o.Strategy
	}
	c.autoOnce.Do(func() { c.auto = c.ucq.Plan(o) })
	return c.auto
}

// compile memoizes the equality-free union's spanner, or the atom joins of
// a union with equalities; the other result is nil.
func (c *compiled) compile() (*Spanner, []*vsa.VSA, error) {
	c.once.Do(func() {
		if c.ucq.MaxEqualities() > 0 {
			c.joined, c.err = c.ucq.JoinAtoms()
			return
		}
		var a *vsa.VSA
		if a, c.err = c.ucq.Compile(); c.err == nil {
			c.sp = &Spanner{auto: a, req: c.ucq.Requirement()}
		}
	})
	return c.sp, c.joined, c.err
}

// shared reports whether every document runs on the union's one spanner:
// it has no string equalities and o does not force the canonical plan.
// The Auto planner is not consulted — a union it sends to the canonical
// plan per document still shares its spanner in a count or corpus target.
func (c *compiled) shared(o core.Options) bool {
	return c.ucq.MaxEqualities() == 0 && o.Strategy != core.Canonical
}

// iterate opens doc's evaluation under the strategy the planner picks:
// the spanner's stream on the automata plan of a shared union, a
// per-document iterator otherwise.
func (c *compiled) iterate(ctx context.Context, doc string, opts []Option) (*Matches, error) {
	o := buildOptions(opts)
	o.Strategy = c.strategy(o)
	if o.Strategy == core.Automata && c.shared(o) {
		sp, _, err := c.compile()
		if err != nil {
			return nil, err
		}
		return sp.Iterate(ctx, doc)
	}
	it, err := c.docIterator(doc, o)
	if err != nil {
		return nil, err
	}
	return &Matches{ctx: ctx, it: it, vars: it.Vars(), doc: doc}, nil
}

// docIterator evaluates doc on a plan of its own under o's resolved
// strategy: the canonical plan, or the automata plan completed with doc's
// equality automata on the memoized atom joins.
func (c *compiled) docIterator(doc string, o core.Options) (core.Iterator, error) {
	if o.Strategy == core.Canonical {
		return c.ucq.Enumerate(doc, o)
	}
	_, joined, err := c.compile()
	if err != nil {
		return nil, err
	}
	return c.ucq.EnumerateJoined(joined, doc)
}

// docEval is the corpus layer's per-document evaluator for a union that
// is not shared. Each document builds its own iterator, so the liveness
// probe has no long build to interrupt; the emit path already observes
// cancellation per tuple.
func (c *compiled) docEval(o core.Options) corpus.NewDocEval {
	o.Strategy = c.strategy(o)
	return func(func() bool) corpus.DocEval {
		return func(doc string, emit func(span.Tuple) bool) error {
			it, err := c.docIterator(doc, o)
			if err != nil {
				return err
			}
			for {
				t, ok := it.Next()
				if !ok || !emit(t) {
					return nil
				}
			}
		}
	}
}

// QueryBuilder assembles a Query; errors accumulate and surface at Build.
type QueryBuilder struct {
	cq  *core.CQ
	err error
}

// NewQuery starts a query builder.
func NewQuery() *QueryBuilder {
	return &QueryBuilder{cq: &core.CQ{}}
}

// Atom adds a regex atom from a pattern.
func (b *QueryBuilder) Atom(pattern string) *QueryBuilder {
	return b.AtomNamed(fmt.Sprintf("atom%d", len(b.cq.Atoms)+1), pattern)
}

// AtomNamed adds a named regex atom (names appear in error messages).
func (b *QueryBuilder) AtomNamed(name, pattern string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	a, err := core.NewAtom(name, pattern)
	if err != nil {
		b.err = err
		return b
	}
	b.cq.Atoms = append(b.cq.Atoms, a)
	return b
}

// AtomSpanner adds a precompiled spanner as an atom.
func (b *QueryBuilder) AtomSpanner(name string, s *Spanner) *QueryBuilder {
	if b.err != nil {
		return b
	}
	a, err := core.AtomFromVSA(name, s.auto)
	if err != nil {
		b.err = err
		return b
	}
	// The spanner's compile-time requirement transfers to the atom (the
	// automaton alone cannot reproduce it).
	a.Req = s.req
	b.cq.Atoms = append(b.cq.Atoms, a)
	return b
}

// Equal adds the string-equality predicate ζ=_{x,y}: x and y must span
// equal substrings (possibly at different positions). Equality predicates
// are compiled per input string at evaluation time (Theorem 5.4).
func (b *QueryBuilder) Equal(x, y string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	b.cq.Equalities = append(b.cq.Equalities, [2]string{x, y})
	return b
}

// Project restricts the output to the given variables. Projecting onto no
// variables yields a Boolean query: one empty match when the query holds.
func (b *QueryBuilder) Project(vars ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	// Non-nil even when empty: a nil projection outputs every variable.
	b.cq.Projection = append(span.VarList{}, span.NewVarList(vars...)...)
	return b
}

// Build validates and returns the query. The query keeps a copy of the
// builder's state, so later builder calls do not change it.
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.cq.Validate(); err != nil {
		return nil, err
	}
	// slices.Clone keeps an empty non-nil projection non-nil (Boolean).
	cq := &core.CQ{
		Atoms:      slices.Clone(b.cq.Atoms),
		Projection: slices.Clone(b.cq.Projection),
		Equalities: slices.Clone(b.cq.Equalities),
	}
	return &Query{cq: cq, compiled: compiled{ucq: &core.UCQ{Disjuncts: []*core.CQ{cq}}}}, nil
}

// MustBuild panics on error; for statically known queries.
func (b *QueryBuilder) MustBuild() *Query {
	q, err := b.Build()
	if err != nil {
		panic(err)
	}
	return q
}

// Vars lists the output variables.
func (q *Query) Vars() []string { return append([]string(nil), q.ucq.OutVars()...) }

// RequiredLiterals exposes the query's plan-level prefilter: every result
// document must contain every returned literal (the conjunction of the
// atoms' requirements — a result tuple joins all atoms). Empty when no
// atom yields a factor.
func (q *Query) RequiredLiterals() []string { return q.ucq.Requirement().Literals() }

// IsAcyclic reports alpha-acyclicity of the query hypergraph (atoms plus
// equality predicates).
func (q *Query) IsAcyclic() bool { return q.cq.IsAcyclic() }

// IsGammaAcyclic reports gamma-acyclicity of the query hypergraph.
func (q *Query) IsGammaAcyclic() bool { return q.cq.IsGammaAcyclic() }

// Evaluate materializes all result tuples on doc. WithTimeout bounds the
// evaluation and WithLimit caps the tuples, as for Spanner.Eval; the
// canonical plan materializes every atom relation up front, and that
// materialization runs to its end before a fired deadline is reported.
func (q *Query) Evaluate(doc string, opts ...Option) ([]Match, error) {
	return collect(opts, func(ctx context.Context) (*Matches, error) { return q.Iterate(ctx, doc, opts...) })
}

// Iterate evaluates the query and returns a tuple iterator that polls ctx
// (see Matches), on the plan PlannedStrategy reports. The automata plan has
// polynomial delay (Theorem 3.11 / Corollary 5.5): an equality-free query
// runs as the one Spanner it compiles into, memoized on the query — doc's
// graph built on its plan, polling ctx inside the build, after its literal
// prefilter — and a query with equalities completes its memoized atom join
// with doc's equality automaton (Theorem 5.4). The canonical plan
// materializes the result and iterates it sorted.
func (q *Query) Iterate(ctx context.Context, doc string, opts ...Option) (*Matches, error) {
	return q.iterate(ctx, doc, opts)
}

// Exists decides Boolean satisfaction: whether the query has at least one
// result on doc. WithTimeout bounds the decision as for Evaluate.
func (q *Query) Exists(doc string, opts ...Option) (bool, error) {
	o := buildOptions(opts)
	o.Limit = 1
	n, err := drain(o, func(ctx context.Context) (*Matches, error) { return q.Iterate(ctx, doc, opts...) }, nil)
	return n > 0, err
}

func buildOptions(opts []Option) core.Options {
	var o core.Options
	for _, f := range opts {
		f(&o)
	}
	return o
}

// UnionQuery is a union of conjunctive queries (the paper's regex UCQ).
// All disjuncts must share the same output variables.
type UnionQuery struct {
	compiled
}

// NewUnion combines queries into a UCQ.
func NewUnion(qs ...*Query) (*UnionQuery, error) {
	u := &core.UCQ{}
	for _, q := range qs {
		u.Disjuncts = append(u.Disjuncts, q.cq)
	}
	if err := u.Validate(); err != nil {
		return nil, err
	}
	return &UnionQuery{compiled{ucq: u}}, nil
}

// Vars lists the output variables.
func (u *UnionQuery) Vars() []string { return append([]string(nil), u.ucq.OutVars()...) }

// RequiredLiterals exposes the union's prefilter: a result may come from
// any disjunct, so only literals every disjunct requires remain necessary.
func (u *UnionQuery) RequiredLiterals() []string { return u.ucq.Requirement().Literals() }

// Evaluate materializes all result tuples on doc, duplicate free across
// disjuncts. WithTimeout and WithLimit apply as for Query.Evaluate.
func (u *UnionQuery) Evaluate(doc string, opts ...Option) ([]Match, error) {
	return collect(opts, func(ctx context.Context) (*Matches, error) { return u.Iterate(ctx, doc, opts...) })
}

// Iterate evaluates the UCQ and returns a tuple iterator that polls ctx.
// Under the automata strategy the entire union is one vset-automaton
// whose enumeration is duplicate free by construction (Lemma 3.9 +
// Theorem 3.3): an equality-free union compiles it once, memoized on the
// union, and runs it as a Spanner, as Query.Iterate does; with equalities
// the memoized atom joins are completed per document. The canonical
// strategy unions the disjuncts' materialized results.
func (u *UnionQuery) Iterate(ctx context.Context, doc string, opts ...Option) (*Matches, error) {
	return u.iterate(ctx, doc, opts)
}

// PlannedStrategy reports which strategy Evaluate would use for the given
// options (resolving StrategyAuto against the paper's tractability
// conditions: acyclic shape plus polynomially bounded atoms → canonical).
func (q *Query) PlannedStrategy(opts ...Option) Strategy {
	return q.strategy(buildOptions(opts))
}
