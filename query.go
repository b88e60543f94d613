package spanjoin

import (
	"context"
	"fmt"
	"sync"

	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
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

// WithPolyBoundVarLimit sets the variable-count threshold under which an
// atom is assumed polynomially bounded without running the key-attribute
// test (default 1).
func WithPolyBoundVarLimit(k int) Option {
	return func(o *core.Options) { o.PolyBoundVarLimit = k }
}

// Query is a conjunctive query over regex atoms, optionally with
// string-equality predicates and a projection — the paper's regex CQ
// (with string equalities):
//
//	π_Y ( ζ=_{x1,y1} … ζ=_{xm,ym} (α1 ⋈ … ⋈ αk) )
type Query struct {
	cq *core.CQ

	// Document-independent compilation artifacts, memoized per Query (a
	// built Query is immutable): the full automata-plan compilation
	// (equality-free queries), its enum.Plan (closures, letters and
	// byte-class transition table once first used, shared by every corpus
	// worker and Eval call), and
	// the bare atom join (the hoistable prefix of the plan when equalities
	// must still compile per document).
	compileOnce sync.Once
	compiled    *vsa.VSA
	compileErr  error
	planOnce    sync.Once
	plan        *enum.Plan
	planErr     error
	joinOnce    sync.Once
	joined      *vsa.VSA
	joinErr     error
}

// compiledAutomaton memoizes CQ.Compile: joins plus pushed-in projection
// (valid only for equality-free queries).
func (q *Query) compiledAutomaton() (*vsa.VSA, error) {
	q.compileOnce.Do(func() { q.compiled, q.compileErr = q.cq.Compile() })
	return q.compiled, q.compileErr
}

// compiledPlan memoizes the enum.Plan of the compiled automaton, so every
// evaluation of an equality-free query — per document or corpus-wide —
// shares one trimmed automaton, closure set and transition table. built
// reports whether this call ran the compilation (see Spanner.compiledPlan).
func (q *Query) compiledPlan() (p *enum.Plan, built bool, err error) {
	q.planOnce.Do(func() {
		built = true
		auto, err := q.compiledAutomaton()
		if err != nil {
			q.planErr = err
			return
		}
		q.plan, q.planErr = enum.NewPlan(auto)
	})
	return q.plan, built, q.planErr
}

// joinedAtoms memoizes CQ.JoinAtoms: the document-independent join prefix
// of the automata plan.
func (q *Query) joinedAtoms() (*vsa.VSA, error) {
	q.joinOnce.Do(func() { q.joined, q.joinErr = q.cq.JoinAtoms() })
	return q.joined, q.joinErr
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
	a, err := core.AtomFromVSA(name, s.vsa())
	if err != nil {
		b.err = err
		return b
	}
	// The spanner's compile-time requirement transfers to the atom (the
	// automaton alone cannot reproduce it).
	a.Req = s.requirement()
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
// variables yields a Boolean query.
func (b *QueryBuilder) Project(vars ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	b.cq.Projection = span.NewVarList(vars...)
	return b
}

// Build validates and returns the query.
func (b *QueryBuilder) Build() (*Query, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.cq.Validate(); err != nil {
		return nil, err
	}
	return &Query{cq: b.cq}, nil
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
func (q *Query) Vars() []string { return append([]string(nil), q.cq.OutVars()...) }

// RequiredLiterals exposes the query's plan-level prefilter: every result
// document must contain every returned literal (the conjunction of the
// atoms' requirements — a result tuple joins all atoms). Empty when no
// atom yields a factor.
func (q *Query) RequiredLiterals() []string { return q.cq.Requirement().Literals() }

// requirement exposes the prefilter requirement to the corpus layer.
func (q *Query) requirement() prefilter.Requirement { return q.cq.Requirement() }

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
// (see Matches). Under StrategyAutomata (and for k-bounded queries under
// StrategyAuto) the iterator has polynomial delay (Theorem 3.11 /
// Corollary 5.5). The automata plan of an equality-free query builds doc's
// graph on the query's memoized plan, polling ctx inside the build as
// Spanner.Iterate does; with equalities it compiles the memoized atom join
// with doc's equality automaton (Thm 5.4).
func (q *Query) Iterate(ctx context.Context, doc string, opts ...Option) (*Matches, error) {
	o := buildOptions(opts)
	o.Strategy = q.cq.Plan(o)
	var (
		it  core.Iterator
		err error
	)
	switch {
	case o.Strategy == core.Canonical:
		it, err = q.cq.Enumerate(doc, o)
	case len(q.cq.Equalities) > 0:
		var joined *vsa.VSA
		if joined, err = q.joinedAtoms(); err == nil {
			it, err = q.cq.EnumerateJoined(joined, doc)
		}
	default:
		var p *enum.Plan
		if p, _, err = q.compiledPlan(); err == nil {
			it = prepareOn(ctx, p, doc)
		}
	}
	if err != nil {
		return nil, err
	}
	return &Matches{ctx: ctx, it: it, vars: it.Vars(), doc: doc}, nil
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
	ucq *core.UCQ
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
	return &UnionQuery{ucq: u}, nil
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
// Under the automata strategy the entire union compiles into one
// vset-automaton whose enumeration is duplicate free by construction
// (Lemma 3.9 + Theorem 3.3).
func (u *UnionQuery) Iterate(ctx context.Context, doc string, opts ...Option) (*Matches, error) {
	it, err := u.ucq.Enumerate(doc, buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Matches{ctx: ctx, it: it, vars: it.Vars(), doc: doc}, nil
}

// PlannedStrategy reports which strategy Evaluate would use for the given
// options (resolving StrategyAuto against the paper's tractability
// conditions: acyclic shape plus polynomially bounded atoms → canonical).
func (q *Query) PlannedStrategy(opts ...Option) Strategy {
	return q.cq.Plan(buildOptions(opts))
}
