// Package spanjoin is a document-spanner engine: it extracts relations of
// spans from text with regular expressions extended by capture variables
// ("regex formulas"), and evaluates relational-algebra queries — joins,
// unions, projections and string-equality selections — over those
// extractions.
//
// It is a faithful, production-oriented implementation of
// "Joining Extractions of Regular Expressions" (Freydenberger, Kimelfeld,
// Peterfreund; PODS 2018), including:
//
//   - compilation of regex formulas into functional vset-automata
//     (Lemma 3.4),
//   - enumeration of all matches with polynomial delay and inherent
//     deduplication (Theorem 3.3),
//   - the spanner algebra on automata: Join, Union, Project
//     (Lemmas 3.8–3.10),
//   - conjunctive queries and unions thereof over regex atoms, evaluated
//     either by compiling to a single automaton (Theorem 3.11) or by the
//     canonical relational plan with Yannakakis' algorithm (Theorem 3.5),
//   - string-equality selections compiled per input string (Theorem 5.4).
//
// # Quick start
//
//	sp := spanjoin.MustCompile(`.* mail{user{[a-z]+}@domain{[a-z]+\.[a-z]+}} .*`)
//	matches, _ := sp.Eval(" write to alice@example.org today ")
//	for _, m := range matches {
//	    fmt.Println(m.MustSubstr("mail"))
//	}
//
// Patterns must match the whole document (the paper's semantics); wrap with
// `.*` to search. A pattern must be functional: every variable is bound
// exactly once on every path (e.g. `x{a}|y{b}` is rejected).
package spanjoin

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"spanjoin/internal/core"
	"spanjoin/internal/corpus"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Span is a half-open interval [Start, End⟩ of 1-based positions in a
// document, following the paper's notation: Substr covers positions
// Start … End-1.
type Span = span.Span

// Match is one result tuple: an assignment of a span to every output
// variable, bound to the document it was extracted from.
type Match struct {
	vars  span.VarList
	tuple span.Tuple
	doc   string
}

// Vars lists the variables of the match in sorted order.
func (m Match) Vars() []string { return append([]string(nil), m.vars...) }

// Span returns the span assigned to the variable.
func (m Match) Span(name string) (Span, bool) {
	i := m.vars.Index(name)
	if i < 0 {
		return Span{}, false
	}
	return m.tuple[i], true
}

// Substr returns the substring the variable's span covers.
func (m Match) Substr(name string) (string, bool) {
	p, ok := m.Span(name)
	if !ok {
		return "", false
	}
	return p.Substr(m.doc), true
}

// MustSubstr is Substr for variables known to exist; it panics otherwise.
func (m Match) MustSubstr(name string) string {
	s, ok := m.Substr(name)
	if !ok {
		panic("spanjoin: no variable " + name)
	}
	return s
}

// String renders the match as "x=[i,j⟩(substr) …".
func (m Match) String() string {
	out := ""
	for i, v := range m.vars {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%v(%q)", v, m.tuple[i], m.tuple[i].Substr(m.doc))
	}
	return out
}

// Spanner is a compiled document spanner (a functional vset-automaton).
// Spanners are immutable and safe for concurrent use.
type Spanner struct {
	auto *vsa.VSA
	// req is the literal requirement every matching document must satisfy
	// (empty if none was derived); Iterate uses it to skip non-matching
	// documents without touching the automaton, and the spanner algebra
	// propagates it through composition: Join and Project carry both
	// operands' factors, Union keeps those common to all branches.
	req prefilter.Requirement

	// plan is the memoized document-independent compiled state (trimmed
	// automaton and configuration table; letter table and byte-class
	// transition table once a document is swept), built lazily
	// at most once per Spanner — and therefore at most once per cached
	// corpus query, since the corpus cache stores Spanners.
	planOnce sync.Once
	plan     atomic.Pointer[enum.Plan] // read by the corpus cache's byte count
	planErr  error
}

// compiledPlan memoizes enum.NewPlan over the spanner's automaton. Every
// evaluation path (Iterate, EvalAll, the corpus fan-out) shares it, so
// trimming and the functionality check happen once per Spanner however
// the spanner is driven, and the plan's letters and transition table at
// most once, on first use. built reports whether this call ran
// the compilation — the corpus layer records the plan_build stage only
// then, so cached queries never report a phantom build.
func (s *Spanner) compiledPlan() (p *enum.Plan, built bool, err error) {
	s.planOnce.Do(func() {
		plan, err := enum.NewPlan(s.auto)
		s.plan.Store(plan)
		s.planErr, built = err, true
	})
	return s.plan.Load(), built, s.planErr
}

// Compile parses and compiles a regex-formula pattern.
func Compile(pattern string) (*Spanner, error) {
	f, err := rgx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	a, err := rgx.Compile(f)
	if err != nil {
		return nil, err
	}
	return &Spanner{auto: a, req: prefilter.New(rgx.RequiredLiterals(f.Root)...)}, nil
}

// MustCompile is Compile for statically known patterns; panics on error.
func MustCompile(pattern string) *Spanner {
	s, err := Compile(pattern)
	if err != nil {
		panic(err)
	}
	return s
}

// Vars lists the spanner's capture variables in sorted order.
func (s *Spanner) Vars() []string { return append([]string(nil), s.auto.Vars...) }

// Stats reports automaton size (states, transitions) — useful for
// understanding the cost of composed spanners.
func (s *Spanner) Stats() (states, transitions int) {
	return s.auto.NumStates(), s.auto.NumTransitions()
}

// Eval materializes all matches of the spanner on doc, in the engine's
// deterministic (radix) order. WithTimeout bounds the whole evaluation,
// graph build included, and WithLimit caps the number of materialized
// matches. A fired timeout is reported as context.DeadlineExceeded, never
// as an empty result.
func (s *Spanner) Eval(doc string, opts ...Option) ([]Match, error) {
	return collect(opts, func(ctx context.Context) (*Matches, error) { return s.Iterate(ctx, doc) })
}

// prefilterEmpty reports whether the required-literal prefilter proves
// doc has no matches, sparing the O(n²·|doc|) graph build. It never
// claims emptiness for a spanner whose plan fails to compile, so
// non-functional automata still surface their error from the caller's
// own compile path.
func (s *Spanner) prefilterEmpty(doc string) bool {
	if s.req.IsEmpty() || s.req.Match(doc) {
		return false
	}
	_, _, err := s.compiledPlan()
	return err == nil
}

// Iterate enumerates matches with polynomial delay (Theorem 3.3): the time
// to the first match and between consecutive matches is O(n²·|doc|) for an
// n-state spanner, independent of the result count. ctx is polled inside
// the graph build (amortized, so a pathological document cannot wedge the
// caller before the first match) and by the returned stream; after Next
// returns ok=false, Matches.Err distinguishes cancellation from
// exhaustion.
func (s *Spanner) Iterate(ctx context.Context, doc string) (*Matches, error) {
	if s.prefilterEmpty(doc) {
		return &Matches{ctx: ctx, it: emptyIter{}, vars: s.auto.Vars, doc: doc}, nil
	}
	p, _, err := s.compiledPlan()
	if err != nil {
		return nil, err
	}
	return &Matches{ctx: ctx, it: prepareOn(ctx, p, doc), vars: p.Vars(), doc: doc}, nil
}

// prepareOn builds doc's layered graph on a fresh enumerator over p,
// polling ctx as the build's interrupt: an interrupted build leaves the
// enumerator empty, and ctx's error is the caller's to report. A context
// that can never be done installs no interrupt.
func prepareOn(ctx context.Context, p *enum.Plan, doc string) *enum.Enumerator {
	e := p.NewEnumerator()
	if ctx.Done() != nil {
		e.SetInterrupt(func() bool { return ctx.Err() != nil })
	}
	e.Reset(doc)
	return e
}

// RequiredLiteral exposes the most selective prefilter factor derived at
// compile time: a byte string every matching document must contain, or "".
func (s *Spanner) RequiredLiteral() string { return s.req.Longest() }

// RequiredLiterals exposes the full prefilter requirement: every matching
// document must contain every returned literal. Composed spanners
// accumulate their operands' factors (Join, Project) or keep the common
// ones (Union).
func (s *Spanner) RequiredLiterals() []string { return s.req.Literals() }

// EvalAll evaluates the spanner on every document, returning per-document
// match sets indexed like docs. The batch runs on the corpus layer's shard
// executor, one worker per CPU, each owning one reusable enumerator over
// the shared compiled plan: documents that fail the spanner's
// required-literal prefilter are skipped without building their graphs,
// and a panic while evaluating a document fails the call with a
// *PanicError whose Doc is that document's index in docs. ctx and
// WithTimeout bound the whole batch, graph builds included, and a done
// context or fired timeout returns its error, not a partial result;
// WithLimit caps each document's match set.
func (s *Spanner) EvalAll(ctx context.Context, docs []string, opts ...Option) ([][]Match, error) {
	o := buildOptions(opts)
	ctx, cancel := withDeadline(ctx, &o)
	defer cancel()
	p, _, err := s.compiledPlan()
	if err != nil {
		return nil, err
	}
	tuples, err := corpus.EvalDocs(ctx, p, docs, corpus.EvalOptions{Required: s.req, Limit: o.Limit})
	if err != nil {
		return nil, err
	}
	vars := p.Vars()
	out := make([][]Match, len(docs))
	for i, ts := range tuples {
		ms := make([]Match, len(ts))
		for k, t := range ts {
			ms[k] = Match{vars: vars, tuple: t, doc: docs[i]}
		}
		out[i] = ms
	}
	return out, nil
}

type emptyIter struct{}

func (emptyIter) Next() (span.Tuple, bool) { return nil, false }
func (emptyIter) Vars() span.VarList       { return nil }

// Matches iterates over the result of a spanner or query evaluation on one
// document. It polls the context the evaluation was opened with on the
// first Next and every 64 matches after: once the context is done, the
// stream ends and Err reports the context's error.
type Matches struct {
	ctx  context.Context
	it   core.Iterator
	vars span.VarList
	doc  string
	// consumed is the index of the next match Next will return — the
	// absolute position Skip seeks from, and the poll's stride counter.
	consumed uint64
	err      error
}

// Next returns the next match; ok is false when exhausted or cancelled.
func (ms *Matches) Next() (Match, bool) {
	if !ms.live() {
		return Match{}, false
	}
	t, ok := ms.it.Next()
	if !ok {
		return Match{}, false
	}
	ms.consumed++
	return Match{vars: ms.vars, tuple: t, doc: ms.doc}, true
}

// live polls the stream's context at every 64th position and reports
// whether the stream may go on.
func (ms *Matches) live() bool {
	if ms.err == nil && ms.consumed&63 == 0 {
		ms.err = ms.ctx.Err()
	}
	return ms.err == nil
}

// Vars lists the output variables.
func (ms *Matches) Vars() []string { return append([]string(nil), ms.vars...) }

// Err distinguishes cancellation from exhaustion after Next has returned
// ok=false: the context's error once the stream saw it done, nil when the
// result set ran out.
func (ms *Matches) Err() error { return ms.err }

// collect materializes the matches drain passes on.
func collect(opts []Option, open func(context.Context) (*Matches, error)) ([]Match, error) {
	var out []Match
	if _, err := drain(buildOptions(opts), open, func(m Match) { out = append(out, m) }); err != nil {
		return nil, err
	}
	return out, nil
}

// drain runs one document's evaluation to its end for every method that
// returns a finished result (Eval, Evaluate, Count, Exists): it opens the
// stream under WithTimeout's deadline, passes each match to keep (if set)
// until the stream ends or WithLimit is met, then releases the
// enumerator's graph arenas to the pool the next evaluation draws from.
// It returns how many matches it passed on. A fired deadline is
// context.DeadlineExceeded, never a short result; a met limit is normal
// exhaustion.
func drain(o core.Options, open func(context.Context) (*Matches, error), keep func(Match)) (uint64, error) {
	ctx, cancel := withDeadline(context.Background(), &o)
	defer cancel()
	ms, err := open(ctx)
	if err != nil {
		return 0, err
	}
	if e, ok := ms.it.(*enum.Enumerator); ok {
		defer e.Release()
	}
	var n uint64
	for ; o.Limit == 0 || n < o.Limit; n++ {
		m, ok := ms.Next()
		if !ok {
			return n, ms.Err()
		}
		if keep != nil {
			keep(m)
		}
	}
	return n, nil
}

// Join composes two spanners with the natural join ⋈ (Lemma 3.10): results
// agree on shared variables' spans. The construction is O(v·n⁴); joining
// many spanners multiplies automaton sizes, so prefer Query for larger
// conjunctions.
func Join(a, b *Spanner) (*Spanner, error) {
	j, err := vsa.Join(a.auto, b.auto)
	if err != nil {
		return nil, err
	}
	// A joined match satisfies both operands, so the composed spanner
	// requires both operands' literals.
	return &Spanner{auto: j, req: a.req.And(b.req)}, nil
}

// Union composes spanners with identical variable sets into their union
// (Lemma 3.9); linear time.
func Union(ss ...*Spanner) (*Spanner, error) {
	autos := make([]*vsa.VSA, len(ss))
	reqs := make([]prefilter.Requirement, len(ss))
	for i, s := range ss {
		autos[i] = s.auto
		reqs[i] = s.req
	}
	u, err := vsa.Union(autos...)
	if err != nil {
		return nil, err
	}
	// A union match may come from any branch: only factors every branch
	// requires remain necessary.
	return &Spanner{auto: u, req: prefilter.Or(reqs...)}, nil
}

// Project restricts the spanner to the given variables (Lemma 3.8);
// linear time.
func Project(s *Spanner, vars ...string) (*Spanner, error) {
	p, err := vsa.Project(s.auto, span.NewVarList(vars...))
	if err != nil {
		return nil, err
	}
	// Projection never changes which documents match, only the output
	// schema, so the operand's requirement carries over unchanged.
	return &Spanner{auto: p, req: s.req}, nil
}

// KeyAttribute decides whether x is a key attribute of the spanner
// (Prop 3.6): whether x's span functionally determines the whole match.
// Key attributes guarantee at most O(|doc|²) matches (a "polynomially
// bounded" spanner, §3.3.2).
func (s *Spanner) KeyAttribute(x string) (bool, error) {
	return vsa.KeyAttribute(s.auto, x)
}
