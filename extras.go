package spanjoin

import (
	"context"
	"fmt"
	"io"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/core"
	"spanjoin/internal/enum"
	"spanjoin/internal/prefilter"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// CompileSearch compiles a pattern for *searching*: the pattern may match
// anywhere in the document, as if wrapped in the paper's Σ*·α·Σ*. This is
// the common mode for extraction tasks, where Compile's whole-document
// semantics would require explicit `.*` padding.
func CompileSearch(pattern string) (*Spanner, error) {
	f, err := rgx.Parse(pattern)
	if err != nil {
		return nil, err
	}
	wrapped := &rgx.Formula{Vars: f.Vars, Root: rgx.Concat{Subs: []rgx.Node{
		rgx.Star{Sub: rgx.Class{C: alphabet.Any()}},
		f.Root,
		rgx.Star{Sub: rgx.Class{C: alphabet.Any()}},
	}}}
	a, err := rgx.Compile(wrapped)
	if err != nil {
		return nil, err
	}
	return &Spanner{auto: a, req: prefilter.New(rgx.RequiredLiterals(f.Root)...)}, nil
}

// MustCompileSearch is CompileSearch for statically known patterns.
func MustCompileSearch(pattern string) *Spanner {
	s, err := CompileSearch(pattern)
	if err != nil {
		panic(err)
	}
	return s
}

// MatchesAt decides whether one specific assignment of spans is a result of
// the spanner on doc, in time O(n²·|doc|) independent of the result count
// (an application of the paper's configuration-sequence view, §4.1). The
// assignment must bind exactly the spanner's variables. The test runs on
// the spanner's memoized plan: the first MatchesAt, like the first Eval,
// builds the plan's transition table, which every later MatchesAt, Eval
// and Count shares.
func (s *Spanner) MatchesAt(doc string, assignment map[string]Span) (bool, error) {
	vars := s.auto.Vars
	if len(assignment) != len(vars) {
		return false, fmt.Errorf("spanjoin: assignment binds %d variables, spanner has %v", len(assignment), vars)
	}
	t := make(span.Tuple, len(vars))
	for i, v := range vars {
		p, ok := assignment[v]
		if !ok {
			return false, fmt.Errorf("spanjoin: assignment missing variable %s", v)
		}
		t[i] = p
	}
	p, _, err := s.compiledPlan()
	if err != nil {
		return false, err
	}
	return p.Accepts(doc, t), nil
}

// EqualAll adds the k-ary string-equality selection ζ=_{x1,…,xk} as a chain
// of binary selections (§5.1 notes the rewriting): all named variables must
// span equal substrings.
func (b *QueryBuilder) EqualAll(vars ...string) *QueryBuilder {
	if b.err != nil {
		return b
	}
	if len(vars) < 2 {
		b.err = fmt.Errorf("spanjoin: EqualAll needs at least two variables")
		return b
	}
	for i := 0; i+1 < len(vars); i++ {
		b.Equal(vars[i], vars[i+1])
	}
	return b
}

// Count returns the exact number of results of the query on doc. An
// equality-free query not forced onto the canonical plan counts as the
// Spanner it compiles into (Spanner.Count: the ranked DP over doc's graph,
// no enumeration, cost independent of the result count), whatever plan
// the Auto planner picks for Evaluate; queries with string equalities
// (whose automata exist per document, Thm 5.4) and forced-canonical plans
// drain the iterator. WithTimeout bounds either leg, the DP leg's graph
// build included, and WithLimit caps the count as it caps a drain.
func (q *Query) Count(doc string, opts ...Option) (MatchCount, error) {
	o := buildOptions(opts)
	if !q.shared(o) {
		n, err := drain(o, func(ctx context.Context) (*Matches, error) { return q.Iterate(ctx, doc, opts...) }, nil)
		if err != nil {
			return MatchCount{}, err
		}
		return MatchCount{u: n}, nil
	}
	sp, _, err := q.compile()
	if err != nil {
		return MatchCount{}, err
	}
	c, err := sp.Count(doc, opts...)
	if n, ok := c.Uint64(); err == nil && o.Limit > 0 && (!ok || n > o.Limit) {
		return MatchCount{u: o.Limit}, nil
	}
	return c, err
}

// Difference returns the matches of a on doc that are not matches of b
// (the spanner difference [[a]](doc) \ [[b]](doc); the paper notes regular
// spanners are closed under difference, §2.2.4). Both spanners must have
// the same variable set. Each candidate is filtered with b's O(n²·|doc|)
// membership test (MatchesAt's) on b's memoized plan, so the stream has
// polynomial delay and b's functionality is checked once.
func Difference(a, b *Spanner, doc string) (*Matches, error) {
	if len(a.auto.Vars) != len(b.auto.Vars) || !a.auto.Vars.Equal(b.auto.Vars) {
		return nil, fmt.Errorf("spanjoin: difference requires identical variable sets, got %v and %v",
			a.auto.Vars, b.auto.Vars)
	}
	bp, _, err := b.compiledPlan()
	if err != nil {
		return nil, err
	}
	inner, err := a.Iterate(context.TODO(), doc)
	if err != nil {
		return nil, err
	}
	return &Matches{
		ctx:  inner.ctx,
		it:   &diffIter{inner: inner.it, b: bp, doc: doc},
		vars: a.auto.Vars,
		doc:  doc,
	}, nil
}

type diffIter struct {
	inner core.Iterator
	b     *enum.Plan
	doc   string
}

func (d *diffIter) Next() (span.Tuple, bool) {
	for {
		t, ok := d.inner.Next()
		if !ok || !d.b.Accepts(d.doc, t) {
			return t, ok
		}
	}
}

func (d *diffIter) Vars() span.VarList { return d.b.Vars() }

// Dot renders the spanner's automaton in Graphviz dot format.
func (s *Spanner) Dot(name string) string { return s.auto.Dot(name) }

// Save writes the compiled spanner to w in a stable text format, so that
// expensive compositions (joins of many atoms) can be cached and reloaded
// with Load.
func (s *Spanner) Save(w io.Writer) error { return s.auto.Encode(w) }

// Load reads a spanner previously written by Save. The automaton is
// verified to be functional before use.
func Load(r io.Reader) (*Spanner, error) {
	a, err := vsa.Decode(r)
	if err != nil {
		return nil, err
	}
	if !a.IsFunctional() {
		return nil, vsa.ErrNotFunctional
	}
	return &Spanner{auto: a}, nil
}
