package enum

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"spanjoin/internal/bitset"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Plan is the document-independent compiled state of a functional
// vset-automaton. NewPlan builds only what the functionality verdict
// needs: the trimmed automaton and its configuration table, both linear
// in the automaton. Everything quadratic is built on first use. The plan's
// first swept document (a CountDoc, a graph build or an Accepts) builds,
// under one guard, the interned configuration letters and the byte-class
// transition table, whose build composes the variable-ε closures as lists
// of boundary states and keeps none of them. The build caches and count
// DFAs are built a step at a time by the builds and counts that run on the
// plan. A query whose documents the index or the admission gate stops
// before the first one therefore builds none of them, and a count-only
// query never builds a build cache. A plan made for one document (Prepare,
// as for the per-document automata of equality queries and UCQs) pays its
// kernels and a cold build cache for that document. A Plan is safe to
// share between any number of enumerators and goroutines; the corpus
// compiled-query cache stores one per cached query, so the kernels are
// paid for at most once per query however many documents, workers and
// Eval calls consume them, and the build caches and count DFAs keep every
// level and subset a build or count has computed for the plan's later
// ones. Each idle build cache and count DFA retains at most a constant
// (maxBuildCacheBytes, maxDFABytes), and a plan keeps at most one of each
// per build or count that ran on it at the same time. Template arenas a
// build cache flushed outlive it only while an unreleased graph's current
// build views them (see buildCache).
type Plan struct {
	vars      span.VarList
	auto      *vsa.VSA
	emptyLang bool
	buildDur  time.Duration

	// The kernels, built under sweepOnce from the configuration table ct,
	// which the build then drops; read only after kernels returns.
	sweepOnce sync.Once
	ct        *vsa.ConfigTable
	letterOf  []int32
	configs   []vsa.Config
	tt        *vsa.TransitionTable
	// kernelBytes is what the letter and transition tables hold, stored
	// once they are built; RetainedBytes reads it from other goroutines.
	kernelBytes atomic.Int64

	// The idle build caches (graph builds) and count DFAs (CountDoc): a
	// run takes one and puts it back.
	builds idle[*buildCache]
	dfas   idle[*countDFA]
}

// NewPlan trims a and verifies functionality by the configuration search;
// every kernel — the letter table, the byte-class transition table, the
// build caches and the count DFAs — is built on first use (see Plan). It
// returns vsa.ErrNotFunctional (wrapped) for non-functional automata.
func NewPlan(a *vsa.VSA) (*Plan, error) {
	t0 := time.Now()
	t, ct, err := a.RequireFunctional()
	if err != nil {
		return nil, err
	}
	p := &Plan{vars: t.Vars, auto: t, ct: ct, emptyLang: t.IsEmptyLanguage()}
	p.buildDur = time.Since(t0)
	return p, nil
}

// kernels builds the plan's letter table and transition table the first
// time the plan sweeps a document, and returns the transition table.
// Callers read the table once per document, never per byte.
func (p *Plan) kernels() *vsa.TransitionTable {
	p.sweepOnce.Do(func() {
		p.letterOf, p.configs = internLetters(p.ct, len(p.vars))
		p.ct = nil
		p.tt = vsa.NewTransitionTable(p.auto)
		letters := 4*len(p.letterOf) + len(p.configs)*(sliceHeader+len(p.vars)) // a VarState is a byte
		p.kernelBytes.Store(int64(letters + p.tt.Bytes()))
	})
	return p.tt
}

// RetainedBytes is what the plan keeps between documents beyond its
// automaton: the letter and transition tables once its first document
// built them, and its idle build caches and count DFAs. It is safe to
// call while the plan is in use; a run in progress holds its build cache
// or count DFA outside the plan and is not counted.
func (p *Plan) RetainedBytes() int {
	return int(p.kernelBytes.Load()) + p.builds.sum((*buildCache).retainedBytes) + p.dfas.sum((*countDFA).retainedBytes)
}

// Vars returns the variable list of the compiled spanner.
func (p *Plan) Vars() span.VarList { return p.vars }

// BuildDuration reports the wall time NewPlan spent on the plan's eager
// part — the trim and the functionality check — the number a plan_build
// trace span records when the compilation actually ran this query
// (memoized plans are free and record nothing). The kernels built on
// first use, letter table included, are not: their cost lands in the
// count or enumerate stage of the query whose document first needs them.
func (p *Plan) BuildDuration() time.Duration { return p.buildDur }

// ByteClasses reports the number of byte equivalence classes of the
// compiled transition table, building the table if no document has yet
// (0 for empty-language plans, which never build one).
func (p *Plan) ByteClasses() int {
	if p.emptyLang {
		return 0
	}
	return p.kernels().NumClasses()
}

// Accepts reports whether the tuple t, aligned with Vars, is a result of
// the plan's spanner on s, without enumerating the others. By §4.1 a
// result is one configuration sequence κ_0…κ_|s|: κ_i gives each variable
// w, o or c by where boundary i lies against its span. So Accepts steps
// the boundary states over s through the transition table and keeps, at
// boundary i, only the states whose letter is κ_i; t is a result iff qf
// survives the last boundary. A tuple whose arity is not the plan's, or
// whose spans do not fit s, is no result. The cost is O(n²/w) word
// operations per byte at worst, however many results s has, and a call
// allocates two state rows and one configuration. Like a sweep, the
// plan's first Accepts builds its kernels.
func (p *Plan) Accepts(s string, t span.Tuple) bool {
	if p.emptyLang || len(t) != len(p.vars) {
		return false
	}
	for _, sp := range t {
		if !sp.ValidFor(len(s)) {
			return false
		}
	}
	tt := p.kernels()
	n := p.auto.NumStates()
	cur, next := bitset.NewRow(n), bitset.NewRow(n)
	next.CopyFrom(tt.Start())
	kappa := make(vsa.Config, len(t))
	for i := 0; ; i++ {
		// Keep the states whose letter is κ_i.
		for v, sp := range t {
			switch pos := i + 1; {
			case pos < sp.Start:
				kappa[v] = vsa.W
			case pos < sp.End:
				kappa[v] = vsa.O
			default:
				kappa[v] = vsa.C
			}
		}
		l, ok := slices.BinarySearchFunc(p.configs, kappa, vsa.Config.Compare)
		for q := next.NextOne(0); q >= 0; q = next.NextOne(q + 1) {
			if !ok || p.letterOf[q] != int32(l) {
				next.Clear(q)
			}
		}
		cur, next = next, cur
		if i == len(s) || !cur.Any() {
			return cur.Test(p.auto.Final)
		}
		m := tt.ClassMat(tt.ClassOf(s[i]))
		if m == nil {
			return false
		}
		next.Zero()
		for q := cur.NextOne(0); q >= 0; q = cur.NextOne(q + 1) {
			next.Or(m.Row(int(q)))
		}
	}
}

// NewEnumerator returns a fresh enumerator over the plan with its own
// cursor. No document is prepared: call Reset before Next. The graph
// arenas are drawn on the enumerator's first graph build, so an
// enumerator used only through CountDoc never holds any.
func (p *Plan) NewEnumerator() *Enumerator {
	return &Enumerator{plan: p, empty: true}
}

// Prepare builds the layered graph for s on a fresh enumerator of the plan.
func (p *Plan) Prepare(s string) *Enumerator {
	e := p.NewEnumerator()
	e.Reset(s)
	return e
}
