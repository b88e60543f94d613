package enum

import (
	"sync"
	"time"

	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Plan is the document-independent compiled state of a functional
// vset-automaton: the trimmed automaton, its closures and the interned
// configuration letters, built by NewPlan, plus the kernels the builds and
// counts read — the byte-class transition table, the build caches and the
// count DFAs — built on first use: the table when the plan's first
// document is swept (by CountDoc or a graph build), and each build cache
// and count DFA a step at a time by the builds and counts that run on it.
// A query whose documents the prefilter excludes therefore builds none of
// them, and a count-only query never builds a build cache.
// A Plan is safe to share between any number of enumerators and
// goroutines; the corpus compiled-query cache stores one per cached query,
// so the table is paid for at most once per query however many documents,
// workers and Eval calls consume it, and the build caches and count DFAs
// keep every level and subset a build or count has computed for the plan's
// later ones. Each idle build cache and count DFA retains at most a
// constant (maxBuildCacheBytes, maxDFABytes), and a plan keeps at most one
// of each per build or count that ran on it at the same time. Template
// arenas a build cache flushed outlive it only while an unreleased graph's
// current build views them (see buildCache).
type Plan struct {
	vars      span.VarList
	auto      *vsa.VSA
	cl        *vsa.Closures
	letterOf  []int32
	configs   []vsa.Config
	emptyLang bool
	buildDur  time.Duration

	// table selects the cached table build. Plans without it (PrepareOnce,
	// PrepareRef) walk charAdj, the character transitions per state,
	// instead.
	table   bool
	charAdj [][]vsa.Tr

	// The transition table, built under sweepOnce; read only after
	// transitions returns.
	sweepOnce sync.Once
	tt        *vsa.TransitionTable

	// The idle build caches (graph builds) and count DFAs (CountDoc): a
	// run takes one and puts it back.
	builds idle[*buildCache]
	dfas   idle[*countDFA]
}

// NewPlan trims a, verifies functionality, and computes the closures and
// the letter table. The plan's kernels — the byte-class transition table,
// the build caches and the count DFAs — are built on first use. It returns
// vsa.ErrNotFunctional (wrapped) for non-functional automata.
func NewPlan(a *vsa.VSA) (*Plan, error) {
	return newPlan(a, true)
}

// newPlan is NewPlan with the transition table optional: single-use plans
// (per-document automata, the differential reference) never build the
// table or a build cache, whose cost only pays off across repeated builds,
// and keep the per-state character adjacency instead.
func newPlan(a *vsa.VSA, withTable bool) (*Plan, error) {
	t0 := time.Now()
	t, ct, err := a.RequireFunctional()
	if err != nil {
		return nil, err
	}
	p := &Plan{vars: t.Vars, auto: t, table: withTable}
	defer func() { p.buildDur = time.Since(t0) }()
	if t.NumStates() == 2 && t.NumTransitions() == 0 && t.Init != t.Final {
		p.emptyLang = true
		return p, nil
	}
	p.cl = t.NewClosures()
	p.letterOf, p.configs = internLetters(t, ct)
	if !withTable {
		p.charAdj = make([][]vsa.Tr, t.NumStates())
		for q := range p.charAdj {
			for _, tr := range t.Adj[q] {
				if tr.Kind == vsa.KChar {
					p.charAdj[q] = append(p.charAdj[q], tr)
				}
			}
		}
	}
	return p, nil
}

// transitions returns the byte-class transition table, building it the
// first time any enumerator of the plan sweeps a document. Callers read
// it once per document, never per byte.
func (p *Plan) transitions() *vsa.TransitionTable {
	p.sweepOnce.Do(func() { p.tt = vsa.NewTransitionTable(p.auto, p.cl) })
	return p.tt
}

// Vars returns the variable list of the compiled spanner.
func (p *Plan) Vars() span.VarList { return p.vars }

// BuildDuration reports the wall time NewPlan spent on the plan's eager
// part — trim, functionality check, closures and letter table — the
// number a plan_build trace span records when the compilation actually
// ran this query (memoized plans are free and record nothing). The
// kernels built on first use are not included: their cost lands in the
// count or enumerate stage of the query whose document first needs them.
func (p *Plan) BuildDuration() time.Duration { return p.buildDur }

// ByteClasses reports the number of byte equivalence classes of the
// compiled transition table, building the table if no document has yet
// (0 for empty-language plans and plans without a table).
func (p *Plan) ByteClasses() int {
	if p.emptyLang || !p.table {
		return 0
	}
	return p.transitions().NumClasses()
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
