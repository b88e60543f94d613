package enum

import (
	"slices"
	"sync"
	"time"

	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Plan is the document-independent compiled state of a functional
// vset-automaton: the trimmed automaton, its closures and the interned
// configuration letters, built by NewPlan, plus the kernels the builds and
// counts read — the byte-class transition table, the level-linking lists
// and the count DFAs — built on first use: the table when the plan's first
// document is swept (by CountDoc or a graph build), the link lists on its
// first graph build, and each count DFA a step at a time by the counts
// that run on it. A query whose documents the prefilter excludes therefore
// builds none of them, and a count-only query never builds the link lists.
// A Plan is safe to share between any number of enumerators and
// goroutines; the corpus compiled-query cache stores one per cached query,
// so the table and link lists are paid for at most once per query however
// many documents, workers and Eval calls consume it, and the count DFAs
// keep every subset a count has determinized for the plan's later counts.
type Plan struct {
	vars      span.VarList
	auto      *vsa.VSA
	cl        *vsa.Closures
	letterOf  []int32
	configs   []vsa.Config
	emptyLang bool
	buildDur  time.Duration

	// table selects the byte-class matrix build. Plans without it
	// (PrepareOnce, PrepareRef) walk charAdj, the character transitions
	// per state, instead.
	table   bool
	charAdj [][]vsa.Tr

	// The transition table, built under sweepOnce; read only after
	// transitions returns.
	sweepOnce sync.Once
	tt        *vsa.TransitionTable

	// The idle count DFAs (CountDoc): a count takes one and puts it back,
	// so concurrent counts never share one (see countDFA).
	dfaMu sync.Mutex
	dfas  []*countDFA

	// The link lists, built under linkOnce (nil above the size cap).
	linkOnce sync.Once
	link     *linkLists
}

// maxLinkListEntries caps the precomputed per-class successor lists at 2²¹
// entries (8 MB of int32s): huge automata (per-document equality automata,
// big joins) skip the precompute and link off the matrix rows instead.
const maxLinkListEntries = 1 << 21

// linkLists is the level-linking accelerator: for every byte class c and
// state p it stores the successor states of M_c's row p pre-sorted by
// (letter, state) — exactly the emission order of the layered graph's
// letter-grouped edges. Linking one node is then a single pass over its
// list with an aliveness filter, no per-node counting sort.
type linkLists struct {
	arena []int32
	span  [][2]int32 // indexed class*n + state
}

// lists returns the pre-sorted successor list of state q under class c.
func (ll *linkLists) list(base int, q int32) []int32 {
	sp := ll.span[base+int(q)]
	return ll.arena[sp[0]:sp[1]]
}

// buildLinkLists materializes the sorted successor lists, or returns nil
// when the automaton is too big for the cap. Each row is counting-sorted
// by letter straight into the arena: AppendOnes lists the row's states
// ascending, so placing them in that order into per-letter runs yields
// (letter, state) order.
func buildLinkLists(tt *vsa.TransitionTable, letterOf []int32, letters, n int) *linkLists {
	total := 0
	for c := 0; c < tt.NumClasses(); c++ {
		m := tt.ClassMat(c)
		if m == nil {
			continue
		}
		for q := 0; q < n; q++ {
			total += m.Row(q).Count()
		}
		if total > maxLinkListEntries {
			return nil
		}
	}
	ll := &linkLists{
		arena: make([]int32, total),
		span:  make([][2]int32, tt.NumClasses()*n),
	}
	next := make([]int32, letters) // letter → its run's next slot; zero between rows
	var row, distinct []int32
	at := int32(0)
	for c := 0; c < tt.NumClasses(); c++ {
		m := tt.ClassMat(c)
		if m == nil {
			continue
		}
		base := c * n
		for q := 0; q < n; q++ {
			row = m.Row(q).AppendOnes(row[:0])
			distinct = distinct[:0]
			for _, p := range row {
				l := letterOf[p]
				if next[l] == 0 {
					distinct = append(distinct, l)
				}
				next[l]++
			}
			slices.Sort(distinct)
			end := at
			for _, l := range distinct {
				next[l], end = end, end+next[l]
			}
			for _, p := range row {
				l := letterOf[p]
				ll.arena[next[l]] = p
				next[l]++
			}
			for _, l := range distinct {
				next[l] = 0
			}
			ll.span[base+q] = [2]int32{at, end}
			at = end
		}
	}
	return ll
}

// NewPlan trims a, verifies functionality, and computes the closures and
// the letter table. The plan's kernels — the byte-class transition table
// and the link lists — are built once, on first use. It returns
// vsa.ErrNotFunctional (wrapped) for non-functional automata.
func NewPlan(a *vsa.VSA) (*Plan, error) {
	return newPlan(a, true)
}

// newPlan is NewPlan with the transition table optional: single-use plans
// (per-document automata, the differential reference) never build the
// table or the link lists, whose cost only pays off across repeated
// builds, and keep the per-state character adjacency instead.
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

// linkLists returns the level-linking lists (nil above the size cap),
// building them on the plan's first graph build.
func (p *Plan) linkLists() *linkLists {
	p.linkOnce.Do(p.buildLinkLists)
	return p.link
}

func (p *Plan) buildLinkLists() {
	p.link = buildLinkLists(p.transitions(), p.letterOf, len(p.configs), p.auto.NumStates())
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
