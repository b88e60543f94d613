package enum

import (
	"sort"
	"time"

	"spanjoin/internal/bitset"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// Plan is the document-independent compiled state of a functional
// vset-automaton: the trimmed automaton, its closures, the interned
// configuration letters, the per-state character adjacency (kept as the
// per-transition reference build's input), and the byte-class compiled
// transition table. A Plan is immutable after NewPlan
// and safe to share between any number of enumerators and goroutines; the
// corpus compiled-query cache stores one per cached query, so its cost —
// including the transition-table construction — is paid exactly once per
// query however many documents, workers and Eval calls consume it.
type Plan struct {
	vars     span.VarList
	auto     *vsa.VSA
	cl       *vsa.Closures
	tt       *vsa.TransitionTable
	link     *linkLists
	letterOf []int32
	// letterMask row l holds the states whose letter is l (table plans
	// only): the count kernel's per-letter split of a state set.
	letterMask *bitset.Matrix
	configs    []vsa.Config
	charAdj    [][]vsa.Tr
	emptyLang  bool
	buildDur   time.Duration
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
// when the automaton is too big for the cap.
func buildLinkLists(tt *vsa.TransitionTable, letterOf []int32, n int) *linkLists {
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
		arena: make([]int32, 0, total),
		span:  make([][2]int32, tt.NumClasses()*n),
	}
	var buf []int32
	for c := 0; c < tt.NumClasses(); c++ {
		m := tt.ClassMat(c)
		if m == nil {
			continue
		}
		base := c * n
		for q := 0; q < n; q++ {
			buf = m.Row(q).AppendOnes(buf[:0])
			// AppendOnes is ascending by state; a stable sort by letter
			// yields (letter, state) order.
			sort.SliceStable(buf, func(i, j int) bool {
				return letterOf[buf[i]] < letterOf[buf[j]]
			})
			start := int32(len(ll.arena))
			ll.arena = append(ll.arena, buf...)
			ll.span[base+q] = [2]int32{start, int32(len(ll.arena))}
		}
	}
	return ll
}

// NewPlan trims a, verifies functionality, and compiles every
// document-independent artifact, including the byte-class transition table.
// It returns vsa.ErrNotFunctional (wrapped) for non-functional automata.
func NewPlan(a *vsa.VSA) (*Plan, error) {
	return newPlan(a, true)
}

// newPlan is NewPlan with the transition table optional: single-use plans
// (per-document automata, the differential reference) skip the table and
// link-list construction, whose cost only pays off across repeated builds.
func newPlan(a *vsa.VSA, withTable bool) (*Plan, error) {
	t0 := time.Now()
	t, ct, err := a.RequireFunctional()
	if err != nil {
		return nil, err
	}
	p := &Plan{vars: t.Vars, auto: t}
	defer func() { p.buildDur = time.Since(t0) }()
	if t.NumStates() == 2 && t.NumTransitions() == 0 && t.Init != t.Final {
		p.emptyLang = true
		return p, nil
	}
	p.cl = t.NewClosures()
	p.letterOf, p.configs = internLetters(t, ct)
	p.charAdj = make([][]vsa.Tr, t.NumStates())
	for q := range p.charAdj {
		for _, tr := range t.Adj[q] {
			if tr.Kind == vsa.KChar {
				p.charAdj[q] = append(p.charAdj[q], tr)
			}
		}
	}
	if withTable {
		p.tt = vsa.NewTransitionTable(t, p.cl)
		p.link = buildLinkLists(p.tt, p.letterOf, t.NumStates())
		p.letterMask = bitset.NewMatrix(len(p.configs), t.NumStates())
		for q, l := range p.letterOf {
			p.letterMask.Row(int(l)).Set(int32(q))
		}
	}
	return p, nil
}

// Vars returns the variable list of the compiled spanner.
func (p *Plan) Vars() span.VarList { return p.vars }

// BuildDuration reports the wall time NewPlan spent compiling this plan
// — the number a plan_build trace span records when the compilation
// actually ran this query (memoized plans are free and record nothing).
func (p *Plan) BuildDuration() time.Duration { return p.buildDur }

// ByteClasses reports the number of byte equivalence classes of the
// compiled transition table (0 for empty-language plans, which carry none).
func (p *Plan) ByteClasses() int {
	if p.tt == nil {
		return 0
	}
	return p.tt.NumClasses()
}

// NewEnumerator returns a fresh enumerator over the plan with its own build
// arenas and cursor. No document is prepared: call Reset before Next.
func (p *Plan) NewEnumerator() *Enumerator {
	e := &Enumerator{
		vars:       p.vars,
		empty:      true, // nothing prepared yet
		emptyLang:  p.emptyLang,
		configs:    p.configs,
		auto:       p.auto,
		cl:         p.cl,
		tt:         p.tt,
		link:       p.link,
		letterOf:   p.letterOf,
		letterMask: p.letterMask,
		charAdj:    p.charAdj,
	}
	if !p.emptyLang {
		e.mergeRow = bitset.NewRow(p.auto.NumStates())
	}
	return e
}

// Prepare builds the layered graph for s on a fresh enumerator of the plan.
func (p *Plan) Prepare(s string) *Enumerator {
	e := p.NewEnumerator()
	e.Reset(s)
	return e
}
