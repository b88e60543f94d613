// Package enum implements the paper's central algorithm (Theorem 3.3):
// enumerating [[A]](s) for a functional vset-automaton A and a string s with
// polynomial delay O(n²·|s|) after O(n²·|s| + m·n) preprocessing.
//
// The algorithm identifies each (V,s)-tuple with its sequence of |s|+1
// variable configurations κ₀…κ_N (§4.1): κ_i is the configuration of the
// run's state immediately before reading σ_{i+1}. It builds a layered graph
// G whose nodes (i,q) mean "A can be in state q after processing σ₁…σ_i and
// any following variable operations", interprets G as an NFA A_G over the
// configuration alphabet K, and enumerates L(A_G) ∩ K^(N+1) in radix order
// without repetition, in the style of Ackerman–Shallit. Distinct tuples
// correspond to distinct strings over K, so deduplication is inherent.
//
// State sets are packed bitset rows (internal/bitset), and all per-
// (state, transition, byte) work happens at compile time: the Plan holds a
// byte-class compiled transition table (vsa.TransitionTable) whose per-class
// matrices pre-compose δ with the variable-ε closure, so the forward pass is
// one fused row×matrix multiply per document position, the backward prune a
// word-parallel intersection test per state, and per-level edges are read
// straight off the matrix rows. Every document-independent artifact
// (trimmed automaton, closures, letter table, transition table) is computed
// once per Plan and shared. An Enumerator is resettable: Reset(s)
// rebuilds the layered graph for a new document into the enumerator's own
// arenas, so streaming many documents through one compiled pattern
// allocates almost nothing per document; transient build scratch is shared
// through a sync.Pool even across fresh Prepare calls.
package enum

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"spanjoin/internal/bitset"
	"spanjoin/internal/nfa"
	"spanjoin/internal/ranked"
	"spanjoin/internal/span"
	"spanjoin/internal/vsa"
)

// GraphNode is one node (i, q) of the layered graph G, tagged with the
// letter (configuration id) that every incoming A_G-transition carries.
type GraphNode struct {
	// State is the automaton state q.
	State int32
	// Letter is the interned id of q's variable configuration; ids are
	// assigned in the radix order w < o < c, so letters compare as ints.
	Letter int32
	// Targets lists successor nodes (indices into the next level), grouped
	// by letter: TargetLetters is sorted ascending and TargetsByLetter[k]
	// are the successors whose letter is TargetLetters[k].
	TargetLetters   []int32
	TargetsByLetter [][]int32
}

// Enumerator enumerates [[A]](s) with polynomial delay. Create it with
// Prepare, then call Next until ok is false. Results are emitted in radix
// order of their configuration strings — a deterministic total order.
//
// An Enumerator owns its graph arenas: Reset(s) rebuilds the layered graph
// for a new document in place, invalidating any in-progress enumeration but
// reusing all buffers. Enumerators are not safe for concurrent use; use
// Clone to give each goroutine its own cursor over the shared compiled
// state.
type Enumerator struct {
	vars    span.VarList
	n       int // |s|
	empty   bool
	configs []vsa.Config // letter id → configuration
	levels  [][]GraphNode
	// start nodes (level 0) grouped by letter, like GraphNode targets
	startLetters  []int32
	startByLetter [][]int32

	// Document-independent compiled state, shared through the Plan by
	// Reset, Clone and every corpus worker.
	auto       *vsa.VSA // trimmed functional automaton
	cl         *vsa.Closures
	tt         *vsa.TransitionTable
	link       *linkLists
	letterOf   []int32
	letterMask *bitset.Matrix
	charAdj    [][]vsa.Tr // character transitions per state
	emptyLang  bool       // the automaton's language is empty for every s
	// refBuild selects the preserved per-transition graph build instead of
	// the byte-class matrix sweep (PrepareRef; differential testing only).
	refBuild bool

	// Persistent graph arenas, resliced and refilled by every build.
	letterArena   []int32
	tgtArena      []int32
	byLetterArena [][]int32

	// rank is the memoized ranked-access DP over the current build
	// (counting, i-th access, sampling — package ranked); built on first
	// use, invalidated by Reset.
	rank *ranked.Rank

	// stop, when set, is polled every interruptStride document positions
	// during graph builds; returning true abandons the build with an empty
	// result. It is the deadline/budget escape hatch for huge documents:
	// the per-tuple paths are already bounded (the corpus emit selects on
	// the context), but a single build is O(n²·|s|) and would otherwise
	// run to completion after its query is dead. Not copied by Clone.
	stop func() bool

	// enumeration state
	started bool
	done    bool
	// pending marks a cursor positioned by SeekLetters on a word not yet
	// handed out: the next Next returns it without advancing first.
	pending  bool
	letters  []int32    // current word κ_0..κ_N
	sets     [][]int32  // sets[i] = node indices at level i consistent with κ_0..κ_i
	setsBuf  [][]int32  // per-level merge buffers backing multi-source sets
	mergeRow bitset.Row // scratch for multi-source set merges
}

// prepScratch holds the transient buffers of one graph build or count:
// forward and backward level rows, the flattened rawEdges arrays, the
// letter grouping counters and the count kernel's level tables. Instances
// are pooled so even fresh Prepare calls reuse the allocations of earlier
// ones.
type prepScratch struct {
	fwd   bitset.Matrix // (N+1)×n: boundary-state sets per level
	alive bitset.Matrix // (N+1)×n: backward-reachability prune
	succ  bitset.Row    // n bits: successor accumulator per state

	stateIdx []int32 // state → node index at the level being linked

	lsArena []int32    // concatenated per-level state lists
	lsSpan  [][2]int32 // lsSpan[i] = [start, end) into lsArena

	// Flattened rawEdges: edgeOwner[k] is the boundary state, edgeSpan[k]
	// its successor range in edgeTgt, lvlEdge[i] the edge range of level i.
	edgeOwner []int32
	edgeSpan  [][2]int32
	edgeTgt   []int32
	lvlEdge   [][2]int32

	// rowStates materializes one matrix row's successor states during level
	// linking (matrix build path only); groupStart tracks group boundaries
	// during single-pass link-list emission.
	rowStates  []int32
	groupStart []int32

	// Letter grouping scratch, sized by the letter count.
	cnt      []int32
	pos      []int32
	distinct []int32

	// The count kernel's two levels of state sets (CountDoc).
	count [2]subsetTable
}

var scratchPool = sync.Pool{New: func() any { return new(prepScratch) }}

// maxScratchRetain caps the bytes a prepScratch may carry back into the
// pool. Scratch arenas grow with the document (the level matrices are
// (N+1)×n bits), so without a cap a single huge document would pin its
// arenas in every pooled scratch for the life of the process; oversized
// scratches are dropped instead, and steady-state memory tracks the
// working set.
const maxScratchRetain = 4 << 20

// scratchDrops counts scratches dropped at the cap (observability + the
// pool-retention regression test).
var scratchDrops atomic.Uint64

// putScratch pools sc for reuse unless its arenas outgrew maxScratchRetain;
// it reports whether sc was pooled.
func putScratch(sc *prepScratch) bool {
	if sc.retainedBytes() > maxScratchRetain {
		scratchDrops.Add(1)
		return false
	}
	scratchPool.Put(sc)
	return true
}

// retainedBytes sums the capacity of every buffer sc would carry back into
// the pool.
func (sc *prepScratch) retainedBytes() int {
	b := 8 * (sc.fwd.CapWords() + sc.alive.CapWords() + cap(sc.succ))
	b += 4 * (cap(sc.stateIdx) + cap(sc.lsArena) + cap(sc.edgeOwner) +
		cap(sc.edgeTgt) + cap(sc.rowStates) + cap(sc.groupStart) +
		cap(sc.cnt) + cap(sc.pos) + cap(sc.distinct))
	b += 8 * (cap(sc.lsSpan) + cap(sc.edgeSpan) + cap(sc.lvlEdge))
	for i := range sc.count {
		b += sc.count[i].retainedBytes()
	}
	return b
}

func (sc *prepScratch) init(n, N, letters int) {
	sc.fwd.Resize(N+1, n)
	sc.alive.Resize(N+1, n)
	if cap(sc.succ) < bitset.WordsFor(n) {
		sc.succ = bitset.NewRow(n)
	} else {
		sc.succ = sc.succ[:bitset.WordsFor(n)]
		sc.succ.Zero()
	}
	sc.stateIdx = grow(sc.stateIdx, n)
	sc.lsArena = sc.lsArena[:0]
	sc.lsSpan = grow(sc.lsSpan, N+1)
	sc.edgeOwner = sc.edgeOwner[:0]
	sc.edgeSpan = sc.edgeSpan[:0]
	sc.edgeTgt = sc.edgeTgt[:0]
	sc.lvlEdge = grow(sc.lvlEdge, N)
	if cap(sc.cnt) < letters {
		sc.cnt = make([]int32, letters) // zeroed; kept zero between uses
	} else {
		sc.cnt = sc.cnt[:letters]
	}
	sc.pos = grow(sc.pos, letters)
}

// levelStates returns the materialized state list of level i.
func (sc *prepScratch) levelStates(i int) []int32 {
	s := sc.lsSpan[i]
	return sc.lsArena[s[0]:s[1]]
}

func (sc *prepScratch) pushLevel(i int, row bitset.Row) {
	start := int32(len(sc.lsArena))
	sc.lsArena = row.AppendOnes(sc.lsArena)
	sc.lsSpan[i] = [2]int32{start, int32(len(sc.lsArena))}
}

// grow reslices s to n elements, reallocating only when capacity is short;
// contents are unspecified (callers overwrite before reading).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// growKeep is grow for slices-of-buffers: surviving elements keep their
// previously grown backing storage.
func growKeep[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

// Prepare trims A, verifies functionality, compiles the plan (closures,
// letter table, byte-class transition table) and builds the layered graph
// for s. It returns vsa.ErrNotFunctional (wrapped) for non-functional
// automata. Callers evaluating many documents through one automaton should
// build the Plan once and reuse it instead.
func Prepare(a *vsa.VSA, s string) (*Enumerator, error) {
	p, err := NewPlan(a)
	if err != nil {
		return nil, err
	}
	return p.Prepare(s), nil
}

// PrepareOnce is Prepare for a single-use automaton — the per-document
// compilation paths (string-equality selections, per-document query
// plans), where the automaton exists for exactly one document. It skips
// the byte-class transition table and link lists, whose construction cost
// can never amortize, and builds the graph with the per-transition pass.
func PrepareOnce(a *vsa.VSA, s string) (*Enumerator, error) {
	p, err := newPlan(a, false)
	if err != nil {
		return nil, err
	}
	e := p.NewEnumerator()
	e.Reset(s)
	return e, nil
}

// PrepareRef is Prepare on the preserved per-transition reference build:
// the returned enumerator constructs its layered graphs by walking each
// frontier state's character transitions and testing byte membership per
// transition — the pre-table implementation — and keeps doing so across
// Reset and Clone. It exists for differential testing and the EB benchmark;
// its output is identical to Prepare's. No transition table is compiled
// (the reference build never reads one).
func PrepareRef(a *vsa.VSA, s string) (*Enumerator, error) {
	p, err := newPlan(a, false)
	if err != nil {
		return nil, err
	}
	e := p.NewEnumerator()
	e.refBuild = true
	e.Reset(s)
	return e, nil
}

// Reset rebuilds the enumerator for a new document, reusing every buffer of
// the previous build. The enumeration restarts from the beginning; tuples
// handed out earlier remain valid (they are freshly allocated), but Levels
// and AsNFA views of the previous document do not.
func (e *Enumerator) Reset(s string) {
	e.started, e.done, e.pending = false, false, false
	e.rank = nil
	e.n = len(s)
	if e.emptyLang {
		e.empty = true
		return
	}
	e.empty = false
	e.build(s)
}

// Clone returns an enumerator sharing e's document-independent compiled
// state (trimmed automaton, closures, letter and transition tables) with
// its own build arenas and cursor, for use from another goroutine. The
// clone has no document prepared: call Reset before Next.
func (e *Enumerator) Clone() *Enumerator {
	c := &Enumerator{
		vars:       e.vars,
		n:          e.n,
		empty:      true, // nothing prepared yet
		emptyLang:  e.emptyLang,
		configs:    e.configs,
		auto:       e.auto,
		cl:         e.cl,
		tt:         e.tt,
		link:       e.link,
		letterOf:   e.letterOf,
		letterMask: e.letterMask,
		charAdj:    e.charAdj,
		refBuild:   e.refBuild,
	}
	if e.auto != nil {
		c.mergeRow = bitset.NewRow(e.auto.NumStates())
	}
	return c
}

// SetInterrupt installs an amortized build-interrupt check: f is polled
// every interruptStride positions while the layered graph is built, and a
// true return abandons the build, leaving the enumerator empty for the
// current document. Corpus workers point f at their query's context (and
// budget), so a deadline that fires mid-build on a pathological document
// stops the O(n²·|s|) sweep instead of letting it run to completion. The
// check is branch-cheap and allocation-free: with f == nil (the default)
// the fast path is unchanged. SetInterrupt(nil) uninstalls.
func (e *Enumerator) SetInterrupt(f func() bool) { e.stop = f }

// interruptStride is how many document positions a build processes
// between interrupt polls — coarse enough that the poll (an atomic ctx
// check, typically) vanishes against the per-position matrix multiply,
// fine enough that a dead query stops within tens of microseconds.
const interruptStride = 4096

// interrupted polls the installed interrupt at the amortized stride.
func (e *Enumerator) interrupted(i int) bool {
	return e.stop != nil && i%interruptStride == interruptStride-1 && e.stop()
}

// build constructs the layered graph for s into e's arenas. It sets e.empty
// when [[A]](s) = ∅. Plans compiled without a table (PrepareOnce, the
// differential reference) take the per-transition pass.
//
//spanjoin:hotpath
func (e *Enumerator) build(s string) {
	if e.refBuild || e.tt == nil {
		e.buildTransitions(s)
		return
	}
	e.buildMatrix(s)
}

// buildMatrix is the byte-class matrix sweep: sweepAlive's forward pass
// and backward prune mark the surviving nodes, and level linking reads
// each node's successor set straight off its precomputed matrix row — no
// per-transition work anywhere; δ, the byte membership tests and the
// variable-ε closure were all folded into the matrices at plan
// compilation.
//
//spanjoin:hotpath
func (e *Enumerator) buildMatrix(s string) {
	tt := e.tt
	n := e.auto.NumStates()
	N := len(s)
	sc := scratchPool.Get().(*prepScratch)
	defer putScratch(sc)
	sc.init(n, N, len(e.configs))
	if !e.sweepAlive(sc, s) || !e.assembleLevels(sc, N) {
		e.markEmpty()
		return
	}

	// Link targets level by level: each alive node's successor set is its
	// matrix row, filtered to alive nodes and grouped by letter into the
	// persistent arenas. With the plan's link lists the grouping order is
	// precomputed per (class, state), so one node links in a single pass;
	// without them (size cap) the row is materialized and counting-sorted.
	e.letterArena = e.letterArena[:0]
	e.tgtArena = e.tgtArena[:0]
	e.byLetterArena = e.byLetterArena[:0]
	for i := 0; i < N; i++ {
		if e.interrupted(i) {
			e.markEmpty()
			return
		}
		for _, q := range sc.levelStates(i + 1) {
			sc.stateIdx[q] = -1
		}
		for j := range e.levels[i+1] {
			sc.stateIdx[e.levels[i+1][j].State] = int32(j)
		}
		if e.link != nil {
			base := tt.ClassOf(s[i]) * n
			for k := range e.levels[i] {
				node := &e.levels[i][k]
				node.TargetLetters, node.TargetsByLetter =
					e.appendGroupsFromList(e.link.list(base, node.State), sc)
			}
			continue
		}
		m := tt.Mat(s[i])
		for k := range e.levels[i] {
			node := &e.levels[i][k]
			sc.rowStates = m.Row(int(node.State)).AppendOnes(sc.rowStates[:0])
			node.TargetLetters, node.TargetsByLetter =
				e.appendLetterGroups(sc.rowStates, sc)
		}
	}

	e.linkStart(sc, N)
}

// sweepAlive runs the matrix build's first two passes over s into sc —
// the part of a build that decides which layered-graph nodes exist. The
// forward pass advances the whole frontier with one fused row×matrix
// multiply per document position (fwd.Row(i+1) = fwd.Row(i) ×
// M_class(s[i])), listing each level's states; the backward prune keeps
// the states from which (N, qf) is reachable, a word-parallel row∩alive
// test per state, leaving alive.Row(i) = the nodes of level i. It reports
// false when no run accepts s or the interrupt fired. buildMatrix links
// the alive nodes into the graph; CountDoc counts words over them.
//
//spanjoin:hotpath
func (e *Enumerator) sweepAlive(sc *prepScratch, s string) bool {
	t, tt := e.auto, e.tt
	N := len(s)

	// Forward pass: fwd.Row(i) = possible boundary states q̂_i.
	cur := sc.fwd.Row(0)
	cur.CopyFrom(e.cl.VEB.Row(int(t.Init)))
	sc.pushLevel(0, cur)
	for i := 0; i < N; i++ {
		if e.interrupted(i) {
			return false
		}
		m := tt.Mat(s[i])
		if m == nil {
			// No transition anywhere accepts this byte: no run consumes it.
			return false
		}
		next := sc.fwd.Row(i + 1)
		m.MulOr(next, sc.fwd.Row(i))
		sc.pushLevel(i+1, next)
	}
	// The last boundary state must be the final state exactly (q̂_N = qf).
	if !sc.fwd.Row(N).Test(t.Final) {
		return false
	}

	// Backward prune: keep nodes from which (N, qf) is reachable — state p
	// at level i survives iff its successor row meets the alive set of
	// level i+1.
	sc.alive.Row(N).Set(t.Final)
	for i := N - 1; i >= 0; i-- {
		if e.interrupted(i) {
			return false
		}
		aliveCur, aliveNext := sc.alive.Row(i), sc.alive.Row(i+1)
		m := tt.Mat(s[i])
		for _, p := range sc.levelStates(i) {
			if m.Row(int(p)).Intersects(aliveNext) {
				aliveCur.Set(p)
			}
		}
	}
	return true
}

// appendGroupsFromList groups the live targets of a pre-sorted
// (letter, state) successor list in one pass: states whose stateIdx is -1
// are skipped, groups close when the letter changes. Storage comes from the
// enumerator's arenas; earlier nodes' slices stay valid across arena growth
// because their contents are written before any later reallocation.
func (e *Enumerator) appendGroupsFromList(list []int32, sc *prepScratch) ([]int32, [][]int32) {
	lstart := len(e.letterArena)
	tstart := len(e.tgtArena)
	starts := sc.groupStart[:0]
	cur := int32(-1)
	for _, q := range list {
		j := sc.stateIdx[q]
		if j < 0 {
			continue
		}
		if l := e.letterOf[q]; l != cur {
			cur = l
			e.letterArena = append(e.letterArena, l)
			starts = append(starts, int32(len(e.tgtArena)))
		}
		e.tgtArena = append(e.tgtArena, j)
	}
	sc.groupStart = starts
	if len(e.tgtArena) == tstart {
		return nil, nil
	}
	letters := e.letterArena[lstart:len(e.letterArena):len(e.letterArena)]
	bstart := len(e.byLetterArena)
	for gi := range starts {
		lo := int(starts[gi])
		hi := len(e.tgtArena)
		if gi+1 < len(starts) {
			hi = int(starts[gi+1])
		}
		e.byLetterArena = append(e.byLetterArena, e.tgtArena[lo:hi:hi])
	}
	return letters, e.byLetterArena[bstart:len(e.byLetterArena):len(e.byLetterArena)]
}

// buildTransitions is the preserved per-transition reference build: it
// walks each frontier state's character adjacency, tests byte membership
// per transition and ORs in closure rows one hit at a time. PrepareRef
// selects it; differential tests cross-validate the matrix sweep against
// it on random automata and documents.
func (e *Enumerator) buildTransitions(s string) {
	t, cl := e.auto, e.cl
	n := t.NumStates()
	N := len(s)
	sc := scratchPool.Get().(*prepScratch)
	defer putScratch(sc)
	sc.init(n, N, len(e.configs))

	// Forward pass: fwd.Row(i) = possible boundary states q̂_i.
	cur := sc.fwd.Row(0)
	cur.CopyFrom(cl.VEB.Row(int(t.Init)))
	sc.pushLevel(0, cur)
	for i := 0; i < N; i++ {
		if e.interrupted(i) {
			e.markEmpty()
			return
		}
		next := sc.fwd.Row(i + 1)
		lvlStart := int32(len(sc.edgeOwner))
		for _, p := range sc.levelStates(i) {
			any := false
			for _, tr := range e.charAdj[p] {
				if !tr.Class.Contains(s[i]) {
					continue
				}
				sc.succ.Or(cl.VEB.Row(int(tr.To)))
				any = true
			}
			if !any {
				continue
			}
			start := int32(len(sc.edgeTgt))
			sc.edgeTgt = sc.succ.AppendOnes(sc.edgeTgt)
			sc.edgeOwner = append(sc.edgeOwner, p)
			sc.edgeSpan = append(sc.edgeSpan, [2]int32{start, int32(len(sc.edgeTgt))})
			next.Or(sc.succ)
			sc.succ.Zero()
		}
		sc.lvlEdge[i] = [2]int32{lvlStart, int32(len(sc.edgeOwner))}
		sc.pushLevel(i+1, next)
	}
	// The last boundary state must be the final state exactly (q̂_N = qf).
	if !sc.fwd.Row(N).Test(t.Final) {
		e.markEmpty()
		return
	}

	// Backward prune: keep nodes from which (N, qf) is reachable.
	sc.alive.Row(N).Set(t.Final)
	for i := N - 1; i >= 0; i-- {
		aliveCur, aliveNext := sc.alive.Row(i), sc.alive.Row(i+1)
		rng := sc.lvlEdge[i]
		for k := rng[0]; k < rng[1]; k++ {
			es := sc.edgeSpan[k]
			for _, q := range sc.edgeTgt[es[0]:es[1]] {
				if aliveNext.Test(q) {
					aliveCur.Set(sc.edgeOwner[k])
					break
				}
			}
		}
	}

	if !e.assembleLevels(sc, N) {
		e.markEmpty()
		return
	}

	// Link targets level by level, grouping successors by letter into the
	// persistent arenas. Edge owners and nodes are both ascending by state,
	// so a lockstep walk pairs them without an index.
	e.letterArena = e.letterArena[:0]
	e.tgtArena = e.tgtArena[:0]
	e.byLetterArena = e.byLetterArena[:0]
	for i := 0; i < N; i++ {
		for _, q := range sc.levelStates(i + 1) {
			sc.stateIdx[q] = -1
		}
		for j := range e.levels[i+1] {
			sc.stateIdx[e.levels[i+1][j].State] = int32(j)
		}
		rng := sc.lvlEdge[i]
		ek := rng[0]
		for k := range e.levels[i] {
			node := &e.levels[i][k]
			for ek < rng[1] && sc.edgeOwner[ek] < node.State {
				ek++
			}
			if ek >= rng[1] || sc.edgeOwner[ek] != node.State {
				node.TargetLetters, node.TargetsByLetter = nil, nil
				continue
			}
			es := sc.edgeSpan[ek]
			node.TargetLetters, node.TargetsByLetter =
				e.appendLetterGroups(sc.edgeTgt[es[0]:es[1]], sc)
			ek++
		}
	}

	e.linkStart(sc, N)
}

// assembleLevels materializes the alive states of every level in ascending
// order (level N is {qf}); it reports false when level 0 died, i.e. no
// accepting path survives the prune. The prune only marks states of the
// level's forward set, so reading the alive row directly yields exactly
// the surviving subsequence of the level's state list.
func (e *Enumerator) assembleLevels(sc *prepScratch, N int) bool {
	e.levels = growKeep(e.levels, N+1)
	for i := 0; i <= N; i++ {
		lvl := e.levels[i][:0]
		sc.rowStates = sc.alive.Row(i).AppendOnes(sc.rowStates[:0])
		for _, q := range sc.rowStates {
			lvl = append(lvl, GraphNode{State: q, Letter: e.letterOf[q]})
		}
		e.levels[i] = lvl
	}
	return len(e.levels[0]) > 0
}

// linkStart groups the virtual initial state's fan-out to every level-0
// node by letter, and sizes the enumeration cursor slices.
func (e *Enumerator) linkStart(sc *prepScratch, N int) {
	for _, q := range sc.levelStates(0) {
		sc.stateIdx[q] = -1
	}
	for k := range e.levels[0] {
		sc.stateIdx[e.levels[0][k].State] = int32(k)
	}
	e.startLetters, e.startByLetter = e.appendLetterGroups(sc.levelStates(0), sc)

	e.letters = grow(e.letters, N+1)
	e.sets = grow(e.sets, N+1)
	e.setsBuf = growKeep(e.setsBuf, N+1)
}

func (e *Enumerator) markEmpty() {
	e.empty = true
	if e.levels != nil {
		e.levels = e.levels[:0]
	}
	e.startLetters, e.startByLetter = nil, nil
}

// appendLetterGroups groups the live targets among the candidate states by
// letter: the returned letters are ascending, and each letter's target list
// holds node indices (stateIdx of the states) in ascending order. Storage
// comes from the enumerator's arenas; states whose stateIdx is -1 are
// skipped. cnt is left zeroed for the next call.
func (e *Enumerator) appendLetterGroups(states []int32, sc *prepScratch) ([]int32, [][]int32) {
	distinct := sc.distinct[:0]
	total := 0
	for _, q := range states {
		if sc.stateIdx[q] < 0 {
			continue
		}
		l := e.letterOf[q]
		if sc.cnt[l] == 0 {
			distinct = append(distinct, l)
		}
		sc.cnt[l]++
		total++
	}
	sc.distinct = distinct
	if total == 0 {
		return nil, nil
	}
	// Insertion sort: the distinct letter count per node is tiny.
	for i := 1; i < len(distinct); i++ {
		for j := i; j > 0 && distinct[j] < distinct[j-1]; j-- {
			distinct[j], distinct[j-1] = distinct[j-1], distinct[j]
		}
	}
	lstart := len(e.letterArena)
	e.letterArena = append(e.letterArena, distinct...)
	letters := e.letterArena[lstart:len(e.letterArena):len(e.letterArena)]

	tstart := len(e.tgtArena)
	e.tgtArena = growTail(e.tgtArena, total)
	bstart := len(e.byLetterArena)
	run := int32(tstart)
	for _, l := range distinct {
		c := sc.cnt[l]
		e.byLetterArena = append(e.byLetterArena, e.tgtArena[run:run+c:run+c])
		sc.pos[l] = run
		run += c
	}
	byLetter := e.byLetterArena[bstart:len(e.byLetterArena):len(e.byLetterArena)]
	for _, q := range states {
		j := sc.stateIdx[q]
		if j < 0 {
			continue
		}
		l := e.letterOf[q]
		e.tgtArena[sc.pos[l]] = j
		sc.pos[l]++
	}
	for _, l := range distinct {
		sc.cnt[l] = 0
	}
	return letters, byLetter
}

// growTail extends s by n elements in place, reallocating geometrically;
// the new elements are overwritten by the caller.
func growTail[T any](s []T, n int) []T {
	need := len(s) + n
	if cap(s) < need {
		ns := make([]T, len(s), max(2*cap(s), need))
		copy(ns, s)
		s = ns
	}
	return s[:need]
}

func internLetters(t *vsa.VSA, ct *vsa.ConfigTable) (letterOf []int32, configs []vsa.Config) {
	n := t.NumStates()
	type entry struct {
		key   string
		cfg   vsa.Config
		state int32
	}
	seen := map[string]bool{}
	var entries []entry
	for q := 0; q < n; q++ {
		cfg := ct.Cfg[q]
		if cfg == nil {
			cfg = make(vsa.Config, len(t.Vars))
		}
		k := cfg.Key()
		if !seen[k] {
			seen[k] = true
			entries = append(entries, entry{key: k, cfg: cfg})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	id := make(map[string]int32, len(entries))
	configs = make([]vsa.Config, len(entries))
	for i, en := range entries {
		id[en.key] = int32(i)
		configs[i] = en.cfg
	}
	letterOf = make([]int32, n)
	for q := 0; q < n; q++ {
		cfg := ct.Cfg[q]
		if cfg == nil {
			cfg = make(vsa.Config, len(t.Vars))
		}
		letterOf[q] = id[cfg.Key()]
	}
	return letterOf, configs
}

// Vars returns the variable list of the underlying spanner; tuples returned
// by Next are aligned with it.
func (e *Enumerator) Vars() span.VarList { return e.vars }

// Empty reports whether [[A]](s) = ∅, known after preprocessing.
func (e *Enumerator) Empty() bool { return e.empty }

// Next returns the next tuple in radix order. ok is false when the
// enumeration is exhausted.
//
//spanjoin:hotpath
func (e *Enumerator) Next() (t span.Tuple, ok bool) {
	if e.empty || e.done {
		return nil, false
	}
	if e.pending {
		// SeekLetters parked the cursor on a not-yet-emitted word.
		e.pending = false
		return e.decode(), true
	}
	if !e.started {
		e.started = true
		if !e.minString(0) {
			e.done = true
			return nil, false
		}
		return e.decode(), true
	}
	if !e.nextString() {
		e.done = true
		return nil, false
	}
	return e.decode(), true
}

// searchLetters returns the first index with letters[k] >= letter.
func searchLetters(letters []int32, letter int32) int {
	lo, hi := 0, len(letters)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if letters[mid] < letter {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// minLetterInto returns the minimal letter available into level l given
// S_{l-1} (or the virtual start when l == 0); ok is false if none.
func (e *Enumerator) minLetterInto(l int) (int32, bool) {
	if l == 0 {
		if len(e.startLetters) == 0 {
			return -1, false
		}
		return e.startLetters[0], true
	}
	best := int32(-1)
	for _, u := range e.sets[l-1] {
		ls := e.levels[l-1][u].TargetLetters
		if len(ls) > 0 && (best < 0 || ls[0] < best) {
			best = ls[0]
		}
	}
	return best, best >= 0
}

// nextLetterInto returns the minimal available letter strictly greater than
// after; ok is false if none.
func (e *Enumerator) nextLetterInto(l int, after int32) (int32, bool) {
	if l == 0 {
		k := searchLetters(e.startLetters, after+1)
		if k == len(e.startLetters) {
			return -1, false
		}
		return e.startLetters[k], true
	}
	best := int32(-1)
	for _, u := range e.sets[l-1] {
		ls := e.levels[l-1][u].TargetLetters
		k := searchLetters(ls, after+1)
		if k < len(ls) && (best < 0 || ls[k] < best) {
			best = ls[k]
		}
	}
	return best, best >= 0
}

// setLevel fixes κ_l := letter and recomputes S_l from S_{l-1}. A single
// contributing target list is aliased directly; multi-source unions go
// through the merge bitset row and the level's reusable buffer, so steady-
// state enumeration does not allocate.
func (e *Enumerator) setLevel(l int, letter int32) {
	e.letters[l] = letter
	if l == 0 {
		k := searchLetters(e.startLetters, letter)
		if k < len(e.startLetters) && e.startLetters[k] == letter {
			e.sets[0] = e.startByLetter[k]
		} else {
			e.sets[0] = nil
		}
		return
	}
	var single []int32
	merged := false
	for _, u := range e.sets[l-1] {
		node := &e.levels[l-1][u]
		k := searchLetters(node.TargetLetters, letter)
		if k >= len(node.TargetLetters) || node.TargetLetters[k] != letter {
			continue
		}
		lst := node.TargetsByLetter[k]
		if single == nil && !merged {
			single = lst
			continue
		}
		if !merged {
			merged = true
			e.mergeRow.Zero()
			for _, v := range single {
				e.mergeRow.Set(v)
			}
		}
		for _, v := range lst {
			e.mergeRow.Set(v)
		}
	}
	if !merged {
		e.sets[l] = single
		return
	}
	buf := e.mergeRow.AppendOnes(e.setsBuf[l][:0])
	e.setsBuf[l] = buf
	e.sets[l] = buf
}

// minString completes the word with the radix-minimal suffix from level l on.
// Every graph node reaches (N, qf) (backward pruning), so it always succeeds
// when S_{l-1} is non-empty.
func (e *Enumerator) minString(l int) bool {
	for i := l; i <= e.n; i++ {
		letter, ok := e.minLetterInto(i)
		if !ok {
			return false
		}
		e.setLevel(i, letter)
	}
	return true
}

// nextString advances to the radix-next word: it finds the rightmost
// position whose letter can be increased, increases it minimally, and
// completes with minString.
func (e *Enumerator) nextString() bool {
	for i := e.n; i >= 0; i-- {
		letter, ok := e.nextLetterInto(i, e.letters[i])
		if !ok {
			continue
		}
		e.setLevel(i, letter)
		if e.minString(i + 1) {
			return true
		}
	}
	return false
}

// decode converts the current configuration word κ_0..κ_N into a tuple:
// µ(x) = [i+1, j+1⟩ with i minimal such that κ_i(x) ≠ w and j minimal such
// that κ_j(x) = c.
func (e *Enumerator) decode() span.Tuple {
	t := make(span.Tuple, len(e.vars))
	for vi := range e.vars {
		start, end := -1, -1
		for i := 0; i <= e.n; i++ {
			st := e.configs[e.letters[i]][vi]
			if start < 0 && st != vsa.W {
				start = i + 1
			}
			if end < 0 && st == vsa.C {
				end = i + 1
				break
			}
		}
		t[vi] = span.Span{Start: start, End: end}
	}
	return t
}

// All drains the enumerator and returns every tuple.
func (e *Enumerator) All() []span.Tuple {
	var out []span.Tuple
	for {
		t, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Count returns the number of tuples of [[A]](s) via the ranked DP — no
// enumeration, cost independent of the result count — and leaves the
// cursor untouched: Count followed by All still yields every tuple.
// Counts beyond MaxInt saturate to MaxInt; use Rank().Count() where exact
// big counts matter.
func (e *Enumerator) Count() int {
	c := e.Rank().Count()
	if u, ok := c.Uint64(); ok && u <= uint64(math.MaxInt) {
		return int(u)
	}
	return math.MaxInt
}

// Rank returns the ranked-access DP over the current build (package
// ranked): exact result counting, direct access to the i-th tuple's word
// and uniform word sampling, all without enumeration. It is computed on
// first use and memoized until the next Reset; building it does not
// disturb the enumeration cursor. The returned Rank views the current
// graph — it is invalidated, like Levels, by Reset.
func (e *Enumerator) Rank() *ranked.Rank {
	if e.rank == nil {
		e.rank = ranked.Build(graphView{e})
	}
	return e.rank
}

// RankBuilt reports whether the ranked DP is already memoized for the
// current build — Rank would return it without construction. Callers
// choosing between a DAG descent and a few Next steps use this to avoid
// paying the build for a shallow skip.
func (e *Enumerator) RankBuilt() bool { return e.rank != nil }

// graphView adapts the built layered graph to ranked.Graph — the counting
// view of levels and edges.
type graphView struct{ e *Enumerator }

func (g graphView) NumLevels() int {
	if g.e.empty {
		return 0
	}
	return len(g.e.levels)
}

func (g graphView) Start() ([]int32, [][]int32) {
	return g.e.startLetters, g.e.startByLetter
}

func (g graphView) Edges(level, idx int) ([]int32, [][]int32) {
	nd := &g.e.levels[level][idx]
	return nd.TargetLetters, nd.TargetsByLetter
}

// SeekLetters positions the cursor exactly at the configuration word w
// (length |s|+1): the next Next returns w's tuple, and enumeration
// continues in radix order from there — the O(1)-descent half of
// offset/limit pagination. The word must be one the layered graph accepts
// (WordAt/SampleWord of the enumerator's Rank produce such words);
// SeekLetters reports false, leaving the cursor unspecified, otherwise.
func (e *Enumerator) SeekLetters(w []int32) bool {
	if e.empty || len(w) != e.n+1 {
		return false
	}
	for l, letter := range w {
		e.setLevel(l, letter)
		if len(e.sets[l]) == 0 {
			return false
		}
	}
	e.started, e.done, e.pending = true, false, true
	return true
}

// Levels exposes the layered graph (for tests reproducing Figure 1 and the
// worked examples, and for spanbench's F1 output).
func (e *Enumerator) Levels() [][]GraphNode { return e.levels }

// LetterConfig returns the configuration a letter id denotes.
func (e *Enumerator) LetterConfig(letter int32) vsa.Config { return e.configs[letter] }

// GraphSize returns the node and edge counts of G (preprocessing cost
// witnesses for the benchmarks).
func (e *Enumerator) GraphSize() (nodes, edges int) {
	for _, lvl := range e.levels {
		nodes += len(lvl)
		for _, nd := range lvl {
			for _, ts := range nd.TargetsByLetter {
				edges += len(ts)
			}
		}
	}
	return nodes, edges
}

// Eval prepares and drains an enumerator in one call, returning the
// variable list and all tuples of [[A]](s).
func Eval(a *vsa.VSA, s string) (span.VarList, []span.Tuple, error) {
	e, err := Prepare(a, s)
	if err != nil {
		return nil, nil, err
	}
	return e.Vars(), e.All(), nil
}

// AsNFA exports the layered automaton A_G as a generic NFA over the letter
// alphabet (symbol ids = letter ids), for cross-validation against the
// generic Ackerman–Shallit cross-section enumerator in package nfa.
// State 0 is the virtual start; node (i, k) becomes state 1 + offset(i) + k.
func (e *Enumerator) AsNFA() *nfa.NFA {
	offsets := make([]int, len(e.levels)+1)
	total := 1
	for i, lvl := range e.levels {
		offsets[i] = total
		total += len(lvl)
	}
	offsets[len(e.levels)] = total
	m := nfa.New(total, len(e.configs))
	m.Start = []int32{0}
	if e.empty || len(e.levels) == 0 {
		return m
	}
	for k := range e.startLetters {
		for _, tgt := range e.startByLetter[k] {
			m.Add(0, e.startLetters[k], int32(offsets[0])+tgt)
		}
	}
	for i, lvl := range e.levels {
		for k := range lvl {
			nd := &lvl[k]
			for li := range nd.TargetLetters {
				for _, tgt := range nd.TargetsByLetter[li] {
					m.Add(int32(offsets[i]+k), nd.TargetLetters[li], int32(offsets[i+1])+tgt)
				}
			}
		}
	}
	last := len(e.levels) - 1
	for k := range e.levels[last] {
		m.Final = append(m.Final, int32(offsets[last]+k))
	}
	return m
}

// DecodeLetters converts a configuration word (letter ids κ_0..κ_N) into
// the corresponding tuple, as decode does for the enumerator's own state.
func (e *Enumerator) DecodeLetters(letters []int32) span.Tuple {
	t := make(span.Tuple, len(e.vars))
	for vi := range e.vars {
		start, end := -1, -1
		for i := 0; i < len(letters); i++ {
			st := e.configs[letters[i]][vi]
			if start < 0 && st != vsa.W {
				start = i + 1
			}
			if end < 0 && st == vsa.C {
				end = i + 1
				break
			}
		}
		t[vi] = span.Span{Start: start, End: end}
	}
	return t
}
