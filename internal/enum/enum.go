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
// All per-(state, transition, byte) work happens at compile time: the Plan
// holds a byte-class compiled transition table (vsa.TransitionTable) whose
// per-class bitset matrices pre-compose δ with the variable-ε closure. A
// graph build runs through the plan's build caches, RE2's lazy-DFA idiom
// applied to the layered graph: level i+1's forward set depends only on
// level i's and the byte s[i], and level i's pruned nodes only on that set,
// the byte and level i+1's pruned nodes, so each level is one cached
// lookup per pass, computed from the class matrices the first time it
// occurs, and the graph's levels point at immutable cached node slices.
// This is the only build: a plan built for one document — the per-document
// automaton of a string-equality selection (Thm 5.4) or of a UCQ — builds
// its kernels and a cold build cache for that document, like a shared
// plan's first one. Every document-independent artifact (trimmed
// automaton, letter table, transition table) is computed at most
// once per Plan and shared; all but the trim and the functionality check
// are built on first use.
// An Enumerator is resettable: Reset(s) rebuilds the layered graph for a
// new document into the enumerator's own arenas, so streaming many
// documents through one compiled pattern allocates nothing per document
// on warm caches, and an enumerator's Release hands its graph arenas to
// the next enumerator's first build.
package enum

import (
	"slices"
	"sync"
	"sync/atomic"

	"spanjoin/internal/bitset"
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
// reusing all buffers, and Release returns the buffers to a process-wide
// pool. Enumerators are not safe for concurrent use; use Clone to give
// each goroutine its own cursor over the shared compiled state.
type Enumerator struct {
	// plan is the document-independent compiled state, shared by Clone and
	// every corpus worker; builds read its kernels through it.
	plan  *Plan
	n     int // |s|
	empty bool

	// g holds the graph and cursor buffers, drawn from graphPool by the
	// first graph build and returned by Release; nil until then.
	g *graph

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
	pending bool
}

// graph holds an enumerator's plan-independent buffers: the layered graph
// — its levels, and the virtual start's fan-out — and the enumeration
// cursor. A build points the levels and the fan-out at its build cache's
// templates and records its forward sets, reslicing the buffers it grew
// before. Enumerators draw one from graphPool on their first graph build
// and return it with Release, so one-shot window builds reuse the buffers
// earlier ones grew.
//
// The levels, the cursor's sets and the start fan-out view storage the
// graph may not own: a build cache's template arenas, which outlive a
// flush of their cache for as long as something views them. So a graph
// views only its current build's templates — entries of levels and sets
// past their lengths are kept nil (regrow), sizeCursor clears the last
// enumeration's sets — and a graph that is emptied or pooled views
// nothing (dropViews), so a pooled graph keeps no template arena alive.
type graph struct {
	levels  [][]GraphNode // levels[i] views level i's nodes
	fwdSets []int32       // the build's forward set per level
	// start nodes (level 0) grouped by letter, like GraphNode targets
	startLetters  []int32
	startByLetter [][]int32

	letters  []int32    // current word κ_0..κ_N
	sets     [][]int32  // sets[i] = node indices at level i consistent with κ_0..κ_i
	setsBuf  [][]int32  // per-level merge buffers backing multi-source sets
	mergeRow bitset.Row // scratch for multi-source set merges
}

var graphPool = sync.Pool{New: func() any { return new(graph) }}

// maxGraphRetain caps the bytes a graph may carry back into graphPool.
// A graph's buffers grow with the document (a level slice, a forward set
// and a cursor set per byte), so without a cap a single huge document
// would pin its buffers in a pooled graph for the life of the process;
// oversized graphs are dropped instead, and steady-state memory tracks
// the working set.
const maxGraphRetain = 4 << 20

// graphDrops counts graphs dropped at maxGraphRetain instead of pooled.
var graphDrops atomic.Uint64

// putGraph pools g for reuse, viewing nothing, unless its buffers outgrew
// maxGraphRetain; it reports whether g was pooled.
func putGraph(g *graph) bool {
	if g.retainedBytes() > maxGraphRetain {
		graphDrops.Add(1)
		return false
	}
	g.dropViews()
	graphPool.Put(g)
	return true
}

// dropViews clears every view g holds of a build's templates, leaving no
// levels and no cursor sets. Entries past the lengths are nil already.
func (g *graph) dropViews() {
	clear(g.levels)
	clear(g.sets)
	g.levels, g.sets = g.levels[:0], g.sets[:0]
	g.startLetters, g.startByLetter = nil, nil
}

// retainedBytes sums the capacity of every buffer g would carry back into
// the pool.
func (g *graph) retainedBytes() int {
	b := sliceHeader * (cap(g.levels) + cap(g.sets) + cap(g.setsBuf))
	b += 4 * (cap(g.fwdSets) + cap(g.letters))
	b += 8 * cap(g.mergeRow)
	for _, buf := range g.setsBuf[:cap(g.setsBuf)] {
		b += 4 * cap(buf)
	}
	return b
}

// grow reslices s to n elements, reallocating only when capacity is short;
// contents are unspecified (callers overwrite before reading).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// regrow is grow for slices of views: it clears the elements a shorter
// length drops, so capacity past the length never keeps what they viewed
// alive.
func regrow[T any](s []T, n int) []T {
	if n < len(s) {
		clear(s[n:])
	}
	return grow(s, n)
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

// Prepare trims A, verifies functionality, compiles the plan and builds
// the layered graph for s. It returns vsa.ErrNotFunctional (wrapped) for
// non-functional automata. Callers evaluating many documents through one
// automaton should build the Plan once and reuse it instead.
func Prepare(a *vsa.VSA, s string) (*Enumerator, error) {
	p, err := NewPlan(a)
	if err != nil {
		return nil, err
	}
	return p.Prepare(s), nil
}

// Reset rebuilds the enumerator for a new document, reusing every buffer of
// the previous build. The build runs through one of the plan's build
// caches (see buildCache): each level is a cached lookup per pass, and on
// warm caches Reset allocates nothing. The
// enumeration restarts from the beginning; tuples handed out earlier remain
// valid (they are freshly allocated), but Levels and Rank views of the
// previous document do not.
func (e *Enumerator) Reset(s string) {
	e.started, e.done, e.pending = false, false, false
	e.rank = nil
	e.n = len(s)
	if e.plan.emptyLang {
		e.markEmpty()
		return
	}
	e.empty = false
	e.build(s)
}

// Release returns the enumerator's graph arenas to a process-wide pool,
// where the next enumerator's first graph build draws them, and leaves the
// enumerator with no document prepared, as NewEnumerator does: call Reset
// before Next. Levels and Rank views of the released graph are invalid;
// tuples handed out earlier remain valid (they are freshly allocated).
// Arenas grown past maxGraphRetain are dropped rather than pooled, and a
// pooled graph views no build cache's templates, so it keeps no flushed
// cache's arenas alive. Release is idempotent.
func (e *Enumerator) Release() {
	e.started, e.done, e.pending = false, false, false
	e.empty = true
	e.rank = nil
	if e.g != nil {
		putGraph(e.g)
		e.g = nil
	}
}

// Clone returns an enumerator sharing e's plan — the trimmed automaton,
// the letter and transition tables, the build caches and count DFAs —
// with its own graph arenas and cursor, for use from another goroutine.
// The clone has no document prepared: call Reset before Next.
func (e *Enumerator) Clone() *Enumerator { return e.plan.NewEnumerator() }

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
// check, typically) vanishes against the per-position work, fine enough
// that a dead query stops within tens of microseconds.
const interruptStride = 4096

// interrupted polls the installed interrupt at the amortized stride.
func (e *Enumerator) interrupted(i int) bool {
	return e.stop != nil && i%interruptStride == interruptStride-1 && e.stop()
}

// build constructs the layered graph for s into e's arenas. It sets e.empty
// when [[A]](s) = ∅. The plan's first build, unless a CountDoc came first,
// builds its kernels. The build runs through one of the plan's build
// caches, taken for the build and handed back after it.
//
//spanjoin:hotpath
func (e *Enumerator) build(s string) {
	p := e.plan
	tt := p.kernels()
	if e.g == nil {
		e.g = graphPool.Get().(*graph)
	}
	c := p.takeBuildCache()
	ok := c.build(e, s, tt)
	// Not deferred: a build that panics drops its cache with it.
	p.putBuildCache(c)
	if !ok {
		e.markEmpty()
		return
	}
	e.g.sizeCursor(len(s), p.auto.NumStates())
}

// sizeCursor sizes the enumeration cursor for N+1 levels over n states,
// clearing the sets of the last enumeration, which view the last build.
func (g *graph) sizeCursor(N, n int) {
	g.letters = grow(g.letters, N+1)
	clear(g.sets)
	g.sets = grow(g.sets, N+1)
	g.setsBuf = growKeep(g.setsBuf, N+1)
	g.mergeRow = grow(g.mergeRow, bitset.WordsFor(n))
}

func (e *Enumerator) markEmpty() {
	e.empty = true
	if e.g != nil {
		e.g.dropViews()
	}
}

// internLetters numbers the distinct configurations of the states in the
// radix order w < o < c, lexicographic over the variable list (the order
// Config.Compare defines, which result order and every cursor offset
// follow), and maps each state to its configuration's letter. A
// configuration is keyed by one packed word per 32 variables, two bits a
// variable with the first variable most significant, so keys compare as
// their configurations do and no string or map is needed. A state the
// table leaves nil (none, once trimmed) counts as all-waiting.
func internLetters(ct *vsa.ConfigTable, v int) (letterOf []int32, configs []vsa.Config) {
	n, w := len(ct.Cfg), max(1, (v+31)/32)
	keys := make([]uint64, n*w)
	key := func(q int32) []uint64 { return keys[int(q)*w : int(q+1)*w] }
	order := make([]int32, n)
	for q, cfg := range ct.Cfg {
		k := key(int32(q))
		for i, st := range cfg {
			k[i/32] |= uint64(st) << (62 - 2*(i%32))
		}
		order[q] = int32(q)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(key(x), key(y)) })
	letterOf = make([]int32, n)
	reps := order[:0] // one state per letter, written behind the read
	for i, q := range order {
		if i == 0 || !slices.Equal(key(q), key(reps[len(reps)-1])) {
			reps = append(reps, q)
		}
		letterOf[q] = int32(len(reps) - 1)
	}
	arena := make(vsa.Config, len(reps)*v)
	configs = make([]vsa.Config, len(reps))
	for l, q := range reps {
		configs[l] = arena[l*v : (l+1)*v : (l+1)*v]
		copy(configs[l], ct.Cfg[q])
	}
	return letterOf, configs
}

// Vars returns the variable list of the underlying spanner; tuples returned
// by Next are aligned with it.
func (e *Enumerator) Vars() span.VarList { return e.plan.vars }

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
	g := e.g
	if l == 0 {
		if len(g.startLetters) == 0 {
			return -1, false
		}
		return g.startLetters[0], true
	}
	best := int32(-1)
	for _, u := range g.sets[l-1] {
		ls := g.levels[l-1][u].TargetLetters
		if len(ls) > 0 && (best < 0 || ls[0] < best) {
			best = ls[0]
		}
	}
	return best, best >= 0
}

// nextLetterInto returns the minimal available letter strictly greater than
// after; ok is false if none.
func (e *Enumerator) nextLetterInto(l int, after int32) (int32, bool) {
	g := e.g
	if l == 0 {
		k := searchLetters(g.startLetters, after+1)
		if k == len(g.startLetters) {
			return -1, false
		}
		return g.startLetters[k], true
	}
	best := int32(-1)
	for _, u := range g.sets[l-1] {
		ls := g.levels[l-1][u].TargetLetters
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
	g := e.g
	g.letters[l] = letter
	if l == 0 {
		k := searchLetters(g.startLetters, letter)
		if k < len(g.startLetters) && g.startLetters[k] == letter {
			g.sets[0] = g.startByLetter[k]
		} else {
			g.sets[0] = nil
		}
		return
	}
	var single []int32
	merged := false
	for _, u := range g.sets[l-1] {
		node := &g.levels[l-1][u]
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
			g.mergeRow.Zero()
			for _, v := range single {
				g.mergeRow.Set(v)
			}
		}
		for _, v := range lst {
			g.mergeRow.Set(v)
		}
	}
	if !merged {
		g.sets[l] = single
		return
	}
	buf := g.mergeRow.AppendOnes(g.setsBuf[l][:0])
	g.setsBuf[l] = buf
	g.sets[l] = buf
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
		letter, ok := e.nextLetterInto(i, e.g.letters[i])
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

// decode converts the current configuration word κ_0..κ_N into a tuple.
func (e *Enumerator) decode() span.Tuple {
	return e.DecodeLetters(e.g.letters[:e.n+1])
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

// Rank returns the ranked-access DP over the current build (package
// ranked): exact result counting, direct access to the i-th tuple's word
// and uniform word sampling, all without enumeration. It is computed on
// first use and memoized until the next Reset; building it does not
// disturb the enumeration cursor. The returned Rank views the current
// graph — it is invalidated, like Levels, by Reset and Release.
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
	return len(g.e.g.levels)
}

func (g graphView) Start() ([]int32, [][]int32) {
	return g.e.g.startLetters, g.e.g.startByLetter
}

func (g graphView) Edges(level, idx int) ([]int32, [][]int32) {
	nd := &g.e.g.levels[level][idx]
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
		if len(e.g.sets[l]) == 0 {
			return false
		}
	}
	e.started, e.done, e.pending = true, false, true
	return true
}

// Levels exposes the layered graph (for tests reproducing Figure 1 and the
// worked examples, and for spanbench's F1 output); nil before the first
// graph build and after Release. A table build's levels are its plan's
// cached templates, shared with other graphs: they are read-only.
func (e *Enumerator) Levels() [][]GraphNode {
	if e.g == nil {
		return nil
	}
	return e.g.levels
}

// LetterConfig returns the configuration a letter id denotes.
func (e *Enumerator) LetterConfig(letter int32) vsa.Config { return e.plan.configs[letter] }

// Eval prepares and drains an enumerator in one call, returning the
// variable list and all tuples of [[A]](s).
func Eval(a *vsa.VSA, s string) (span.VarList, []span.Tuple, error) {
	e, err := Prepare(a, s)
	if err != nil {
		return nil, nil, err
	}
	return e.Vars(), e.All(), nil
}

// DecodeLetters converts a configuration word (letter ids κ_0..κ_N) into
// the corresponding tuple: µ(x) = [i+1, j+1⟩ with i minimal such that
// κ_i(x) ≠ w and j minimal such that κ_j(x) = c.
func (e *Enumerator) DecodeLetters(letters []int32) span.Tuple {
	configs := e.plan.configs
	t := make(span.Tuple, len(e.plan.vars))
	for vi := range t {
		start, end := -1, -1
		for i := 0; i < len(letters); i++ {
			st := configs[letters[i]][vi]
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
