package enum

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"spanjoin/internal/bitset"
	"spanjoin/internal/vsa"
)

// maxBuildCacheBytes bounds the memory an idle build cache retains:
// putBuildCache drops a cache whose buffers outgrew it. A plan keeps at
// most one idle cache per graph build that ran on it at the same time, so
// the idle build caches of a corpus retain at most cache capacity ×
// building workers × maxBuildCacheBytes. It is four times a count DFA's
// bound because a build, unlike a count, cannot flush mid-document: the
// cache must hold a whole document's new levels. A 4 KiB document that
// meets a new forward set at most bytes ((a|b)*a(a|b)^12 over random
// text) fills about 400 KiB, which a cache that keeps its buffers reuses
// at the next build instead of reallocating.
const maxBuildCacheBytes = 1 << 20

// buildFlushBytes is the cache size past which a build flushes its cache
// when it hands it back: a quarter of the bound, because appends grow
// capacity up to twice the length.
const buildFlushBytes = maxBuildCacheBytes / 4

// buildFlushes and buildDrops count cache flushes and caches dropped at
// maxBuildCacheBytes (the flush and memory-bound tests read them).
var buildFlushes, buildDrops atomic.Uint64

// Forward steps not yet computed, and forward steps that end every run:
// the byte's class is dead, or no state of the set reads it.
const (
	unknownSet = -1
	deadSet    = -2
)

// buildCache is one lazily built cache of a plan's graph-build levels, in
// two layers (Thm 3.3, §4.1: level i+1's forward set depends only on level
// i's and the byte s[i]; level i's pruned nodes only on its forward set,
// the byte and level i+1's pruned nodes).
//
// The forward layer maps a forward set and a byte class to the next
// forward set. Forward sets hold the masked states (see
// vsa.TransitionTable) a document prefix can reach, interned in fwd as
// sorted state lists; fnext[f·nc+c] is f's successor set under class c,
// unknownSet, or deadSet.
//
// The backward layer maps (forward set of level i, class of s[i], alive
// set of level i+1) to level i's alive set and its template: the node
// slice of the layered graph's level i. The key is interned in steps as
// the pair (f·nc+c, alive id); hint[f·nc+c] remembers the last step taken
// from that pair, with its alive id, because a text meets one next alive
// set per forward step nearly always. A template lists the alive states
// in ascending order, each with its successors in the next alive set
// grouped by ascending letter, as ascending node indices. It depends only
// on the two alive sets and the class, so templates are interned by those
// three in tmpls, and steps whose forward sets differ but whose levels
// prune alike share one: a subset blow-up meets a new forward set at
// nearly every byte but few new templates ((a|b)*a(a|b)^12 over 4 KiB of
// random text takes 3,851 steps to 18 templates). Templates are immutable
// and shared by every level, document and enumerator that needs one: a
// built graph's levels, and its start fan-out, point into the template
// arenas.
//
// A build takes one cache from its plan and gives it back (takeBuildCache,
// putBuildCache), so the hot loop takes no lock. The level ids a build
// records stay valid until its backward pass ends because a cache is
// flushed only between builds: past buildFlushBytes the build that hands
// it back resets its tables and starts new arenas. It never truncates an
// arena in place, since graphs built before the flush still point into
// the old ones. A build in progress can take its cache past the bound by
// what its own new levels add, the same order as the graph it builds.
//
// Retained memory, at worst: an idle cache holds at most
// maxBuildCacheBytes. The arenas a flush leaves behind, at most
// buildFlushBytes plus what the last build before it added, stay alive
// only while an unreleased graph's current build views them: a graph
// views only its current build's templates, and an emptied, rebuilt or
// pooled graph drops its views (see graph), so a pooled graph pins none.
//
// The cache shares nothing with the count DFAs, so CountDoc and a graph
// build's Rank().Count() stay two independent computations from the class
// matrices.
type buildCache struct {
	nc int // the plan's byte classes

	fwd   subsetTable // the forward sets
	fnext []int32     // (forward set, class) → next forward set
	hint  [][2]int32  // (forward set, class) → (next alive set + 1, step), or zeros
	start int32       // the masked start row's forward set

	alive     subsetTable   // the alive sets
	fans      []fan         // alive set a's start fan-out, once a graph's level 0 is a
	steps     subsetTable   // backward keys: (forward set·nc + class, next alive set)
	stepAlive []int32       // step k's alive set
	stepTmpl  []int32       // step k's template
	tmpls     subsetTable   // template keys: (alive set, class, next alive set)
	tmplNodes [][]GraphNode // template t's nodes
	final     int32         // the alive set {qf}
	last      []GraphNode   // level N's template: qf alone

	// The template arenas.
	nodes  arena[GraphNode]
	ints   arena[int32]
	groups arena[[]int32]

	// Scratch of a miss.
	row, next bitset.Row
	ones      []int32 // a row's states, ascending, or a step's alive states
	succ      []int32 // one node's successor states, ascending
	letters   []int32 // their letters, ascending
}

// fan is a node's edges, or the virtual start's: the targets' letters,
// ascending, and per letter the target node indices, ascending.
type fan struct {
	letters []int32
	groups  [][]int32
}

func newBuildCache(p *Plan) *buildCache {
	n := p.auto.NumStates()
	c := &buildCache{nc: p.tt.NumClasses(), row: bitset.NewRow(n), next: bitset.NewRow(n)}
	c.reset(p)
	return c
}

// reset empties the cache, keeping its tables' buffers but starting new
// template arenas, and interns the start set and level N's template.
func (c *buildCache) reset(p *Plan) {
	c.fwd.reset()
	c.fnext, c.hint = c.fnext[:0], c.hint[:0]
	c.alive.reset()
	clear(c.fans)
	c.fans = c.fans[:0]
	c.steps.reset()
	c.stepAlive, c.stepTmpl = c.stepAlive[:0], c.stepTmpl[:0]
	c.tmpls.reset()
	clear(c.tmplNodes) // unpin the old arenas
	c.tmplNodes = c.tmplNodes[:0]
	c.nodes, c.ints, c.groups = arena[GraphNode]{}, arena[int32]{}, arena[[]int32]{}

	c.ones = p.tt.Start().AppendOnes(c.ones[:0])
	c.start = c.internFwd(c.ones)
	qf := p.auto.Final
	c.ones = append(c.ones[:0], qf)
	c.final = c.internAlive(c.ones)
	c.last = c.nodes.take(1)
	c.last[0] = GraphNode{State: qf, Letter: p.letterOf[qf]}
}

// takeBuildCache hands out one of the plan's idle build caches, or a new
// one.
func (p *Plan) takeBuildCache() *buildCache {
	if c, ok := p.builds.take(); ok {
		return c
	}
	return newBuildCache(p)
}

// putBuildCache flushes c if it passed buildFlushBytes and returns it to
// the plan's idle list, or drops it when its buffers still retain more
// than maxBuildCacheBytes.
func (p *Plan) putBuildCache(c *buildCache) {
	if c.cacheBytes() > buildFlushBytes {
		buildFlushes.Add(1)
		c.reset(p)
	}
	if c.retainedBytes() > maxBuildCacheBytes {
		buildDrops.Add(1)
		return
	}
	p.builds.put(c)
}

// build constructs the layered graph of s into e.g's levels: a forward
// pass records each level's forward set, looked up from the previous set
// and the byte's class, and a backward pass sets each level to the
// template looked up from its forward set, its byte's class and the next
// level's alive set, and the start fan-out is level 0's alive set's. A miss
// computes the step from the class matrix. On a warm cache a level costs
// one lookup per pass and a build allocates nothing. It reports false when
// no run accepts s or the interrupt fired.
//
//spanjoin:hotpath
func (c *buildCache) build(e *Enumerator, s string, tt *vsa.TransitionTable) bool {
	g := e.g
	N := len(s)
	nc := c.nc
	ids := grow(g.fwdSets, N+1)
	g.fwdSets = ids
	f := c.start
	ids[0] = f
	fnext := c.fnext
	for i := 0; i < N; i++ {
		if e.interrupted(i) {
			return false
		}
		cl := tt.ClassOf(s[i])
		nx := fnext[int(f)*nc+cl]
		if nx == unknownSet {
			nx = c.forward(f, cl, tt.ClassMat(cl))
			fnext = c.fnext
		}
		if nx == deadSet {
			return false
		}
		f = nx
		ids[i+1] = f
	}
	// The last boundary state must be the final state exactly (q̂_N = qf).
	if _, ok := slices.BinarySearch(c.fwd.key(f), e.plan.auto.Final); !ok {
		return false
	}

	g.levels = regrow(g.levels, N+1)
	g.levels[N] = c.last
	a := c.final
	var key [2]int32
	for i := N - 1; i >= 0; i-- {
		if e.interrupted(i) {
			return false
		}
		cl := tt.ClassOf(s[i])
		slot := int(ids[i])*nc + cl
		h := &c.hint[slot]
		if h[0] != a+1 {
			key[0], key[1] = int32(slot), a
			k, added := c.steps.intern(key[:])
			if added {
				c.backward(e.plan, ids[i], a, cl, tt.ClassMat(cl))
			}
			h[0], h[1] = a+1, k
		}
		a = c.stepAlive[h[1]]
		g.levels[i] = c.tmplNodes[c.stepTmpl[h[1]]]
	}
	if c.fans[a].letters == nil {
		c.fanOut(e.plan, a)
	}
	g.startLetters, g.startByLetter = c.fans[a].letters, c.fans[a].groups
	return true
}

// forward computes forward set f's successor set under byte class cl,
// whose matrix is m (nil for the dead class): the union of its states'
// rows. It caches the step and returns the set, or deadSet.
func (c *buildCache) forward(f int32, cl int, m *bitset.Matrix) int32 {
	nx := int32(deadSet)
	if m != nil {
		c.row.Zero()
		for _, q := range c.fwd.key(f) {
			c.row.Or(m.Row(int(q)))
		}
		if c.ones = c.row.AppendOnes(c.ones[:0]); len(c.ones) > 0 {
			nx = c.internFwd(c.ones)
		}
	}
	c.fnext[int(f)*c.nc+cl] = nx
	return nx
}

// backward computes the step just interned in steps: level i's alive set —
// the states of forward set f whose row under byte class cl, whose matrix
// is m, meets alive set a of level i+1 — and its template, built unless
// tmpls holds it.
func (c *buildCache) backward(p *Plan, f, a int32, cl int, m *bitset.Matrix) {
	below := c.alive.key(a)
	c.next.Zero()
	for _, q := range below {
		c.next.Set(q)
	}
	c.ones = c.ones[:0]
	for _, q := range c.fwd.key(f) {
		if m.Row(int(q)).Intersects(c.next) {
			c.ones = append(c.ones, q)
		}
	}
	id := c.internAlive(c.ones)
	key := [3]int32{id, int32(cl), a}
	t, added := c.tmpls.intern(key[:])
	if added {
		nodes := c.nodes.take(len(c.ones))
		for k, q := range c.ones {
			c.row.CopyFrom(m.Row(int(q)))
			c.row.And(c.next)
			f := c.group(p.letterOf, below)
			nodes[k] = GraphNode{State: q, Letter: p.letterOf[q],
				TargetLetters: f.letters, TargetsByLetter: f.groups}
		}
		c.tmplNodes = append(c.tmplNodes, nodes)
	}
	c.stepAlive = append(c.stepAlive, id)
	c.stepTmpl = append(c.stepTmpl, t)
}

// fanOut caches alive set a's start fan-out: the virtual start's edges to
// every one of its states.
func (c *buildCache) fanOut(p *Plan, a int32) {
	below := c.alive.key(a)
	c.row.Zero()
	for _, q := range below {
		c.row.Set(q)
	}
	c.fans[a] = c.group(p.letterOf, below)
}

// group lists row's states — successors in the next level, whose alive
// states are below, ascending — as node indices grouped by ascending
// letter, each group ascending, in the template arenas.
func (c *buildCache) group(letterOf []int32, below []int32) fan {
	c.succ = c.row.AppendOnes(c.succ[:0])
	c.letters = c.letters[:0]
	for _, q := range c.succ {
		if l := letterOf[q]; !slices.Contains(c.letters, l) {
			c.letters = append(c.letters, l)
		}
	}
	slices.Sort(c.letters)
	f := fan{letters: c.ints.take(len(c.letters)), groups: c.groups.take(len(c.letters))}
	copy(f.letters, c.letters)
	targets := c.ints.take(len(c.succ))
	at := 0
	for k, l := range f.letters {
		from := at
		for _, q := range c.succ {
			if letterOf[q] == l {
				j, _ := slices.BinarySearch(below, q)
				targets[at] = int32(j)
				at++
			}
		}
		f.groups[k] = targets[from:at:at]
	}
	return f
}

// internAlive returns set's alive-set id, adding it with no start fan-out
// computed.
func (c *buildCache) internAlive(set []int32) int32 {
	a, added := c.alive.intern(set)
	if added {
		c.fans = append(c.fans, fan{})
	}
	return a
}

// internFwd returns set's forward-set id, adding it with no steps
// computed.
func (c *buildCache) internFwd(set []int32) int32 {
	f, added := c.fwd.intern(set)
	if added {
		for range c.nc {
			c.fnext = append(c.fnext, unknownSet)
			c.hint = append(c.hint, [2]int32{})
		}
	}
	return f
}

// The sizes of a GraphNode and of a slice header.
const (
	nodeBytes   = int(unsafe.Sizeof(GraphNode{}))
	sliceHeader = int(unsafe.Sizeof([]int32(nil)))
)

// arenaBytes is what the template arenas have allocated since the cache's
// last reset.
func (c *buildCache) arenaBytes() int {
	return nodeBytes*c.nodes.size + 4*c.ints.size + sliceHeader*c.groups.size
}

// cacheBytes is what the cache holds.
func (c *buildCache) cacheBytes() int {
	return 4*(c.fwd.bytes()+len(c.fnext)+2*len(c.hint)+c.alive.bytes()+c.steps.bytes()+
		len(c.stepAlive)+len(c.stepTmpl)+c.tmpls.bytes()) +
		sliceHeader*(len(c.tmplNodes)+2*len(c.fans)) + c.arenaBytes()
}

// retainedBytes sums the capacity of every buffer c would carry back into
// the plan's idle list.
func (c *buildCache) retainedBytes() int {
	b := 4 * (c.fwd.capacity() + cap(c.fnext) + 2*cap(c.hint) + c.alive.capacity() + c.steps.capacity() +
		cap(c.stepAlive) + cap(c.stepTmpl) + c.tmpls.capacity() +
		cap(c.ones) + cap(c.succ) + cap(c.letters))
	return b + sliceHeader*(cap(c.tmplNodes)+2*cap(c.fans)) + 8*(cap(c.row)+cap(c.next)) + c.arenaBytes()
}

// arena hands out slices of chunks it never truncates or rewrites, so a
// slice it handed out keeps its contents however the arena moves on. Chunk
// sizes double from arenaChunkMin to arenaChunkMax elements, so a cache
// that sees a few levels allocates a few small chunks.
type arena[T any] struct {
	chunk []T
	size  int // elements allocated in chunks
}

const arenaChunkMin, arenaChunkMax = 16, 4096

// take returns n elements of fresh chunk space.
func (a *arena[T]) take(n int) []T {
	at := len(a.chunk)
	if cap(a.chunk)-at < n {
		a.chunk = make([]T, 0, max(n, arenaChunkMin, min(2*cap(a.chunk), arenaChunkMax)))
		a.size += cap(a.chunk)
		at = 0
	}
	a.chunk = a.chunk[:at+n]
	return a.chunk[at : at+n : at+n]
}

// idle is a plan's list of idle caches of one kind, count DFAs or build
// caches: a run takes one and puts it back, so concurrent runs never share
// one and their hot loops take no lock. A new cache is made only while
// every idle one is taken, so the list holds at most one cache per run
// that went on at the same time.
type idle[T any] struct {
	mu    sync.Mutex
	items []T
}

// take pops an idle cache; ok is false when there is none.
func (l *idle[T]) take() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	var zero T
	l.items[n-1] = zero
	l.items = l.items[:n-1]
	return x, true
}

// put pushes an idle cache.
func (l *idle[T]) put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// sum adds up bytes over the idle caches.
func (l *idle[T]) sum(bytes func(T) int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, x := range l.items {
		n += bytes(x)
	}
	return n
}
