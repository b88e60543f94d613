// Package ranked implements ranked access over the enumerator's layered
// graph (the paper's G, Theorem 3.3): output-independent result counting,
// direct access to the i-th result in the enumeration's canonical radix
// order, and uniform sampling — all via a path-count dynamic program, so
// none of them pays time proportional to the result set.
//
// The layered graph is an NFA over configuration letters: distinct result
// tuples correspond to distinct letter words (§4.1), but one word may be
// spelled by many state paths, so counting paths would overcount. Build
// therefore determinizes the graph on the fly — the same subset
// construction the enumerator's cursor walks implicitly — memoizing each
// distinct (level, node-set) once. On the resulting DAG every root→leaf
// path spells a distinct word, so per-node path counts are exact result
// counts, the letter-ordered descent of WordAt recovers the i-th word in
// radix order, and SampleWord is a count-weighted descent. Counts use
// uint64 with an overflow escape to big.Int, so result sets beyond 2^64
// still count exactly.
//
// The DAG's size is output independent: it is bounded by the number of
// distinct reachable node-sets per level — exponential in the automaton
// size in the worst case (counting the N-length words of an NFA is
// #P-hard in general) but small on the graphs functional vset-automata
// produce in practice, where a prefix's configuration history pins the
// live states. Differential fuzzing pins every operation against the
// enumeration itself.
//
// A count alone needs neither the graph nor the DAG: enum's CountDoc runs
// the same subset construction over state bitsets keeping only each
// level's set counts, and corpus counting sweeps use it. Build serves the
// descents (WordAt, SampleWord), Spanner.Count, Query.Count and Ranked,
// and stays the reference the kernel is differentially tested against;
// both add with Count.
package ranked

import (
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
)

// Graph is the layered-graph view the DP consumes: levels 0..NumLevels-1
// of nodes, each node carrying its fan-out into the next level grouped by
// letter, plus a virtual start fanning out into level 0. Letter groups
// must be ascending by letter with ascending, duplicate-free target lists
// — exactly the enumerator's representation.
type Graph interface {
	// NumLevels returns the number of graph levels (|s|+1 for a document
	// s, the length of every configuration word); 0 when the result set
	// is empty.
	NumLevels() int
	// Start returns the virtual initial state's fan-out: ascending
	// letters and, per letter, the target node indices at level 0.
	Start() (letters []int32, targets [][]int32)
	// Edges returns node (level, idx)'s fan-out into level+1, grouped
	// like Start.
	Edges(level, idx int) (letters []int32, targets [][]int32)
}

// Count is an exact non-negative integer with a uint64 fast path; values
// that do not fit escape to big.Int. The zero value is 0.
type Count struct {
	u uint64
	b *big.Int // non-nil iff the value does not fit in a uint64
}

// CountOf returns the Count holding u.
func CountOf(u uint64) Count { return Count{u: u} }

// Add returns c+d, escaping to big.Int on uint64 overflow.
func (c Count) Add(d Count) Count {
	if c.b == nil && d.b == nil {
		if s, carry := bits.Add64(c.u, d.u, 0); carry == 0 {
			return Count{u: s}
		}
	}
	return Count{b: new(big.Int).Add(c.bigVal(), d.bigVal())}
}

// bigVal returns the value as a big.Int that must not be mutated.
func (c Count) bigVal() *big.Int {
	if c.b != nil {
		return c.b
	}
	return new(big.Int).SetUint64(c.u)
}

// Uint64 returns the value and whether it fits in a uint64.
func (c Count) Uint64() (uint64, bool) { return c.u, c.b == nil }

// BigInt returns the exact value as a freshly allocated big.Int.
func (c Count) BigInt() *big.Int { return new(big.Int).Set(c.bigVal()) }

// IsZero reports whether the count is 0.
func (c Count) IsZero() bool { return c.b == nil && c.u == 0 }

// String renders the exact value in decimal.
func (c Count) String() string {
	if c.b != nil {
		return c.b.String()
	}
	return strconv.FormatUint(c.u, 10)
}

// Rank is the ranked-access structure over one layered graph: the
// determinized DAG with per-node word counts. Build it once per
// (plan, document); every query against it is then output independent.
// A Rank is immutable after Build and safe for concurrent use, but views
// the graph it was built from — discard it when the graph is rebuilt.
type Rank struct {
	levels int       // word length |s|+1; 0 when the result set is empty
	nodes  []detNode // level-ordered, nodes[0] is the virtual root
	counts []Count   // counts[v] = number of distinct words from v to a leaf
}

// detNode is one determinized node — a reachable set of layered-graph
// nodes — with at most one child per letter, letters ascending.
type detNode struct {
	letters  []int32
	children []int32
}

type pendingNode struct {
	id      int32
	members []int32 // layered-graph node indices at this node's level, ascending
}

// builder carries the per-level memo of the subset construction.
type builder struct {
	r       *Rank
	memo    map[string]int32 // member-set key → det id, reset per level
	pending []pendingNode    // det nodes of the next level, in id order
	keyBuf  []byte
}

// Build runs the subset construction and the path-count DP over g.
func Build(g Graph) *Rank {
	levels := g.NumLevels()
	r := &Rank{levels: levels, nodes: make([]detNode, 1)}
	if levels == 0 {
		r.counts = []Count{{}}
		return r
	}
	b := &builder{r: r, memo: make(map[string]int32)}

	startLetters, startTargets := g.Start()
	root := detNode{
		letters:  append([]int32(nil), startLetters...),
		children: make([]int32, len(startLetters)),
	}
	for k := range startLetters {
		root.children[k] = b.intern(startTargets[k])
	}
	r.nodes[0] = root

	for l := 0; l+1 < levels; l++ {
		level := b.pending
		b.pending = nil
		clear(b.memo)
		for _, pn := range level {
			r.nodes[pn.id] = b.expand(g, l, pn.members)
		}
	}

	// The last level's det nodes are the leaves: every one closes exactly
	// one word (backward pruning guarantees no earlier dead ends). Det ids
	// are assigned level by level, so children always have larger ids than
	// their parent and one descending pass computes every count.
	firstLeaf := int32(len(r.nodes))
	if len(b.pending) > 0 {
		firstLeaf = b.pending[0].id
	}
	r.counts = make([]Count, len(r.nodes))
	for v := int32(len(r.nodes)) - 1; v >= 0; v-- {
		if v >= firstLeaf {
			r.counts[v] = CountOf(1)
			continue
		}
		var c Count
		for _, ch := range r.nodes[v].children {
			c = c.Add(r.counts[ch])
		}
		r.counts[v] = c
	}
	return r
}

// intern returns the det id of the member set at the level currently
// being produced, creating the node (and queueing it for expansion) on
// first sight. members is only read during Build, so callers may pass
// views into shared storage.
func (b *builder) intern(members []int32) int32 {
	b.keyBuf = b.keyBuf[:0]
	for _, m := range members {
		b.keyBuf = append(b.keyBuf, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	if id, ok := b.memo[string(b.keyBuf)]; ok {
		return id
	}
	id := int32(len(b.r.nodes))
	b.r.nodes = append(b.r.nodes, detNode{})
	b.memo[string(b.keyBuf)] = id
	b.pending = append(b.pending, pendingNode{id: id, members: members})
	return id
}

// expand produces the det node of a member set: per distinct letter, the
// union of the members' target lists (the subset-construction step),
// with the child sets interned at the next level.
func (b *builder) expand(g Graph, level int, members []int32) detNode {
	if len(members) == 1 {
		// A single member's letter groups already are the merged fan-out.
		letters, targets := g.Edges(level, int(members[0]))
		nd := detNode{
			letters:  append([]int32(nil), letters...),
			children: make([]int32, len(letters)),
		}
		for k := range letters {
			nd.children[k] = b.intern(targets[k])
		}
		return nd
	}
	var letters []int32
	var lists [][]int32 // lists[k] accumulates letter letters[k]'s targets
	for _, m := range members {
		ls, ts := g.Edges(level, int(m))
		for k, l := range ls {
			at := -1
			for j, have := range letters { // letters per node are few
				if have == l {
					at = j
					break
				}
			}
			if at < 0 {
				letters = append(letters, l)
				lists = append(lists, append([]int32(nil), ts[k]...))
				continue
			}
			lists[at] = append(lists[at], ts[k]...)
		}
	}
	// Radix order: letters ascending, each union sorted and deduped.
	for i := 1; i < len(letters); i++ {
		for j := i; j > 0 && letters[j] < letters[j-1]; j-- {
			letters[j], letters[j-1] = letters[j-1], letters[j]
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	nd := detNode{letters: letters, children: make([]int32, len(letters))}
	for k, lst := range lists {
		slices.Sort(lst)
		nd.children[k] = b.intern(slices.Compact(lst))
	}
	return nd
}

// Count returns the exact number of words (= result tuples) in
// O(DAG nodes + edges) at build time and O(1) thereafter.
func (r *Rank) Count() Count { return r.counts[0] }

// NumLevels returns the word length the rank was built for (|s|+1), 0
// when the result set is empty.
func (r *Rank) NumLevels() int { return r.levels }

// Size returns the determinized DAG's node and edge counts (cost
// witnesses for the benchmarks; the descent cost is O(levels·fan-out)).
func (r *Rank) Size() (nodes, edges int) {
	for i := range r.nodes {
		edges += len(r.nodes[i].children)
	}
	return len(r.nodes), edges
}

// WordAt appends the i-th word (0-based, radix order — the enumerator's
// order) to buf[:0] and returns it; ok is false when i ≥ Count. One
// descent costs O(levels · fan-out), independent of i.
func (r *Rank) WordAt(i uint64, buf []int32) (word []int32, ok bool) {
	if total := r.counts[0]; total.b == nil && i >= total.u {
		return nil, false
	}
	buf = buf[:0]
	v := int32(0)
	for l := 0; l < r.levels; l++ {
		nd := &r.nodes[v]
		next := int32(-1)
		for k, ch := range nd.children {
			c := r.counts[ch]
			if c.b != nil || i < c.u {
				buf = append(buf, nd.letters[k])
				next = ch
				break
			}
			i -= c.u
		}
		if next < 0 {
			return nil, false // inconsistent DAG; unreachable after Build
		}
		v = next
	}
	return buf, true
}

// WordAtBig is WordAt for indices beyond uint64 — result sets past 2^64
// stay addressable. i must be non-negative and is not modified.
func (r *Rank) WordAtBig(i *big.Int, buf []int32) (word []int32, ok bool) {
	if i.Sign() < 0 {
		return nil, false
	}
	total := r.counts[0]
	if total.b == nil {
		if !i.IsUint64() {
			return nil, false
		}
		return r.WordAt(i.Uint64(), buf)
	}
	if i.Cmp(total.b) >= 0 {
		return nil, false
	}
	rem := new(big.Int).Set(i)
	buf = buf[:0]
	v := int32(0)
	for l := 0; l < r.levels; l++ {
		nd := &r.nodes[v]
		next := int32(-1)
		for k, ch := range nd.children {
			cb := r.counts[ch].bigVal()
			if rem.Cmp(cb) < 0 {
				buf = append(buf, nd.letters[k])
				next = ch
				break
			}
			rem.Sub(rem, cb)
		}
		if next < 0 {
			return nil, false
		}
		v = next
	}
	return buf, true
}

// SampleWord appends one word drawn uniformly from the result set to
// buf[:0]; ok is false when the result set is empty. Draws are i.i.d.
// across calls and exactly uniform at any count, including past 2^64.
func (r *Rank) SampleWord(rng *rand.Rand, buf []int32) (word []int32, ok bool) {
	total := r.counts[0]
	if total.b != nil {
		return r.WordAtBig(randBigBelow(rng, total.b), buf)
	}
	if total.u == 0 {
		return nil, false
	}
	return r.WordAt(uniformUint64(rng, total.u), buf)
}

// uniformUint64 returns a uniform value in [0, n), n > 0, rejecting the
// biased low slice of the generator's range (v < 2^64 mod n).
func uniformUint64(rng *rand.Rand, n uint64) uint64 {
	threshold := -n % n // 2^64 mod n
	for {
		if v := rng.Uint64(); v >= threshold {
			return v % n
		}
	}
}

// RandBelow returns a uniform value in [0, n), n > 0 — the weighted-pick
// primitive corpus-wide sampling shares with SampleWord.
func RandBelow(rng *rand.Rand, n *big.Int) *big.Int { return randBigBelow(rng, n) }

// randBigBelow returns a uniform value in [0, n) by rejection sampling
// over n.BitLen() random bits (< 2 rounds expected), consuming all 8
// bytes of each generator draw.
func randBigBelow(rng *rand.Rand, n *big.Int) *big.Int {
	nbits := n.BitLen()
	nbytes := (nbits + 7) / 8
	shift := uint(nbytes*8 - nbits)
	raw := make([]byte, nbytes)
	v := new(big.Int)
	for {
		for i := 0; i < nbytes; i += 8 {
			x := rng.Uint64()
			for j := 0; j < 8 && i+j < nbytes; j++ {
				raw[i+j] = byte(x >> (8 * j))
			}
		}
		raw[0] >>= shift
		v.SetBytes(raw)
		if v.Cmp(n) < 0 {
			return v
		}
	}
}
