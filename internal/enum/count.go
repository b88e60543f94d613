package enum

import (
	"slices"
	"sync/atomic"

	"spanjoin/internal/bitset"
	"spanjoin/internal/ranked"
	"spanjoin/internal/vsa"
)

// CountDoc returns the number of tuples of [[A]](s) without building the
// layered graph or the ranked DAG. Distinct tuples are distinct
// configuration words κ_0..κ_|s| (§4.1), so CountDoc counts the words the
// automaton spells over s, in one forward pass over the plan's count
// automaton: a lazily determinized automaton whose states are sets of
// automaton states sharing one configuration letter (see countDFA). Level
// i maps each such set P_i(w) — the states a word prefix w can reach — to
// the number of prefixes reaching it. Sets hold only the table's masked
// states, those that read a byte plus qf (see vsa.TransitionTable): the
// others have no successors and are never final, so dropping them changes
// no count. The start states are the masked VE(Init) split by letter,
// each with count 1; a byte moves every active state along its
// successors under the byte's class — the set's matrix rows ORed together,
// split by letter — adding its count to each. The total is the sum over
// the level-|s| states that contain qf.
//
// There is no backward prune: a live state of P_{i+1} has a live
// predecessor in P_i, so the pruned sets are the unpruned ones restricted
// to live states, and a word is counted exactly when qf ∈ P_|s|(w) either
// way. Dead-end prefixes are dropped at level |s| instead of earlier. A
// byte no transition accepts, or an empty level, ends the count at 0.
//
// Each step is computed from the class matrices the first time it occurs
// and cached on the DFA, which the plan keeps between counts; on a warm
// DFA a byte costs one table lookup and one addition per successor, and a
// count allocates nothing. Counts past uint64 escape to big.Int exactly
// like Rank's. The installed interrupt is polled every interruptStride
// bytes; an interrupted count returns 0.
//
// CountDoc leaves the enumerator's prepared document, cursor and Rank
// untouched. The plan's first swept document, if it comes through
// CountDoc, builds the plan's kernels under their first-use guard — the
// letter table and the transition table — and a count builds its count
// DFA, never a build cache or any graph arena.
//
//spanjoin:hotpath
func (e *Enumerator) CountDoc(s string) ranked.Count {
	p := e.plan
	if p.emptyLang {
		return ranked.Count{}
	}
	tt := p.kernels()
	d := p.takeDFA()
	n := d.count(e, s, tt)
	// Not deferred: a count that panics leaves its DFA mid-level, and the
	// DFA is dropped with it.
	p.putDFA(d)
	return n
}

// maxDFABytes bounds the memory a pooled count DFA retains: putDFA drops a
// DFA whose buffers outgrew it. With every cached query's plan keeping at
// most one DFA per count running on it at once, the count DFAs of a corpus
// retain at most cache capacity × counting workers × maxDFABytes.
const maxDFABytes = 256 << 10

// dfaFlushBytes is the cache size at which a count flushes its DFA: a
// quarter of the bound, because appends grow capacity up to twice the
// length, and the level buffers and miss scratch need room too.
const dfaFlushBytes = maxDFABytes / 4

// dfaFlushes and dfaDrops count cache flushes and DFAs dropped at
// maxDFABytes (the memory-bound tests read them).
var dfaFlushes, dfaDrops atomic.Uint64

// countDFA is one lazily determinized count automaton of a plan, cached in
// two layers.
//
// The state layer is the automaton proper. State k is a set of automaton
// states sharing one letter, interned in sets as a sorted state list — a
// few bytes for the small sets functional automata produce, whatever the
// state count. trans[k·nc+c] is the offset in succ of k's successor list
// under byte class c — its length, then the successor states — or -1
// until a count first moves k along c.
//
// The level layer caches whole count levels. A level is the ordered list
// of states a count holds at one document position, interned in levels,
// and a count carries only its per-position counts. ltrans[L·nc+c] is the
// offset in prog of level L's step under class c: the next level and its
// length, then for each position of L the positions in the next level its
// state's successors take, prefixed by their number — or -1 until computed
// from the state layer. A cached step is then a run of additions; a
// position's first addend is stored complemented and sets the count.
//
// A DFA serves one count at a time: Plan.takeDFA hands it out and putDFA
// takes it back (see idle), so the hot loop takes no lock. On a miss that
// finds the cache holding more than limit bytes, the count flushes it and
// re-interns the current level, RE2's policy, then carries on (see flush).
type countDFA struct {
	nc int // the plan's byte classes

	sets  subsetTable // the states
	trans []int32     // (state, class) → successor list offset in succ, or -1
	succ  []int32     // successor lists, each prefixed by its length

	levels     subsetTable // the levels
	ltrans     []int32     // (level, class) → step offset in prog, or -1
	prog       []int32     // the level steps
	startLevel int32       // the start states' level, or -1

	cur, next []uint64 // a count's level counts, by position
	at        []int32  // state → 1 + its position in the level a step builds, or 0

	// limit is the cache size that triggers a flush: dfaFlushBytes, or
	// twice what the last flush had to keep when that is more, so a level
	// too wide for the bound does not flush at every step. full records
	// that the cache passed it.
	limit int
	full  bool

	// Scratch of a cache miss or flush.
	row      bitset.Row // the set's successor states
	ones     []int32    // row's states, ascending
	byLetter []int32    // ones grouped by letter
	cnt      []int32    // per letter: its run's size, then its end; zero between misses
	distinct []int32    // the letters in ones
	level    []int32    // the next level a step builds, or the level a flush keeps
	keep     []int32    // a flush's sets: each one's length, then the set
}

func newCountDFA(p *Plan) *countDFA {
	d := &countDFA{
		nc: p.tt.NumClasses(), startLevel: -1,
		row: bitset.NewRow(p.auto.NumStates()),
		cnt: make([]int32, len(p.configs)),
	}
	d.sets.reset()
	d.levels.reset()
	return d
}

// takeDFA hands out one of the plan's idle count DFAs, or a new one.
func (p *Plan) takeDFA() *countDFA {
	if d, ok := p.dfas.take(); ok {
		return d
	}
	return newCountDFA(p)
}

// putDFA returns d to the plan's idle list, or drops it once it retains
// more than maxDFABytes.
func (p *Plan) putDFA(d *countDFA) {
	if d.retainedBytes() > maxDFABytes {
		dfaDrops.Add(1)
		return
	}
	p.dfas.put(d)
}

// count is CountDoc's forward pass over s, on uint64 counts. The hot loop
// works on local copies of the DFA's slices, reloaded after a miss grows
// them; only a miss can find the cache full, flush it, or meet the dead
// class, whose steps are never cached. A count that overflows uint64
// starts over in countExact.
//
//spanjoin:hotpath
func (d *countDFA) count(e *Enumerator, s string, tt *vsa.TransitionTable) ranked.Count {
	p := e.plan
	d.limit, d.full = dfaFlushBytes, false
	lv := d.enterStart(p)
	cur := widen(d.cur, d.levels.size(lv))
	for k := range cur {
		cur[k] = 1
	}
	next := d.next
	nc := d.nc
	ltrans, prog := d.ltrans, d.prog
	overflow := false
levels:
	for i := 0; i < len(s) && len(cur) > 0; i++ {
		if e.interrupted(i) {
			cur = cur[:0]
			break
		}
		c := tt.ClassOf(s[i])
		off := ltrans[int(lv)*nc+c]
		if off < 0 {
			m := tt.ClassMat(c)
			if m == nil {
				// No transition anywhere accepts this byte: no run consumes it.
				cur = cur[:0]
				break
			}
			if d.full {
				lv = d.flush(lv)
			}
			off = d.step(p, lv, c, m)
			ltrans, prog = d.ltrans, d.prog
		}
		lv = prog[off]
		next = widen(next, int(prog[off+1]))
		off += 2
		for _, n := range cur {
			to := off + 1 + prog[off]
			for _, j := range prog[off+1 : to] {
				if j < 0 {
					// A position's first successor sets its count.
					next[^j] = n
				} else if next[j] += n; next[j] < n {
					overflow = true
					break levels
				}
			}
			off = to
		}
		cur, next = next, cur
	}
	d.cur, d.next = cur, next
	if overflow {
		return d.countExact(e, s, tt)
	}
	var total uint64
	for k, n := range cur {
		if d.final(p, lv, k) {
			if total += n; total < n {
				return d.countExact(e, s, tt)
			}
		}
	}
	return ranked.CountOf(total)
}

// widen is grow for a count's level buffers. A widening document widens
// them a few positions a byte, and a DFA dropped at maxDFABytes starts
// every count with empty ones, so widen reallocates geometrically: a count
// that reaches width w allocates O(w) bytes for them, not O(w²). It grows
// by a quarter, not twofold, to keep the slack small beside the DFA's
// bound: doubling would take the DFA of .*x{a²⁰⁴⁸}.* past it, and that
// DFA would be dropped after every count.
func widen(s []uint64, n int) []uint64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint64, n, max(n, cap(s)+cap(s)/4))
}

// countExact is count on ranked.Count counts, which escape to big.Int: the
// exact recount of a document whose count overflows uint64.
func (d *countDFA) countExact(e *Enumerator, s string, tt *vsa.TransitionTable) ranked.Count {
	p := e.plan
	lv := d.enterStart(p)
	cur := make([]ranked.Count, d.levels.size(lv))
	for k := range cur {
		cur[k] = ranked.CountOf(1)
	}
	for i := 0; i < len(s) && len(cur) > 0; i++ {
		if e.interrupted(i) {
			return ranked.Count{}
		}
		c := tt.ClassOf(s[i])
		off := d.ltrans[int(lv)*d.nc+c]
		if off < 0 {
			m := tt.ClassMat(c)
			if m == nil {
				return ranked.Count{}
			}
			if d.full {
				lv = d.flush(lv)
			}
			off = d.step(p, lv, c, m)
		}
		lv = d.prog[off]
		next := make([]ranked.Count, d.prog[off+1])
		off += 2
		for _, n := range cur {
			to := off + 1 + d.prog[off]
			for _, j := range d.prog[off+1 : to] {
				if j < 0 {
					j = ^j
				}
				next[j] = next[j].Add(n)
			}
			off = to
		}
		cur = next
	}
	var total ranked.Count
	for k, n := range cur {
		if d.final(p, lv, k) {
			total = total.Add(n)
		}
	}
	return total
}

// enterStart returns the start level: the masked VE(Init) split by
// letter, each part reached by its one-letter prefix.
func (d *countDFA) enterStart(p *Plan) int32 {
	if d.startLevel < 0 {
		d.row.CopyFrom(p.tt.Start())
		off := d.split(p)
		d.startLevel = d.internLevel(d.succ[off+1 : off+1+d.succ[off]])
	}
	return d.startLevel
}

// final reports whether the state at position k of level lv holds qf.
func (d *countDFA) final(p *Plan, lv int32, k int) bool {
	_, ok := slices.BinarySearch(d.sets.key(d.levels.key(lv)[k]), p.auto.Final)
	return ok
}

// step computes level lv's step under byte class c, whose matrix is m:
// each state's successors (computed by miss when the state layer lacks
// them) take positions in the next level in first-seen order, a position's
// first taker recording it complemented. It caches the step and returns
// its offset in prog.
func (d *countDFA) step(p *Plan, lv int32, c int, m *bitset.Matrix) int32 {
	off := int32(len(d.prog))
	d.prog = append(d.prog, 0, 0)
	d.level = d.level[:0]
	for _, q := range d.levels.key(lv) {
		so := d.trans[int(q)*d.nc+c]
		if so < 0 {
			so = d.miss(p, q, c, m)
		}
		d.prog = append(d.prog, d.succ[so])
		for _, t := range d.succ[so+1 : so+1+d.succ[so]] {
			j := d.at[t] - 1
			if j < 0 {
				d.level = append(d.level, t)
				d.at[t] = int32(len(d.level))
				j = ^(d.at[t] - 1)
			}
			d.prog = append(d.prog, j)
		}
	}
	for _, t := range d.level {
		d.at[t] = 0
	}
	d.prog[off], d.prog[off+1] = d.internLevel(d.level), int32(len(d.level))
	d.ltrans[int(lv)*d.nc+c] = off
	d.full = d.cacheBytes() > d.limit
	return off
}

// miss computes state q's successors under byte class c, whose matrix is
// m, caches them and returns their offset in succ.
func (d *countDFA) miss(p *Plan, q int32, c int, m *bitset.Matrix) int32 {
	d.row.Zero()
	for _, r := range d.sets.key(q) {
		d.row.Or(m.Row(int(r)))
	}
	off := d.split(p)
	d.trans[int(q)*d.nc+c] = off
	return off
}

// split interns the per-letter parts of row's states and appends their
// list to succ, returning its offset. A counting sort groups the states by
// letter, each group staying ascending.
func (d *countDFA) split(p *Plan) int32 {
	d.ones = d.row.AppendOnes(d.ones[:0])
	d.distinct = d.distinct[:0]
	for _, q := range d.ones {
		l := p.letterOf[q]
		if d.cnt[l] == 0 {
			d.distinct = append(d.distinct, l)
		}
		d.cnt[l]++
	}
	off := int32(len(d.succ))
	if len(d.distinct) == 1 {
		// One letter: the set is its own only part.
		d.cnt[d.distinct[0]] = 0
		q := d.intern(d.ones)
		d.succ = append(d.succ, 1, q)
		return off
	}
	end := int32(0)
	for _, l := range d.distinct {
		d.cnt[l], end = end, end+d.cnt[l]
	}
	d.byLetter = grow(d.byLetter, len(d.ones))
	for _, q := range d.ones {
		l := p.letterOf[q]
		d.byLetter[d.cnt[l]] = q
		d.cnt[l]++
	}
	d.succ = append(d.succ, int32(len(d.distinct)))
	from := int32(0)
	for _, l := range d.distinct {
		to := d.cnt[l]
		d.cnt[l] = 0
		q := d.intern(d.byLetter[from:to])
		d.succ = append(d.succ, q)
		from = to
	}
	return off
}

// intern returns set's state, adding it with no transitions computed.
func (d *countDFA) intern(set []int32) int32 {
	q, added := d.sets.intern(set)
	if added {
		for range d.nc {
			d.trans = append(d.trans, -1)
		}
		d.at = append(d.at, 0)
	}
	return q
}

// internLevel returns level's id, adding it with no steps computed.
func (d *countDFA) internLevel(level []int32) int32 {
	lv, added := d.levels.intern(level)
	if added {
		for range d.nc {
			d.ltrans = append(d.ltrans, -1)
		}
	}
	return lv
}

// flush makes room in the cache and re-interns level lv, so the count
// carries on at the same position; it returns lv's new id. When the level
// layer holds at least half the cache, only it is emptied and the states
// keep their successor lists; otherwise both layers are, and lv's states
// are re-interned first.
func (d *countDFA) flush(lv int32) int32 {
	dfaFlushes.Add(1)
	d.level = append(d.level[:0], d.levels.key(lv)...)
	all := d.stateBytes() > d.levelBytes()
	if all {
		d.keep = d.keep[:0]
		for _, q := range d.level {
			set := d.sets.key(q)
			d.keep = append(d.keep, int32(len(set)))
			d.keep = append(d.keep, set...)
		}
		d.sets.reset()
		d.trans, d.succ, d.at = d.trans[:0], d.succ[:0], d.at[:0]
		d.level = d.level[:0]
		for at := 0; at < len(d.keep); at += 1 + int(d.keep[at]) {
			d.level = append(d.level, d.intern(d.keep[at+1:at+1+int(d.keep[at])]))
		}
	}
	d.levels.reset()
	d.ltrans, d.prog = d.ltrans[:0], d.prog[:0]
	d.startLevel = -1
	lv = d.internLevel(d.level)
	// What the flush could not free: the current level, and its states
	// when the state layer went too.
	kept := d.levelBytes()
	if all {
		kept = d.cacheBytes()
	}
	d.limit = max(dfaFlushBytes, 2*kept)
	d.full = false
	return lv
}

// cacheBytes is what the cache holds.
func (d *countDFA) cacheBytes() int { return d.stateBytes() + d.levelBytes() }

// stateBytes is what the state layer holds.
func (d *countDFA) stateBytes() int {
	return 4 * (d.sets.bytes() + len(d.trans) + len(d.succ) + len(d.at))
}

// levelBytes is what the level layer holds.
func (d *countDFA) levelBytes() int {
	return 4 * (d.levels.bytes() + len(d.ltrans) + len(d.prog))
}

// retainedBytes sums the capacity of every buffer d would carry back into
// the plan's idle list.
func (d *countDFA) retainedBytes() int {
	b := 4 * (d.sets.capacity() + d.levels.capacity() +
		cap(d.trans) + cap(d.succ) + cap(d.at) + cap(d.ltrans) + cap(d.prog) +
		cap(d.ones) + cap(d.byLetter) + cap(d.cnt) + cap(d.distinct) + cap(d.level) + cap(d.keep))
	return b + 8*(cap(d.cur)+cap(d.next)+cap(d.row))
}

// subsetTable interns int32 lists — the count DFA's sets, sorted, and its
// levels; the build cache's forward and alive sets, sorted, and its
// backward keys: an open-addressing hash table from a list to a dense id.
// The lists sit back to back in one arena.
type subsetTable struct {
	keys   []int32 // the sets, back to back
	bounds []int32 // set k is keys[bounds[k]:bounds[k+1]]
	slots  []int32 // set id + 1, or 0 when free; len is a power of two
}

// subsetTableInit is an empty table's slot count. Tables grow at half
// load, so it holds eight sets before the first rehash.
const subsetTableInit = 16

// reset empties t, keeping its buffers.
func (t *subsetTable) reset() {
	t.keys = t.keys[:0]
	t.bounds = append(t.bounds[:0], 0)
	if t.slots == nil {
		t.slots = make([]int32, subsetTableInit)
	}
	clear(t.slots)
}

// len returns the number of sets.
func (t *subsetTable) len() int { return len(t.bounds) - 1 }

// size returns the length of set k.
func (t *subsetTable) size(k int32) int { return int(t.bounds[k+1] - t.bounds[k]) }

// bytes is the int32s t holds in use, counting its slots at half load.
func (t *subsetTable) bytes() int { return len(t.keys) + len(t.bounds) + 2*t.len() }

// capacity is the int32s t's buffers retain.
func (t *subsetTable) capacity() int { return cap(t.keys) + cap(t.bounds) + cap(t.slots) }

// key returns set k.
func (t *subsetTable) key(k int32) []int32 {
	return t.keys[t.bounds[k]:t.bounds[k+1]:t.bounds[k+1]]
}

// intern returns set's id, adding a copy of set under the next id when t
// does not hold it yet; added reports which.
func (t *subsetTable) intern(set []int32) (id int32, added bool) {
	mask := len(t.slots) - 1
	for sl := int(hashStates(set)) & mask; ; sl = (sl + 1) & mask {
		j := t.slots[sl] - 1
		if j < 0 {
			id = int32(t.len())
			t.keys = append(t.keys, set...)
			t.bounds = append(t.bounds, int32(len(t.keys)))
			t.slots[sl] = id + 1
			if 2*t.len() > len(t.slots) {
				t.rehash()
			}
			return id, true
		}
		if slices.Equal(t.key(j), set) {
			return j, false
		}
	}
}

// rehash doubles the slot array and reinserts every set.
func (t *subsetTable) rehash() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for k := range int32(t.len()) {
		sl := int(hashStates(t.key(k))) & mask
		for t.slots[sl] != 0 {
			sl = (sl + 1) & mask
		}
		t.slots[sl] = k + 1
	}
}

// hashStates mixes a set's states with one multiply each and finishes
// with the splitmix64 finalizer, so the low bits that pick a slot depend
// on every state.
func hashStates(set []int32) uint64 {
	h := uint64(len(set))
	for _, q := range set {
		h = (h ^ uint64(uint32(q))) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}
