package enum

import (
	"spanjoin/internal/bitset"
	"spanjoin/internal/ranked"
)

// CountDoc returns the number of tuples of [[A]](s) without building the
// layered graph or the ranked DAG. It runs the matrix build's forward pass
// and backward prune (sweepAlive), then the subset construction ranked.Build
// performs, forward over state bitsets and keeping only counts: level i
// maps each reachable set of live states — one determinized node — to the
// number of distinct configuration-word prefixes κ_0..κ_i that reach it.
// A set's successors under the next position are its states' matrix rows
// ORed together, restricted to the next level's live states and split by
// letter; each split inherits the set's prefix count. Distinct words are
// distinct tuples (§4.1), so the counts at level |s| sum to |[[A]](s)|.
//
// Only two levels are held at a time, in pooled scratch, so a steady-state
// count allocates nothing and its memory is O(|s|·n) bits for the sweep
// plus the two widest levels — against the O(DAG) of Rank. Counts past
// uint64 escape to big.Int exactly like Rank's. The installed interrupt is
// polled in all three passes; an interrupted count returns 0.
//
// CountDoc leaves the enumerator's prepared document, cursor and Rank
// untouched, and builds only the plan's transition table (on the plan's
// first swept document), never its link lists or any graph arena. Plans
// compiled without a transition table (PrepareOnce, PrepareRef) have no
// class matrices to sweep; there CountDoc falls back to Reset(s) and
// Rank().Count(), replacing the prepared document.
//
//spanjoin:hotpath
func (e *Enumerator) CountDoc(s string) ranked.Count {
	p := e.plan
	if p.emptyLang {
		return ranked.Count{}
	}
	if !p.table {
		e.Reset(s)
		return e.Rank().Count()
	}
	tt := p.transitions()
	N := len(s)
	sc := scratchPool.Get().(*prepScratch)
	defer putScratch(sc)
	sc.init(p.auto.NumStates(), N, len(p.configs))
	if !e.sweepAlive(sc, s, tt) {
		return ranked.Count{}
	}

	// Level 0: the virtual start reaches each letter's share of the live
	// states with the one-letter prefix.
	w := len(sc.succ)
	cur, next := &sc.count[0], &sc.count[1]
	cur.reset(w)
	sc.succ.CopyFrom(sc.alive.Row(0))
	e.splitByLetter(cur, sc.succ, ranked.CountOf(1))
	for i := 0; i < N; i++ {
		if e.interrupted(i) {
			return ranked.Count{}
		}
		m := tt.Mat(s[i])
		aliveNext := sc.alive.Row(i + 1)
		next.reset(w)
		for k := range cur.counts {
			sc.succ.Zero()
			m.MulOr(sc.succ, cur.key(k))
			sc.succ.And(aliveNext)
			e.splitByLetter(next, sc.succ, cur.counts[k])
		}
		cur, next = next, cur
	}
	// Level N's only live state is qf, so it holds one set: the total.
	var total ranked.Count
	for _, c := range cur.counts {
		total = total.Add(c)
	}
	return total
}

// splitByLetter adds c to the entry of each per-letter subset of row, a
// set of live states at t's level. Every prefix counted by c extends by
// each letter to exactly one such subset. row is consumed.
//
//spanjoin:hotpath
func (e *Enumerator) splitByLetter(t *subsetTable, row bitset.Row, c ranked.Count) {
	p := e.plan
	for q := row.NextOne(0); q >= 0; q = row.NextOne(q) {
		key := t.push()
		mask := p.letterMask.Row(int(p.letterOf[q]))
		for j := range key {
			key[j] = row[j] & mask[j]
		}
		row.AndNot(key)
		t.add(c)
	}
}

// subsetTable is one level of CountDoc: an open-addressing hash table from
// a state set (a row of w words) to the number of word prefixes reaching
// it. Keys sit back to back in one arena, and reset clears only the slots
// in use, so a pooled table costs nothing per level once it has grown to
// the widest level it has seen.
type subsetTable struct {
	w      int
	keys   []uint64       // entry k's set is key(k); push appends one candidate
	counts []ranked.Count // entry k's prefix count
	slotOf []int32        // entry k's slot
	slots  []int32        // entry index + 1, or 0 when free; len is a power of two
}

// subsetTableInit is a fresh table's slot count. Tables grow at half load,
// so it holds eight sets before the first rehash — more than most levels
// of most patterns carry.
const subsetTableInit = 16

// reset empties t for sets of w words.
func (t *subsetTable) reset(w int) {
	for _, sl := range t.slotOf {
		t.slots[sl] = 0
	}
	t.w = w
	t.keys = t.keys[:0]
	t.counts = t.counts[:0]
	t.slotOf = t.slotOf[:0]
	if t.slots == nil {
		t.slots = make([]int32, subsetTableInit)
	}
}

// key returns entry k's set.
func (t *subsetTable) key(k int) bitset.Row {
	return t.keys[k*t.w : (k+1)*t.w : (k+1)*t.w]
}

// push appends a candidate key for the caller to fill before add.
func (t *subsetTable) push() bitset.Row {
	t.keys = growTail(t.keys, t.w)
	return t.keys[len(t.keys)-t.w:]
}

// add enters the pushed candidate with count c, or, when the table already
// holds its set, adds c to that entry and drops the candidate.
//
//spanjoin:hotpath
func (t *subsetTable) add(c ranked.Count) {
	k := len(t.counts)
	cand := bitset.Row(t.keys[k*t.w:])
	mask := len(t.slots) - 1
	for sl := int(hashRow(cand)) & mask; ; sl = (sl + 1) & mask {
		j := int(t.slots[sl]) - 1
		if j < 0 {
			t.slots[sl] = int32(k) + 1
			t.counts = append(t.counts, c)
			t.slotOf = append(t.slotOf, int32(sl))
			if 2*len(t.counts) > len(t.slots) {
				t.rehash()
			}
			return
		}
		if t.key(j).Equal(cand) {
			t.counts[j] = t.counts[j].Add(c)
			t.keys = t.keys[:k*t.w]
			return
		}
	}
}

// rehash doubles the slot array and reinserts every entry.
func (t *subsetTable) rehash() {
	t.slots = make([]int32, 2*len(t.slots))
	mask := len(t.slots) - 1
	for k := range t.counts {
		sl := int(hashRow(t.key(k))) & mask
		for t.slots[sl] != 0 {
			sl = (sl + 1) & mask
		}
		t.slots[sl] = int32(k) + 1
		t.slotOf[k] = int32(sl)
	}
}

// retainedBytes is the memory t carries back into the scratch pool.
func (t *subsetTable) retainedBytes() int {
	return 8*cap(t.keys) + 16*cap(t.counts) + 4*(cap(t.slotOf)+cap(t.slots))
}

// hashRow mixes a set's words with the splitmix64 finalizer, so the low
// bits that pick a slot depend on every bit of the set.
func hashRow(r bitset.Row) uint64 {
	h := uint64(len(r))
	for _, w := range r {
		h ^= w
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
