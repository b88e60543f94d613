package enum

// This file holds plain NFAs over an abstract integer alphabet and the
// cross-section enumeration of Ackerman and Shallit ("Efficient
// enumeration of words in regular languages", TCS 2009) that Theorem 3.3's
// algorithm is reduced to: given an NFA M and a length ℓ, enumerate
// L(M) ∩ Σ^ℓ in radix order with polynomial delay and no repetitions.
//
// The enumerator is a version specialized to the layered automaton A_G;
// this generic implementation serves as an independently tested substrate
// (nfa_crosssection_test.go) and as a cross-validation target for it
// (crossvalidate_test.go, through AsNFA).

import (
	"fmt"
	"sort"

	"spanjoin/internal/bitset"
)

// Edge is a transition labelled with an abstract symbol id. Symbol ids
// double as the radix order: smaller id = smaller letter.
type Edge struct {
	Sym int32
	To  int32
}

// NFA is a nondeterministic finite automaton without ε-transitions over
// symbols 0..NumSyms-1.
type NFA struct {
	NumStates int
	NumSyms   int
	Start     []int32
	Final     []int32
	Adj       [][]Edge
}

// NewNFA returns an empty automaton with n states.
func NewNFA(states, syms int) *NFA {
	return &NFA{NumStates: states, NumSyms: syms, Adj: make([][]Edge, states)}
}

// Add inserts a transition.
func (m *NFA) Add(p int32, sym int32, q int32) {
	m.Adj[p] = append(m.Adj[p], Edge{Sym: sym, To: q})
}

// sortEdges orders each adjacency list by (symbol, target) and removes
// duplicates; required before enumeration.
func (m *NFA) sortEdges() {
	for i := range m.Adj {
		es := m.Adj[i]
		sort.Slice(es, func(a, b int) bool {
			if es[a].Sym != es[b].Sym {
				return es[a].Sym < es[b].Sym
			}
			return es[a].To < es[b].To
		})
		out := es[:0]
		for k, e := range es {
			if k == 0 || es[k-1] != e {
				out = append(out, e)
			}
		}
		m.Adj[i] = out
	}
}

// CrossSection returns an iterator over L(M) ∩ Σ^length in radix order.
// Preprocessing is O(length · (|Q| + |Δ|)); the delay between words is
// O(length · |Q|²) in the worst case.
type CrossSection struct {
	m      *NFA
	length int
	// alive row i: state q can reach a final state in exactly length-i
	// steps. Words are built left to right through alive states only.
	alive *bitset.Matrix

	started bool
	done    bool
	word    []int32
	sets    [][]int32  // sets[i]: alive states after reading word[:i+1]
	seen    bitset.Row // dedup scratch for setSym
}

// EnumerateLength prepares a cross-section enumeration.
func (m *NFA) EnumerateLength(length int) (*CrossSection, error) {
	if length < 0 {
		return nil, fmt.Errorf("nfa: negative length %d", length)
	}
	m.sortEdges()
	cs := &CrossSection{m: m, length: length}
	// Backward reachability DP on bitset rows.
	cs.alive = bitset.NewMatrix(length+1, m.NumStates)
	last := cs.alive.Row(length)
	for _, f := range m.Final {
		last.Set(f)
	}
	for i := length - 1; i >= 0; i-- {
		cur, next := cs.alive.Row(i), cs.alive.Row(i+1)
		for q := 0; q < m.NumStates; q++ {
			for _, e := range m.Adj[q] {
				if next.Test(e.To) {
					cur.Set(int32(q))
					break
				}
			}
		}
	}
	cs.word = make([]int32, length)
	cs.sets = make([][]int32, length)
	cs.seen = bitset.NewRow(m.NumStates)
	return cs, nil
}

// Next returns the next word of the cross-section; ok is false when done.
// The returned slice is reused across calls; copy it to retain.
func (cs *CrossSection) Next() (word []int32, ok bool) {
	if cs.done {
		return nil, false
	}
	if !cs.started {
		cs.started = true
		if cs.length == 0 {
			cs.done = true
			row := cs.alive.Row(0)
			for _, s := range cs.m.Start {
				if row.Test(s) {
					return cs.word, true // the empty word
				}
			}
			return nil, false
		}
		if !cs.minWord(0) {
			cs.done = true
			return nil, false
		}
		return cs.word, true
	}
	if cs.length == 0 || !cs.nextWord() {
		cs.done = true
		return nil, false
	}
	return cs.word, true
}

// statesBefore returns the state set from which position i's symbol is
// chosen.
func (cs *CrossSection) statesBefore(i int) []int32 {
	if i == 0 {
		var out []int32
		row := cs.alive.Row(0)
		for _, s := range cs.m.Start {
			if row.Test(s) {
				out = append(out, s)
			}
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		return out
	}
	return cs.sets[i-1]
}

// minSym finds the smallest symbol > after available from the set at
// position i that leads to an alive state; after = -1 means any.
func (cs *CrossSection) minSym(i int, after int32) (int32, bool) {
	best := int32(-1)
	alive := cs.alive.Row(i + 1)
	for _, q := range cs.statesBefore(i) {
		for _, e := range cs.m.Adj[q] {
			if e.Sym <= after || !alive.Test(e.To) {
				continue
			}
			if best < 0 || e.Sym < best {
				best = e.Sym
			}
			break // adjacency sorted by symbol: first viable is minimal for q
		}
	}
	return best, best >= 0
}

// setSym fixes word[i] = sym and recomputes sets[i].
func (cs *CrossSection) setSym(i int, sym int32) {
	cs.word[i] = sym
	cs.seen.Zero()
	alive := cs.alive.Row(i + 1)
	for _, q := range cs.statesBefore(i) {
		for _, e := range cs.m.Adj[q] {
			if e.Sym == sym && alive.Test(e.To) {
				cs.seen.Set(e.To)
			}
		}
	}
	cs.sets[i] = cs.seen.AppendOnes(cs.sets[i][:0])
}

func (cs *CrossSection) minWord(from int) bool {
	for i := from; i < cs.length; i++ {
		sym, ok := cs.minSym(i, -1)
		if !ok {
			return false
		}
		cs.setSym(i, sym)
	}
	return true
}

func (cs *CrossSection) nextWord() bool {
	for i := cs.length - 1; i >= 0; i-- {
		sym, ok := cs.minSym(i, cs.word[i])
		if !ok {
			continue
		}
		cs.setSym(i, sym)
		if cs.minWord(i + 1) {
			return true
		}
	}
	return false
}

// minSym has a subtle requirement: the per-state break above assumes each
// state's first viable edge has that state's minimal viable symbol, which
// holds because adjacency lists are symbol-sorted and we skip non-alive
// targets only after comparing symbols. For safety the break is taken only
// after a viable edge; non-viable edges with smaller symbols are skipped in
// the loop.

// Accepts reports whether the NFA accepts the word (for tests).
func (m *NFA) Accepts(word []int32) bool {
	cur := map[int32]bool{}
	for _, s := range m.Start {
		cur[s] = true
	}
	for _, sym := range word {
		next := map[int32]bool{}
		for q := range cur {
			for _, e := range m.Adj[q] {
				if e.Sym == sym {
					next[e.To] = true
				}
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	for _, f := range m.Final {
		if cur[f] {
			return true
		}
	}
	return false
}

// AsNFA exports the layered automaton A_G as a generic NFA over the letter
// alphabet (symbol ids = letter ids), for cross-validation against the
// generic cross-section enumerator above. State 0 is the virtual start;
// node (i, k) becomes state 1 + offset(i) + k.
func (e *Enumerator) AsNFA() *NFA {
	levels := e.Levels()
	offsets := make([]int, len(levels)+1)
	total := 1
	for i, lvl := range levels {
		offsets[i] = total
		total += len(lvl)
	}
	offsets[len(levels)] = total
	m := NewNFA(total, len(e.plan.configs))
	m.Start = []int32{0}
	if e.empty || len(levels) == 0 {
		return m
	}
	for k := range e.g.startLetters {
		for _, tgt := range e.g.startByLetter[k] {
			m.Add(0, e.g.startLetters[k], int32(offsets[0])+tgt)
		}
	}
	for i, lvl := range levels {
		for k := range lvl {
			nd := &lvl[k]
			for li := range nd.TargetLetters {
				for _, tgt := range nd.TargetsByLetter[li] {
					m.Add(int32(offsets[i]+k), nd.TargetLetters[li], int32(offsets[i+1])+tgt)
				}
			}
		}
	}
	last := len(levels) - 1
	for k := range levels[last] {
		m.Final = append(m.Final, int32(offsets[last]+k))
	}
	return m
}
