package vsa

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"spanjoin/internal/alphabet"
	"spanjoin/internal/bitset"
)

// tableBuilds counts TransitionTable constructions process-wide. The corpus
// compiled-query cache is supposed to build the table exactly once per
// cached query; tests assert that through this counter instead of relying
// on code inspection.
var tableBuilds atomic.Uint64

// TableBuildCount reports how many transition tables this process has built.
func TableBuildCount() uint64 { return tableBuilds.Load() }

// TransitionTable is the byte-class compiled transition representation of a
// trimmed functional automaton, in the style of RE2-like byte-class
// compression: the 256 byte values are partitioned into equivalence classes
// (two bytes are equivalent iff every CharClass on every transition treats
// them identically), and each class c carries a boundary-to-boundary bitset
// matrix M_c whose row p is the union of the boundary closures of the
// targets of p's character transitions that accept c — δ pre-composed with
// the variable-ε closure. The successor set of a state under one document
// byte is then a precomputed matrix row.
//
// The table's states are the boundary states (see boundaryClosures): the
// states that read a byte, plus qf. Every matrix row, and the start row
// VE(Init), holds only boundary states. Any other state has no successor,
// so a run that enters one never reads another byte: it can sit only at
// the end of a document, where only qf counts. Dropping those states
// changes neither a layered graph's pruned nodes nor a count, and keeps the
// ε-closure states a Thompson automaton crowds into every set out of the
// builds' and counts' state sets.
//
// The table depends only on the compiled automaton, never on a document, so
// it is built once per compiled query and shared by every enumerator,
// clone and corpus worker. Memory is NumClasses live matrices of n² bits
// each; the closures it is composed from are lists of boundary states,
// never a matrix, and the class of bytes no transition accepts shares a
// nil matrix.
type TransitionTable struct {
	classOf    [256]uint8
	numClasses int
	repr       []byte
	// mats[c] is M_c; nil for the dead class (no transition accepts its
	// bytes — a document containing one cannot match at all).
	mats  []*bitset.Matrix
	start bitset.Row // the boundary states of VE(Init)
}

// NewTransitionTable compiles the table for a trimmed automaton (the one
// RequireFunctional returns). Cost is O(|blocks|·|distinct classes|) word
// operations for the byte partition, plus the boundary closures and
// O(C·n²/w) to zero and fill the matrices.
func NewTransitionTable(a *VSA) *TransitionTable {
	tableBuilds.Add(1)
	tt := &TransitionTable{}
	n := a.NumStates()

	// Distinct character-transition classes and their union.
	var distinct []alphabet.Class
	var accepted alphabet.Class
	seen := make(map[alphabet.Class]struct{})
	for _, ts := range a.Adj {
		for _, tr := range ts {
			if tr.Kind != KChar {
				continue
			}
			if _, ok := seen[tr.Class]; !ok {
				seen[tr.Class] = struct{}{}
				distinct = append(distinct, tr.Class)
				accepted = accepted.Union(tr.Class)
			}
		}
	}

	// Partition the bytes by refinement: starting from one block of every
	// byte, each distinct class splits each block it cuts in two. Bytes
	// then share a block iff no transition label tells them apart. Blocks
	// are numbered by their smallest byte, the order in which a scan of the
	// bytes first meets them.
	blocks := []alphabet.Class{alphabet.Any()}
	for _, c := range distinct {
		for k, nb := 0, len(blocks); k < nb; k++ {
			in := blocks[k].Intersect(c)
			if in.IsEmpty() || in == blocks[k] {
				continue
			}
			blocks[k] = blocks[k].Minus(c)
			blocks = append(blocks, in)
		}
	}
	slices.SortFunc(blocks, func(x, y alphabet.Class) int { return lowest(x) - lowest(y) })
	tt.numClasses = len(blocks)
	tt.repr = make([]byte, len(blocks))
	for id, blk := range blocks {
		tt.repr[id] = byte(lowest(blk))
		for w, x := range blk {
			for ; x != 0; x &= x - 1 {
				tt.classOf[w<<6|bits.TrailingZeros64(x)] = uint8(id)
			}
		}
	}

	// Fill M_c row by row: δ restricted to the class, pre-composed with the
	// boundary closures. A class outside every transition label keeps a
	// nil matrix (the dead class).
	ve := a.boundaryClosures()
	tt.mats = make([]*bitset.Matrix, tt.numClasses)
	for c, rep := range tt.repr {
		if !accepted.Contains(rep) {
			continue
		}
		m := bitset.NewMatrix(n, n)
		for q, ts := range a.Adj {
			for _, tr := range ts {
				if tr.Kind == KChar && tr.Class.Contains(rep) {
					setAll(m.Row(q), ve[tr.To])
				}
			}
		}
		tt.mats[c] = m
	}
	tt.start = bitset.NewRow(n)
	setAll(tt.start, ve[a.Init])
	return tt
}

// setAll adds the states of list to r.
func setAll(r bitset.Row, list []int32) {
	for _, q := range list {
		r.Set(q)
	}
}

// boundaryClosures returns, for every state q, the boundary states of its
// variable-ε closure VE(q) in ascending order. VE(q) is the set of states
// reachable from q by ε- and variable transitions, q included (paper,
// proofs of Thm 3.3 and Lemma 3.10); a boundary state reads a byte or is
// qf — the q̂ states of §4.1, where a run sits between two bytes. The
// constructions that step a run over bytes (the transition table, Join,
// KeyAttribute) read VE only through these lists. Each list comes from one
// depth-first search into a single scratch row, so the build keeps O(n)
// words beside the lists and never an n×n matrix.
func (a *VSA) boundaryClosures() [][]int32 {
	n := len(a.Adj)
	boundary := bitset.NewRow(n)
	boundary.Set(a.Final)
	for q, ts := range a.Adj {
		for _, t := range ts {
			if t.Kind == KChar {
				boundary.Set(int32(q))
				break
			}
		}
	}
	row := bitset.NewRow(n)
	stack := make([]int32, 0, 16)
	ends := make([]int, n)
	arena := make([]int32, 0, n) // a closure seldom holds more than one boundary state
	for q := range a.Adj {
		row.Set(int32(q))
		stack = append(stack[:0], int32(q))
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range a.Adj[p] {
				if t.Kind != KChar && !row.Test(t.To) {
					row.Set(t.To)
					stack = append(stack, t.To)
				}
			}
		}
		row.And(boundary)
		arena = row.AppendOnes(arena)
		ends[q] = len(arena)
		row.Zero()
	}
	// Views into the arena, sliced once it has stopped growing.
	out := make([][]int32, n)
	start := 0
	for q, end := range ends {
		out[q] = arena[start:end:end]
		start = end
	}
	return out
}

// lowest returns the smallest byte of a non-empty class.
func lowest(c alphabet.Class) int {
	for w, x := range c {
		if x != 0 {
			return w<<6 | bits.TrailingZeros64(x)
		}
	}
	return alphabet.Size
}

// NumClasses reports the number of byte equivalence classes (including the
// dead class, when some byte matches no transition).
func (tt *TransitionTable) NumClasses() int { return tt.numClasses }

// ClassOf returns the equivalence class id of a byte.
func (tt *TransitionTable) ClassOf(b byte) int { return int(tt.classOf[b]) }

// Repr returns a representative byte of class c: its smallest.
func (tt *TransitionTable) Repr(c int) byte { return tt.repr[c] }

// ClassMat returns the matrix of class c, or nil for the dead class: no
// transition in the automaton accepts its bytes, so no run can consume
// one, and any document containing one has an empty result.
func (tt *TransitionTable) ClassMat(c int) *bitset.Matrix { return tt.mats[c] }

// Bytes is what the table holds: its class matrices, start row, class
// map and class representatives.
func (tt *TransitionTable) Bytes() int {
	n := len(tt.classOf) + cap(tt.repr) + 8*(cap(tt.start)+cap(tt.mats))
	for _, m := range tt.mats {
		if m != nil {
			n += m.Bytes()
		}
	}
	return n
}

// Start returns the start row: the boundary states of VE(Init). Callers
// must not modify it.
func (tt *TransitionTable) Start() bitset.Row { return tt.start }
