// Package bitset provides dense word-packed bit rows and matrices used by
// the state-set hot paths of the engine: ε/variable closures, the layered
// graph construction of Theorem 3.3's enumeration, and the NFA
// cross-section. A Row packs one bit per automaton state into []uint64
// words, so unions, intersections and membership tests over state sets cost
// one machine word per 64 states instead of one branch per state.
//
// Rows over the same universe size are freely combinable; all binary
// operations require equal length (guaranteed by allocating through the same
// WordsFor/NewRow/Matrix helpers). A zero-length Row is a valid empty set.
package bitset

import "math/bits"

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// WordsFor returns the number of uint64 words needed for n bits.
func WordsFor(n int) int { return (n + wordMask) >> wordShift }

// Row is a packed bit vector over a fixed universe 0..n-1.
type Row []uint64

// NewRow returns a zeroed row able to hold n bits.
func NewRow(n int) Row { return make(Row, WordsFor(n)) }

// Set sets bit i.
func (r Row) Set(i int32) { r[i>>wordShift] |= 1 << (uint(i) & wordMask) }

// Test reports whether bit i is set.
func (r Row) Test(i int32) bool {
	return r[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// Zero clears every bit.
func (r Row) Zero() {
	for i := range r {
		r[i] = 0
	}
}

// CopyFrom overwrites r with o (equal length).
func (r Row) CopyFrom(o Row) { copy(r, o) }

// Or unions o into r.
func (r Row) Or(o Row) {
	for i, w := range o {
		r[i] |= w
	}
}

// And intersects r with o.
func (r Row) And(o Row) {
	for i := range r {
		r[i] &= o[i]
	}
}

// Any reports whether any bit is set.
func (r Row) Any() bool {
	for _, w := range r {
		if w != 0 {
			return true
		}
	}
	return false
}

// Intersects reports whether r ∩ o is non-empty, without materializing the
// intersection — the word-parallel liveness test of a build's backward
// step.
func (r Row) Intersects(o Row) bool {
	for i, w := range r {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set bits.
func (r Row) Count() int {
	c := 0
	for _, w := range r {
		c += bits.OnesCount64(w)
	}
	return c
}

// Equal reports whether r and o hold the same bits.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

// NextOne returns the smallest set bit ≥ from, or -1 if none.
func (r Row) NextOne(from int32) int32 {
	if from < 0 {
		from = 0
	}
	wi := int(from) >> wordShift
	if wi >= len(r) {
		return -1
	}
	w := r[wi] >> (uint(from) & wordMask)
	if w != 0 {
		return from + int32(bits.TrailingZeros64(w))
	}
	for wi++; wi < len(r); wi++ {
		if r[wi] != 0 {
			return int32(wi<<wordShift) + int32(bits.TrailingZeros64(r[wi]))
		}
	}
	return -1
}

// AppendOnes appends the indices of set bits to dst in ascending order.
func (r Row) AppendOnes(dst []int32) []int32 {
	for wi, w := range r {
		base := int32(wi << wordShift)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Matrix is a dense rows×n bit matrix stored in one backing slice; Row(i)
// views row i.
type Matrix struct {
	rows  int
	words int
	bits  []uint64
}

// NewMatrix returns a zeroed matrix with the given row count over an
// n-element universe.
func NewMatrix(rows, n int) *Matrix {
	m := &Matrix{}
	m.Resize(rows, n)
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Row returns row i as a Row view; mutations write through.
func (m *Matrix) Row(i int) Row {
	off := i * m.words
	return Row(m.bits[off : off+m.words : off+m.words])
}

// Bytes is the size of the matrix's backing words.
func (m *Matrix) Bytes() int { return 8 * cap(m.bits) }

// Resize reshapes the matrix to rows×n bits, zeroing all content. The
// backing slice is reused when large enough.
func (m *Matrix) Resize(rows, n int) {
	m.rows = rows
	m.words = WordsFor(n)
	need := rows * m.words
	if cap(m.bits) < need {
		m.bits = make([]uint64, need)
		return
	}
	m.bits = m.bits[:need]
	for i := range m.bits {
		m.bits[i] = 0
	}
}
