package prefilter

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Index is an incremental byte n-gram posting index over an append-only
// sequence of documents: position p is the p-th Add. For every document it
// records the set of distinct byte trigrams and bigrams; Candidates
// intersects a requirement's gram postings to produce a superset of the
// documents that can contain every factor, so a corpus evaluation visits
// only candidates instead of substring-scanning everything.
//
// An open-addressed table maps each gram to an id: one probe per gram
// occurrence. A gram's postings take one of two forms, as in Roaring
// bitmaps: a sorted position array while the gram is sparse, and a bitmap
// from its first position's word on once the array would outgrow it.
// The form follows the observed density both ways — a bitmap that would
// grow past twice the array turns back into one — so a gram's postings
// stay within about twice the smaller form, whatever order its documents
// come in. On e2ebench's adhoc corpus (3,000 documents, 0.9 MB, two
// shards) the two indexes hold 0.94 MB, against 4.7 MB for one uint32 per
// distinct gram per document.
//
// An Index is not safe for concurrent use on its own; the owning store
// serializes access. internal/corpus keeps one per shard under the shard's
// lock: AddAll batches and EnableIndex backfills fill the shards in
// parallel, each worker holding its shard's lock for the shard's whole
// share, so a batch's positions are those sequential Adds would take.
type Index struct {
	// slots is the open-addressed gram table, linearly probed from a
	// Fibonacci hash: a used slot holds (key+1)<<32 | id, an empty one 0.
	// It is kept at most half full.
	slots []uint64
	shift uint32 // 32 - log2(len(slots))
	post  []postings
	n     uint32
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{slots: make([]uint64, 1<<8), shift: 32 - 8}
}

// Gram keys: trigrams occupy the low 24 bits; bigrams are tagged into a
// disjoint namespace so both fit one table.
const bigramTag = 1 << 24

func triKey(b0, b1, b2 byte) uint32 {
	return uint32(b0)<<16 | uint32(b1)<<8 | uint32(b2)
}

func biKey(b0, b1 byte) uint32 {
	return bigramTag | uint32(b0)<<8 | uint32(b1)
}

// Add appends the next document. Positions are assigned in call order,
// matching the append-only store the index shadows.
func (ix *Index) Add(doc string) {
	pos := ix.n
	ix.n++
	for i := 0; i+1 < len(doc); i++ {
		ix.post[ix.id(biKey(doc[i], doc[i+1]))].add(pos)
		if i+2 < len(doc) {
			ix.post[ix.id(triKey(doc[i], doc[i+1], doc[i+2]))].add(pos)
		}
	}
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int { return int(ix.n) }

func (ix *Index) home(k uint32) int { return int(k * 0x9E3779B1 >> ix.shift) }

// probe returns the slot holding gram k, or the empty slot k would take.
func (ix *Index) probe(k uint32) int {
	tag := uint64(k+1) << 32
	i := ix.home(k)
	for s := ix.slots[i]; s != 0 && s&^math.MaxUint32 != tag; s = ix.slots[i] {
		i = (i + 1) & (len(ix.slots) - 1)
	}
	return i
}

// find returns the postings of gram k, or nil when no document has it.
func (ix *Index) find(k uint32) *postings {
	if s := ix.slots[ix.probe(k)]; s != 0 {
		return &ix.post[uint32(s)]
	}
	return nil
}

// id returns gram k's id, entering k in the table on its first occurrence.
func (ix *Index) id(k uint32) uint32 {
	i := ix.probe(k)
	if s := ix.slots[i]; s != 0 {
		return uint32(s)
	}
	if 2*(len(ix.post)+1) > len(ix.slots) {
		ix.grow()
		i = ix.probe(k)
	}
	id := uint32(len(ix.post))
	ix.slots[i] = uint64(k+1)<<32 | uint64(id)
	ix.post = append(ix.post, postings{})
	return id
}

// grow doubles the gram table and re-enters every gram.
func (ix *Index) grow() {
	old := ix.slots
	ix.slots = make([]uint64, 2*len(old))
	ix.shift--
	for _, s := range old {
		if s != 0 {
			ix.slots[ix.probe(uint32(s>>32)-1)] = s
		}
	}
}

// postings holds one gram's document positions, n of them. In array form
// data lists them in ascending order. In bitmap form position p is bit
// p%32 of data[p/32-base], and base is the word of the first position.
type postings struct {
	data   []uint32
	n      uint32
	base   uint32
	bitmap bool
}

// add records pos, which is at least every position recorded before.
func (p *postings) add(pos uint32) {
	if !p.bitmap {
		if p.n > 0 && p.data[p.n-1] == pos {
			return // the gram occurred earlier in this document
		}
		first := pos
		if p.n > 0 {
			first = p.data[0]
		}
		if words := pos/32 - first/32 + 1; p.n+1 > words {
			p.toBitmap(first/32, words)
		} else {
			p.data = append(p.data, pos)
			p.n++
			return
		}
	}
	w := pos/32 - p.base
	if need := int(w) + 1; need > len(p.data) {
		if need > 2*(int(p.n)+1) {
			// The bitmap would outgrow twice the array: back to one.
			p.toArray()
			p.data = append(p.data, pos)
			p.n++
			return
		}
		if need > cap(p.data) {
			// Double the words, but never past twice the array.
			c := max(need, min(2*cap(p.data), 2*(int(p.n)+1)))
			p.data = append(make([]uint32, 0, c), p.data...)
		}
		p.data = p.data[:need] // words past len were never written
	}
	if bit := uint32(1) << (pos % 32); p.data[w]&bit == 0 {
		p.data[w] |= bit
		p.n++
	}
}

// toBitmap turns the array form into words bitmap words from word base.
func (p *postings) toBitmap(base, words uint32) {
	bm := make([]uint32, words)
	for _, x := range p.data {
		bm[x/32-base] |= 1 << (x % 32)
	}
	p.data, p.base, p.bitmap = bm, base, true
}

// toArray turns the bitmap form back into a position array.
func (p *postings) toArray() {
	p.data, p.bitmap = p.positions(1), false
}

// positions returns a fresh ascending slice of the positions, with room
// for extra more.
func (p *postings) positions(extra int) []uint32 {
	if !p.bitmap {
		return append(make([]uint32, 0, len(p.data)+extra), p.data...)
	}
	out := make([]uint32, 0, extra+int(p.n))
	for w, word := range p.data {
		for ; word != 0; word &= word - 1 {
			out = append(out, (p.base+uint32(w))*32+uint32(bits.TrailingZeros32(word)))
		}
	}
	return out
}

// keep keeps the positions of a that p holds, in place of a: a bit probe
// each in bitmap form, a gallop through the array otherwise.
func (p *postings) keep(a []uint32) []uint32 {
	if !p.bitmap {
		return intersect(a, p.data)
	}
	out := a[:0]
	for _, x := range a {
		// Below the first word w wraps past len(p.data).
		if w := x/32 - p.base; w < uint32(len(p.data)) && p.data[w]&(1<<(x%32)) != 0 {
			out = append(out, x)
		}
	}
	return out
}

// Candidates returns the sorted positions of documents that may satisfy
// the requirement. constrained is false when no factor was indexable
// (every factor shorter than two bytes, or the requirement is empty) — the
// caller must then treat every position as a candidate. The positions are
// a superset of the true matches (gram intersection has false positives:
// all grams present need not mean the contiguous factor is); callers
// verify survivors with Requirement.Match.
func (ix *Index) Candidates(req Requirement) (pos []uint32, constrained bool) {
	var lists []*postings
	for _, l := range req.lits {
		// A factor of three or more bytes is its trigrams, one of two
		// bytes its bigram; a shorter one constrains nothing.
		grams := len(l) - 2
		if len(l) == 2 {
			grams = 1
		}
		for i := 0; i < grams; i++ {
			k := biKey(l[0], l[1])
			if len(l) > 2 {
				k = triKey(l[i], l[i+1], l[i+2])
			}
			p := ix.find(k)
			if p == nil {
				return nil, true // no document has this gram
			}
			lists = append(lists, p)
		}
	}
	if len(lists) == 0 {
		return nil, false
	}
	// Start from the rarest gram and intersect the others in ascending
	// cardinality: the result only shrinks, and each position costs a bit
	// probe, or a gallop through an array: O(|result|·log(|list|/|result|))
	// instead of O(|list|).
	slices.SortFunc(lists, func(a, b *postings) int { return cmp.Compare(a.n, b.n) })
	cur := lists[0].positions(0)
	for _, p := range lists[1:] {
		if cur = p.keep(cur); len(cur) == 0 {
			return nil, true
		}
	}
	return cur, true
}

// intersect keeps the positions of a that b holds, in place of a. Both
// are sorted and a is the shorter: each position is found in b by an
// exponential search from where the last one was, then a binary search
// inside the bracket that found.
func intersect(a, b []uint32) []uint32 {
	out := a[:0]
	lo := 0 // b[:lo] holds only positions below the next one of a
	for _, x := range a {
		step := 1
		for lo+step <= len(b) && b[lo+step-1] < x {
			step *= 2
		}
		from := lo + step/2 // b[from-1] < x, when step > 1
		k, found := slices.BinarySearch(b[from:min(lo+step, len(b))], x)
		if lo = from + k; found {
			out = append(out, x)
			lo++
		}
		if lo == len(b) {
			break
		}
	}
	return out
}
