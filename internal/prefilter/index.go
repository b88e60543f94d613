package prefilter

import "slices"

// Index is an incremental byte n-gram posting index over an append-only
// sequence of documents: position p is the p-th Add. For every document it
// records the set of distinct byte trigrams and bigrams; Candidates
// intersects a requirement's gram postings to produce a superset of the
// documents that can contain every factor, so a corpus evaluation visits
// only candidates instead of substring-scanning everything.
//
// Postings hold each document position at most once per gram, so the memory
// cost is O(distinct grams per document) ≤ 2·|doc| uint32s in the worst
// case (natural text is far below: repeated grams collapse).
//
// An Index is not safe for concurrent use on its own; the owning store
// serializes access (the shard lock in internal/corpus).
type Index struct {
	post map[uint32][]uint32
	n    uint32
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{post: make(map[uint32][]uint32)}
}

// Gram keys: trigrams occupy the low 24 bits; bigrams are tagged into a
// disjoint namespace so both fit one map.
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
	record := func(k uint32) {
		// Positions are assigned monotonically, so a gram already recorded
		// for this document has the posting list ending in pos — dedup
		// needs no side table.
		list := ix.post[k]
		if n := len(list); n > 0 && list[n-1] == pos {
			return
		}
		ix.post[k] = append(list, pos)
	}
	for i := 0; i+2 < len(doc); i++ {
		record(triKey(doc[i], doc[i+1], doc[i+2]))
	}
	for i := 0; i+1 < len(doc); i++ {
		record(biKey(doc[i], doc[i+1]))
	}
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int { return int(ix.n) }

// Candidates returns the sorted positions of documents that may satisfy
// the requirement. constrained is false when no factor was indexable
// (every factor shorter than two bytes, or the requirement is empty) — the
// caller must then treat every position as a candidate. The positions are
// a superset of the true matches (gram intersection has false positives:
// all grams present need not mean the contiguous factor is); callers
// verify survivors with Requirement.Match.
func (ix *Index) Candidates(req Requirement) (pos []uint32, constrained bool) {
	var lists [][]uint32
	for _, l := range req.lits {
		switch {
		case len(l) >= 3:
			for i := 0; i+2 < len(l); i++ {
				lists = append(lists, ix.post[triKey(l[i], l[i+1], l[i+2])])
			}
		case len(l) == 2:
			lists = append(lists, ix.post[biKey(l[0], l[1])])
		}
	}
	if len(lists) == 0 {
		return nil, false
	}
	// Start from the rarest gram and intersect the others in ascending
	// length: the result only shrinks, and galloping through a list costs
	// O(|result|·log(|list|/|result|)) instead of O(|list|).
	slices.SortFunc(lists, func(a, b []uint32) int { return len(a) - len(b) })
	if len(lists[0]) == 0 {
		return nil, true
	}
	cur := slices.Clone(lists[0])
	for _, list := range lists[1:] {
		if cur = intersect(cur, list); len(cur) == 0 {
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
