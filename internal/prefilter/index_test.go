package prefilter_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"spanjoin/internal/prefilter"
)

// gramsOf lists the grams the index looks up for factor l: its trigrams,
// its bigram when it has two bytes, none when it has fewer.
func gramsOf(l string) []string {
	if len(l) == 2 {
		return []string{l}
	}
	var out []string
	for i := 0; i+2 < len(l); i++ {
		out = append(out, l[i:i+3])
	}
	return out
}

func candidateSet(ix *prefilter.Index, req prefilter.Requirement, n int) map[int]bool {
	pos, constrained := ix.Candidates(req)
	out := make(map[int]bool)
	if !constrained {
		for i := 0; i < n; i++ {
			out[i] = true
		}
		return out
	}
	for _, p := range pos {
		out[int(p)] = true
	}
	return out
}

func TestIndexCandidatesSuperset(t *testing.T) {
	docs := []string{
		"the quick brown fox",
		"a needle in the haystack",
		"no grams shared here",
		"needle and thread",
		"",
		"nee dle split apart",
	}
	ix := prefilter.NewIndex()
	for _, d := range docs {
		ix.Add(d)
	}
	req := prefilter.New("needle")
	cand := candidateSet(ix, req, len(docs))
	for i, d := range docs {
		if strings.Contains(d, "needle") && !cand[i] {
			t.Errorf("doc %d %q contains the factor but is not a candidate", i, d)
		}
	}
	// Exactness after verification: candidates surviving Match are exactly
	// the true matches.
	for i, d := range docs {
		want := strings.Contains(d, "needle")
		got := cand[i] && req.Match(d)
		if got != want {
			t.Errorf("doc %d %q: verified candidate %v, want %v", i, d, got, want)
		}
	}
}

func TestIndexShortLiterals(t *testing.T) {
	ix := prefilter.NewIndex()
	docs := []string{"ab here", "nothing", "cab"}
	for _, d := range docs {
		ix.Add(d)
	}
	// Two-byte factors use the bigram postings.
	cand := candidateSet(ix, prefilter.New("ab"), len(docs))
	if !cand[0] || cand[1] || !cand[2] {
		t.Errorf("bigram candidates = %v", cand)
	}
	// One-byte factors cannot constrain: every doc stays a candidate.
	if _, constrained := ix.Candidates(prefilter.New("a")); constrained {
		t.Error("single-byte factor must not constrain the index")
	}
	if _, constrained := ix.Candidates(prefilter.Requirement{}); constrained {
		t.Error("empty requirement must not constrain the index")
	}
}

func TestIndexConjunction(t *testing.T) {
	ix := prefilter.NewIndex()
	docs := []string{"alpha beta", "alpha only", "beta only", "gamma"}
	for _, d := range docs {
		ix.Add(d)
	}
	cand := candidateSet(ix, prefilter.New("alpha", "beta"), len(docs))
	if !cand[0] {
		t.Error("doc with both factors must be a candidate")
	}
	if cand[1] || cand[2] || cand[3] {
		t.Errorf("conjunction candidates = %v, want only doc 0", cand)
	}
}

func TestIndexIncremental(t *testing.T) {
	ix := prefilter.NewIndex()
	ix.Add("without")
	req := prefilter.New("signal")
	if pos, constrained := ix.Candidates(req); !constrained || len(pos) != 0 {
		t.Fatalf("Candidates = %v,%v before the doc exists", pos, constrained)
	}
	ix.Add("the signal arrives")
	pos, constrained := ix.Candidates(req)
	if !constrained || len(pos) != 1 || pos[0] != 1 {
		t.Fatalf("Candidates = %v,%v after Add, want [1]", pos, constrained)
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

// TestCandidatesGallopLopsided: over 2,000 documents one gram's posting
// list holds every position, another's a few dozen and a third's about a
// third, so the intersection gallops far through the long lists. The
// candidates must equal a brute-force scan for the documents that hold
// every gram of every literal.
func TestCandidatesGallopLopsided(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ix := prefilter.NewIndex()
	docs := make([]string, 2000)
	for i := range docs {
		doc := "the common text"
		if r.Intn(40) == 0 {
			doc += " rare xyzzy"
		}
		if r.Intn(3) == 0 {
			doc += " mid qux"
		}
		if i == len(docs)-1 {
			doc += " xyzzy qux" // the last position is a candidate
		}
		docs[i] = doc
		ix.Add(doc)
	}
	for _, lits := range [][]string{
		{"common", "xyzzy"}, {"xyzzy", "common", "qux"}, {"qux", "common"},
		{"common"}, {"zy", "xy"}, {"nowhere"}, {"rare", "mid"},
	} {
		req := prefilter.New(lits...)
		pos, constrained := ix.Candidates(req)
		if !constrained {
			t.Fatalf("%v: unconstrained", lits)
		}
		var want []uint32
		for i, d := range docs {
			all := true
			for _, l := range req.Literals() {
				for _, g := range gramsOf(l) {
					all = all && strings.Contains(d, g)
				}
			}
			if all {
				want = append(want, uint32(i))
			}
		}
		if !slices.Equal(pos, want) {
			t.Fatalf("%v: %d candidates, brute force %d", lits, len(pos), len(want))
		}
	}
}
