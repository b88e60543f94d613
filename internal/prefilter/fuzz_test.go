package prefilter_test

import (
	"slices"
	"strings"
	"testing"

	"spanjoin/internal/prefilter"
)

// FuzzIndexCandidates is the skip index's differential harness. The input
// picks up to 16 documents, indexed in up to 40 copies with a run of up to
// 2,047 empty filler documents between copies, and up to four factors.
// Repetition makes a gram's postings dense enough to turn into a bitmap,
// and the filler makes them sparse enough to turn back into an array, at
// positions past one bitmap word. The candidates must equal the exact
// gram intersection — every position whose document holds every gram of
// every factor — and, verified with Requirement.Match, the brute-force
// substring scan: any missed or phantom posting, broken form change,
// broken intersection or bad gram key shows up as a lost or phantom
// document.
func FuzzIndexCandidates(f *testing.F) {
	f.Add("aab|ba|abab", "ab", uint8(0), uint16(0))
	f.Add("needle in|hay|the needle", "needle", uint8(0), uint16(0))
	f.Add("x|y|z", "", uint8(0), uint16(0))
	f.Add("alpha beta|alpha|beta", "alpha\xffbeta", uint8(0), uint16(0))
	f.Add("aaa|aa|a||aaaa", "aa\xffaaa", uint8(0), uint16(0))
	f.Add("aab|ba|abab|bab|aba", "ab\xffba", uint8(30), uint16(5))
	f.Add("needle in|hay|the needle", "needle", uint8(39), uint16(700))
	f.Add("aaa|aa|a||aaaa|aab", "aa\xffaaa", uint8(12), uint16(2000))
	f.Fuzz(func(t *testing.T, blob, litBlob string, copies uint8, gap uint16) {
		docs := strings.Split(blob, "|")
		if len(docs) > 16 {
			docs = docs[:16]
		}
		var lits []string
		for _, l := range strings.Split(litBlob, "\xff") {
			if len(l) > 12 {
				l = l[:12]
			}
			lits = append(lits, l)
		}
		if len(lits) > 4 {
			lits = lits[:4]
		}
		req := prefilter.New(lits...)

		n, fill := 1+int(copies%40), int(gap%2048)
		ix := prefilter.NewIndex()
		for c := 0; c < n; c++ {
			for k := 0; c > 0 && k < fill; k++ {
				ix.Add("")
			}
			for _, d := range docs {
				ix.Add(d)
			}
		}
		if want := n*len(docs) + (n-1)*fill; ix.Len() != want {
			t.Fatalf("Len = %d, want %d", ix.Len(), want)
		}

		var grams []string
		for _, l := range req.Literals() {
			grams = append(grams, gramsOf(l)...)
		}
		holds := make([]bool, len(docs)) // the document holds every gram
		for i, d := range docs {
			holds[i] = true
			for _, g := range grams {
				holds[i] = holds[i] && strings.Contains(d, g)
			}
		}
		pos, constrained := ix.Candidates(req)
		if constrained != (len(grams) > 0) {
			t.Fatalf("constrained = %v with grams %q", constrained, grams)
		}
		if constrained {
			var want []uint32
			for c := 0; c < n; c++ {
				for i := range docs {
					if holds[i] {
						want = append(want, uint32(c*(len(docs)+fill)+i))
					}
				}
			}
			if !slices.Equal(pos, want) {
				t.Fatalf("req %v, %d copies, %d filler: candidates %v, gram intersection %v", req, n, fill, pos, want)
			}
		}
		for i, d := range docs {
			want := true
			for _, l := range req.Literals() {
				want = want && strings.Contains(d, l)
			}
			if got := (!constrained || holds[i]) && req.Match(d); got != want {
				t.Fatalf("doc %d %q: verified=%v, brute force=%v (req %v)", i, d, got, want, req)
			}
		}
	})
}
