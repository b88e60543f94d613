package prefilter

import (
	"slices"
	"testing"
)

// TestPostingsFootprintFollowsDensity: a gram in each of the first 200
// documents, in none of the next 100,000, then in one more. After every
// occurrence its postings hold at most twice the smaller of its two forms
// plus a constant: a bitmap while the gram is dense, an array again once
// the bitmap would span the gap (12.5 KB where 201 positions take 804 B).
func TestPostingsFootprintFollowsDensity(t *testing.T) {
	ix := NewIndex()
	var want []uint32
	occur := func() {
		want = append(want, uint32(ix.Len()))
		ix.Add("qz")
		p := ix.find(biKey('q', 'z'))
		if got := p.positions(0); !slices.Equal(got, want) {
			t.Fatalf("after %d occurrences: positions %v, want %v", len(want), got, want)
		}
		array := 4 * len(want)
		bitmap := 4 * int(want[len(want)-1]/32-want[0]/32+1)
		if held := 4 * cap(p.data); held > 2*min(array, bitmap)+64 {
			t.Fatalf("after %d occurrences (last at %d): postings hold %d B; array %d B, bitmap %d B",
				len(want), want[len(want)-1], held, array, bitmap)
		}
	}
	for range 200 {
		occur()
	}
	for range 100_000 {
		ix.Add("ab")
	}
	occur()
	if pos, _ := ix.Candidates(New("qz")); !slices.Equal(pos, want) {
		t.Fatalf("Candidates = %d positions, want %d", len(pos), len(want))
	}
}
