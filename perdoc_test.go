package spanjoin

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"spanjoin/internal/alloctest"
	"spanjoin/internal/enum"
)

// TestSkipDescendsOnContextStream: a stream opened with a cancellable
// context is still enumerator-backed, so a Skip past skipStepThreshold is
// one ranked descent — the rank is built — and the next match is the one
// Ranked.ResultAt names.
func TestSkipDescendsOnContextStream(t *testing.T) {
	sp := MustCompile(".*x{a+}.*")
	doc := strings.Repeat("a", 64) // 2,080 matches
	r, err := sp.Ranked(doc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, n := range []uint64{skipStepThreshold + 1, 1000, 2079} {
		ms, err := sp.Iterate(ctx, doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := ms.Skip(n); got != n {
			t.Fatalf("Skip(%d) = %d", n, got)
		}
		if e, ok := ms.it.(*enum.Enumerator); !ok || !e.RankBuilt() {
			t.Fatalf("Skip(%d) stepped through %T instead of descending the rank", n, ms.it)
		}
		want, _ := r.ResultAt(n)
		if got, ok := ms.Next(); !ok || got.String() != want.String() {
			t.Fatalf("after Skip(%d): Next = %v (ok %v), want ResultAt(%d) = %v", n, got, ok, n, want)
		}
	}
}

// TestEvalNoMatchAllocBytes gates what a warm Eval costs when a document
// passes the prefilter but has no match: the enumerator and the stream,
// with the graph arenas drawn from and handed back to the pool. Before
// Eval released its arenas, every call grew a graph of its own, which
// scales with the document: 1,072 B a call here, against 208 B with the
// release (Go 1.24, amd64).
func TestEvalNoMatchAllocBytes(t *testing.T) {
	// (0|1) leaves no required literal, so every call builds the graph.
	sp := MustCompile(`.*x{[a-z]+}(0|1)y{[a-z]+}.*`)
	doc := strings.Repeat("mail alice at example today and bob at host tomorrow. ", 3)
	eval := func() {
		if ms, err := sp.Eval(doc); err != nil || len(ms) != 0 {
			t.Fatalf("Eval = %v, %v; want no matches", ms, err)
		}
	}
	eval()
	if b := alloctest.Bytes(t, 200, eval); b > 512 {
		t.Fatalf("warm no-match Eval allocates %.0f B/op, want ≤ 512", b)
	}
}

// TestSpannerCountAllocBytes gates what a warm Spanner.Count costs: the
// graph build and the ranked DP, with the graph arenas drawn from and
// handed back to the pool as a drained Eval hands them. Before Count
// released its arenas, every call grew a graph of its own: 8,784 B a call
// here, against 6,248 B with the release (Go 1.24, amd64).
func TestSpannerCountAllocBytes(t *testing.T) {
	sp := MustCompile(`.*x{[a-z]+}@y{[a-z]+}.*`)
	const doc = "mail to bob@host and back " // 26 bytes, 12 matches
	count := func() {
		if n, err := sp.Count(doc); err != nil || n.String() != "12" {
			t.Fatalf("Count = %v, %v; want 12", n, err)
		}
	}
	count()
	if b := alloctest.Bytes(t, 200, count); b > 7500 {
		t.Fatalf("warm Count allocates %.0f B/op, want ≤ 7,500", b)
	}
}

// TestCorpusSampleAllocBytes gates what a warm Corpus.Sample costs: the
// count sweep plus one ranked view per drawn document, whose graph arenas
// go back to the pool the next build draws from once the sample is
// decoded. Before Sample released its views, each one's graph went to
// the collector: about 205,900 B a call here, against 176,100 B with the
// release (Go 1.24, amd64).
func TestCorpusSampleAllocBytes(t *testing.T) {
	sp := MustCompile(`.*x{[a-z]+}@y{[a-z]+}.*`)
	c := NewCorpus(WithShards(2), WithWorkers(2))
	for range 8 {
		c.Add(strings.Repeat("mail to bob@host and back ", 4)) // 104 bytes
	}
	rng := rand.New(rand.NewSource(1))
	sample := func() {
		if ms, err := c.Sample(context.Background(), Of(sp), rng, 4); err != nil || len(ms) != 4 {
			t.Fatalf("Sample = %d matches, %v; want 4", len(ms), err)
		}
	}
	sample()
	if b := alloctest.Bytes(t, 200, sample); b > 190_000 {
		t.Fatalf("warm Sample allocates %.0f B/op, want ≤ 190,000", b)
	}
}
