package spanjoin_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"spanjoin"
)

// addressDocs returns n address documents whose zip codes 1000, 1001, …
// are all distinct; zipLookup(i) finds the i-th one's zip and city, in it
// alone.
func addressDocs(n int) []string {
	streets := []string{"Elm Street", "Oak Avenue", "Mill Road", "High Street"}
	cities := []string{"Ashford", "Bexley", "Carlton", "Dover", "Exeter", "Fulham"}
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf("Parcel %d leaves for %d %s, %d %s. Call the depot before noon if nobody is home.",
			i, 1+i%97, streets[i%len(streets)], 1000+i, cities[i%len(cities)])
	}
	return docs
}

func zipLookup(i int) string {
	return fmt.Sprintf("s{[A-Z][a-z]+ [A-Z][a-z]+}, z{%d} c{[A-Z][a-z]+}", 1000+i)
}

// lookup is one adhoc-style lookup: a Count, then the first page.
func lookup(t *testing.T, c *spanjoin.Corpus, tg spanjoin.Target) {
	t.Helper()
	ctx := context.Background()
	n, err := c.Count(ctx, tg)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := c.Page(ctx, tg, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n.IsZero() || len(pg.Matches) == 0 {
		t.Fatalf("count %v and %d page matches; the lookup's document must match", n, len(pg.Matches))
	}
}

// retained reports the heap f leaves reachable: the live heap after two
// collections (the second clears the pools' victim caches), less the
// live heap before f.
func retained(f func()) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestOneShotLookupsPinFewPlans: 512 never-repeated Search lookups, a
// Count then a Page each, through a corpus with the default cache must
// retain at most a quarter of the heap that holding the last 128 of such
// plans retains — what a plain 128-entry LRU keeps. A lookup's Page is a
// probation hit, which promotes nothing, so only probation's 16 plans
// stay, beside the ghosts' keys and memos.
func TestOneShotLookupsPinFewPlans(t *testing.T) {
	const lookups, lru = 512, 128
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithIndex())
	c.AddAll(addressDocs(2 * lookups)...)
	lookup(t, c, spanjoin.Of(spanjoin.MustCompileSearch(zipLookup(0)))) // first-use globals

	cached := retained(func() {
		for i := range lookups {
			lookup(t, c, spanjoin.Search(zipLookup(i)))
		}
	})
	held := make([]*spanjoin.Spanner, lru)
	kept := retained(func() {
		for i := range lookups {
			sp := spanjoin.MustCompileSearch(zipLookup(lookups + i))
			lookup(t, c, spanjoin.Of(sp))
			held[i%lru] = sp
		}
	})
	runtime.KeepAlive(held)
	t.Logf("the cache retains %d B after %d lookups; %d held plans retain %d B", cached, lookups, lru, kept)
	if cached > kept/4 {
		t.Fatalf("the cache retains %d B after %d one-shot lookups, more than a quarter of the %d B %d held plans retain", cached, lookups, kept, lru)
	}
	if st := c.CacheStats(); st.Resident != 16 || st.Hits != lookups || st.Misses != lookups {
		t.Fatalf("cache stats %+v, want 16 resident and one hit and one miss a lookup", st)
	}
}

// TestReusedPatternOutlastsOneShots: a pattern asked for again after it
// left probation is protected, and 200 one-shot patterns passing through
// probation after it leave it cached: its next lookup is a hit.
func TestReusedPatternOutlastsOneShots(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithIndex())
	c.AddAll(addressDocs(240)...)
	reused := spanjoin.Search(zipLookup(0))
	lookup(t, c, reused)
	for i := 1; i <= 20; i++ { // pushes it out of probation, to a ghost
		lookup(t, c, spanjoin.Search(zipLookup(i)))
	}
	lookup(t, c, reused) // compiled again, into protected
	for i := 21; i < 221; i++ {
		lookup(t, c, spanjoin.Search(zipLookup(i)))
	}
	before := c.CacheStats()
	if _, err := c.Count(context.Background(), reused); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Hits != before.Hits+1 || st.Misses != before.Misses {
		t.Fatalf("after 200 one-shot patterns the reused pattern missed: %+v, then %+v", before, st)
	}
}

// TestGhostKeepsCountMemo: a pattern pushed out by more new patterns than
// the cache holds, though not out of its ghosts, keeps its count memo.
// Asked for again, it compiles afresh, its page takes every document the
// memo counted from it and scans only documents added since, and its
// Count and Page equal a fresh corpus's.
func TestGhostKeepsCountMemo(t *testing.T) {
	docs := addressDocs(300)
	ctx := context.Background()
	c := spanjoin.NewCorpus(spanjoin.WithShards(2))
	c.AddAll(docs[:200]...)
	street := spanjoin.Search(`s{[A-Z][a-z]+ Street}, z{[0-9]+}`)
	if _, err := c.Page(ctx, street, 0, 10); err != nil {
		t.Fatal(err)
	}
	// 136 new patterns: more than the 128 plans the cache keeps, fewer
	// than the 16 in probation plus the 128 ghosts.
	for i := range 136 {
		if _, err := c.Count(ctx, spanjoin.Search(zipLookup(i))); err != nil {
			t.Fatal(err)
		}
	}
	c.AddAll(docs[200:]...)
	before := c.CacheStats()
	pg, err := c.Page(ctx, street, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Misses != before.Misses+1 {
		t.Fatalf("the pattern was still resident: %+v, then %+v", before, st)
	}
	if pg.Stats.Reused != 200 || pg.Stats.Scanned+pg.Stats.Skipped != 100 {
		t.Fatalf("page stats %+v, want the 200 memo-counted documents reused and only the 100 new ones visited", pg.Stats)
	}

	fresh := spanjoin.NewCorpus(spanjoin.WithShards(2))
	fresh.AddAll(docs...)
	want, err := fresh.Page(ctx, street, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Total.String() != want.Total.String() || !slices.EqualFunc(pg.Matches, want.Matches, sameMatch) {
		t.Fatalf("page after the ghost: total %v, %d matches; fresh corpus: total %v, %d matches", pg.Total, len(pg.Matches), want.Total, len(want.Matches))
	}
	got, err := c.Count(ctx, street)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.Total.String() {
		t.Fatalf("count after the ghost = %v, fresh corpus %v", got, want.Total)
	}
}

func sameMatch(a, b spanjoin.CorpusMatch) bool {
	return a.Doc == b.Doc && slices.Equal(tupleOf(a.Match), tupleOf(b.Match))
}
