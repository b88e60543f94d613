package spanjoin_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"spanjoin"
)

// TestCorpusConcurrentAddEvalCache hammers one Corpus from 16 goroutines —
// adders appending documents, evaluators repeating one cached query,
// evaluators rotating through distinct queries — and checks, per
// evaluation, that no result is lost (every document present before the
// evaluation began is reported) and none is duplicated (each document
// yields its exact match multiset, here exactly one match). Run under
// -race this also exercises the store/cache/pool synchronization.
func TestCorpusConcurrentAddEvalCache(t *testing.T) {
	c := spanjoin.NewCorpus(spanjoin.WithShards(8), spanjoin.WithWorkers(4))
	ctx := context.Background()

	// Every document contains exactly one occurrence of "qq" (the letters
	// q never occur elsewhere), so the anchored pattern below has exactly
	// one match per document.
	makeDoc := func(g, i int) string {
		return fmt.Sprintf("abba%dqqab%d", g, i)
	}
	pattern := `[a-p0-9]*x{qq}[a-p0-9]*`

	// Seed documents so the very first evaluations see a populated corpus.
	var mu sync.Mutex
	known := make(map[spanjoin.DocID]bool)
	for i := 0; i < 40; i++ {
		known[c.Add(makeDoc(99, i))] = true
	}

	snapshotKnown := func() []spanjoin.DocID {
		mu.Lock()
		defer mu.Unlock()
		ids := make([]spanjoin.DocID, 0, len(known))
		for id := range known {
			ids = append(ids, id)
		}
		return ids
	}

	const adders, repeatEvals, mixedEvals = 4, 8, 4 // 16 goroutines total
	var wg sync.WaitGroup
	errs := make(chan error, adders+repeatEvals+mixedEvals)

	for g := 0; g < adders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				id := c.Add(makeDoc(g, i))
				mu.Lock()
				known[id] = true
				mu.Unlock()
			}
		}(g)
	}

	runEval := func(pat string) error {
		pre := snapshotKnown() // all IDs added before this evaluation began
		ms, err := c.Eval(ctx, spanjoin.Anchored(pat))
		if err != nil {
			return err
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		perDoc := make(map[spanjoin.DocID]int)
		for {
			m, ok := ms.Next()
			if !ok {
				break
			}
			if _, ok := c.Doc(m.Doc); !ok {
				return fmt.Errorf("result for unknown doc %d", m.Doc)
			}
			if m.Match.MustSubstr("x") != "qq" {
				return fmt.Errorf("doc %d: match %q, want qq", m.Doc, m.Match.MustSubstr("x"))
			}
			perDoc[m.Doc]++
		}
		if err := ms.Err(); err != nil {
			return err
		}
		for id, n := range perDoc {
			if n != 1 {
				return fmt.Errorf("doc %d reported %d times (duplicated result)", id, n)
			}
		}
		for _, id := range pre {
			if perDoc[id] != 1 {
				return fmt.Errorf("doc %d added before eval missing (lost result)", id)
			}
		}
		return nil
	}

	for g := 0; g < repeatEvals; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if err := runEval(pattern); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Mixed evaluators rotate through equivalent but distinct sources, so
	// the cache holds several artifacts and keeps being exercised on both
	// hit and miss paths.
	variants := []string{
		pattern,
		`[0-9a-p]*x{qq}[a-p0-9]*`,
		`(a|b|[0-9a-p])*x{qq}[a-p0-9]*`,
	}
	for g := 0; g < mixedEvals; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if err := runEval(variants[(g+i)%len(variants)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Repeated identical sources must have hit the cache far more often
	// than they compiled: ≥ 90% over the whole run.
	st := c.CacheStats()
	if st.Misses > uint64(len(variants)) {
		t.Fatalf("stats = %+v: identical queries recompiled", st)
	}
	if rate := st.HitRate(); rate < 0.9 {
		t.Fatalf("cache hit rate %.2f, want ≥ 0.90 (%+v)", rate, st)
	}
	// Every document is still resolvable after the dust settles.
	for _, id := range snapshotKnown() {
		doc, ok := c.Doc(id)
		if !ok || !strings.Contains(doc, "qq") {
			t.Fatalf("doc %d unresolvable after concurrent run", id)
		}
	}
}

// TestCountMemoHammer: writers append documents while readers Count and
// Page one cached pattern, so sweeps that started at different memo
// marks publish into the pattern's count memo concurrently. Every count
// must lie between the counts before and after the hammer (and never
// fall, per reader), and once the writers are done the memoized total
// must equal a fresh corpus's and each memoized per-document count —
// read back through one-row pages, whose windows are placed by those
// counts — must equal Spanner.Count.
func TestCountMemoHammer(t *testing.T) {
	const pattern = `.*x{ab+}.*`
	ctx := context.Background()
	c := spanjoin.NewCorpus(spanjoin.WithShards(4), spanjoin.WithWorkers(2))
	// Documents hold zero to three matches of x, so memo entries carry
	// different counts and some documents none at all.
	makeDoc := func(g, i int) string {
		return fmt.Sprintf("%d %s %d", g, strings.Repeat("abb ", i%4), i)
	}
	var docs []string
	for i := 0; i < 40; i++ {
		docs = append(docs, makeDoc(9, i))
	}
	c.AddAll(docs...)
	count := func() uint64 {
		n, err := c.Count(ctx, spanjoin.Anchored(pattern))
		if err != nil {
			t.Fatal(err)
		}
		u, _ := n.Uint64()
		return u
	}
	before := count()

	const writers, readers, perWriter = 2, 3, 60
	added := make([][]string, writers)
	seen := make([][]uint64, readers)
	var wg, writing sync.WaitGroup
	// Each read offers a tick and each add takes one, so the appends
	// interleave with the reads instead of finishing before the first.
	ticks := make(chan struct{}, readers)
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		writing.Add(1)
		go func() {
			defer wg.Done()
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				<-ticks
				doc := makeDoc(g, i)
				c.Add(doc)
				added[g] = append(added[g], doc)
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				case ticks <- struct{}{}:
				default:
				}
				var (
					n   spanjoin.MatchCount
					err error
				)
				if k%2 == 0 {
					n, err = c.Count(ctx, spanjoin.Anchored(pattern))
				} else {
					var pg *spanjoin.Page
					if pg, err = c.Page(ctx, spanjoin.Anchored(pattern), uint64(k), 3); err == nil {
						n = pg.Total
					}
				}
				if err != nil {
					t.Error(err)
					continue
				}
				u, _ := n.Uint64()
				seen[r] = append(seen[r], u)
			}
		}()
	}
	writing.Wait()
	close(done)
	wg.Wait()

	after := count()
	for r, counts := range seen {
		for k, u := range counts {
			if u < before || u > after {
				t.Fatalf("reader %d count %d = %d, outside [%d, %d]", r, k, u, before, after)
			}
			if k > 0 && u < counts[k-1] {
				t.Fatalf("reader %d count fell from %d to %d", r, counts[k-1], u)
			}
		}
	}

	fresh := spanjoin.NewCorpus(spanjoin.WithShards(4))
	fresh.AddAll(docs...)
	for _, a := range added {
		fresh.AddAll(a...)
	}
	want, err := fresh.Count(ctx, spanjoin.Anchored(pattern))
	if err != nil {
		t.Fatal(err)
	}
	if u, _ := want.Uint64(); u != after {
		t.Fatalf("memoized count %d, fresh corpus %d", after, u)
	}
	sp := spanjoin.MustCompile(pattern)
	per := pageCounts(t, c, spanjoin.Anchored(pattern))
	for id := spanjoin.DocID(0); int(id) < c.Len(); id++ {
		doc, ok := c.Doc(id)
		if !ok {
			t.Fatalf("doc %d missing from a corpus of %d", id, c.Len())
		}
		n, err := sp.Count(doc)
		if err != nil {
			t.Fatal(err)
		}
		if u, _ := n.Uint64(); per[id] != u {
			t.Fatalf("doc %d: page rows %d, Spanner.Count %v", id, per[id], n)
		}
	}
}

// TestConcurrentFirstPagesPooledArenas: sixteen goroutines page sixteen
// different never-seen patterns at once, so window enumerators build on
// graph arenas drawn from the shared pool and release them concurrently.
// Every page must equal its slice of the per-document Spanner.Eval
// sequence, which a page built on an arena another live enumerator still
// held would not.
func TestConcurrentFirstPagesPooledArenas(t *testing.T) {
	words := []string{"amber", "birch", "cedar", "delta", "ember", "fjord", "grove", "heron",
		"ivory", "jolly", "koala", "lemon", "maple", "nylon", "olive", "pearl"}
	r := rand.New(rand.NewSource(16))
	docs := make([]string, 48)
	for i := range docs {
		var sb strings.Builder
		for k := 0; k < 4+r.Intn(8); k++ {
			fmt.Fprintf(&sb, "%s %s ", words[r.Intn(len(words))], words[r.Intn(len(words))])
		}
		docs[i] = sb.String()
	}
	c := spanjoin.NewCorpus(spanjoin.WithShards(2), spanjoin.WithWorkers(2), spanjoin.WithIndex())
	c.AddAll(docs...)

	const limit = 3
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, w := range words {
		pattern := "x{" + w + "} y{[a-p]+}"
		sp, err := spanjoin.CompileSearch(pattern)
		if err != nil {
			t.Fatal(err)
		}
		want := corpusRefSequenceOf(t, c, sp)
		if len(want) < 2*limit {
			t.Fatalf("%s: weak instance, %d results", pattern, len(want))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for off := 0; off <= len(want); off += limit {
				pg, err := c.Page(context.Background(), spanjoin.Search(pattern), uint64(off), limit)
				if err != nil {
					t.Error(err)
					return
				}
				ref := want[off:min(off+limit, len(want))]
				if len(pg.Matches) != len(ref) {
					t.Errorf("%s offset %d: %d matches, want %d", pattern, off, len(pg.Matches), len(ref))
					return
				}
				for k, m := range pg.Matches {
					if m.Doc != ref[k].Doc || matchKey(m.Match) != matchKey(ref[k].Match) {
						t.Errorf("%s offset %d match %d: %v@%d, want %v@%d",
							pattern, off, k, m.Match, m.Doc, ref[k].Match, ref[k].Doc)
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestAddAllHammer: on an indexed RAM corpus one writer appends AddAll
// batches of zero to seven documents while another Adds single documents
// and readers Count and Page a pattern whose literal the skip index
// constrains. Every ID must be unique and resolve to its document, every
// count must lie between the counts before and after and never fall per
// reader, and once the writers are done the total must equal a fresh
// corpus's and each document's count, read back through one-row pages,
// must equal Spanner.Count.
func TestAddAllHammer(t *testing.T) {
	const pattern = `.*x{ab+}.*`
	ctx := context.Background()
	c := spanjoin.NewCorpus(spanjoin.WithShards(3), spanjoin.WithWorkers(2), spanjoin.WithIndex())
	makeDoc := func(g, i int) string {
		return fmt.Sprintf("%d %s %d", g, strings.Repeat("abb ", i%4), i)
	}
	var docs []string
	for i := 0; i < 30; i++ {
		docs = append(docs, makeDoc(9, i))
	}
	c.AddAll(docs...)
	count := func() uint64 {
		n, err := c.Count(ctx, spanjoin.Anchored(pattern))
		if err != nil {
			t.Fatal(err)
		}
		u, _ := n.Uint64()
		return u
	}
	before := count()

	const batches, singles, readers = 40, 120, 3
	var batched, single []string
	var batchIDs, singleIDs []spanjoin.DocID
	var wg, writing sync.WaitGroup
	// Each read offers a tick and each write takes one, so the writes
	// interleave with the reads instead of finishing before the first.
	ticks := make(chan struct{}, readers)
	done := make(chan struct{})
	wg.Add(2)
	writing.Add(2)
	go func() {
		defer wg.Done()
		defer writing.Done()
		for b := 0; b < batches; b++ {
			<-ticks
			batch := make([]string, b%8)
			for i := range batch {
				batch[i] = makeDoc(1, 8*b+i)
			}
			batchIDs = append(batchIDs, c.AddAll(batch...)...)
			batched = append(batched, batch...)
		}
	}()
	go func() {
		defer wg.Done()
		defer writing.Done()
		for i := 0; i < singles; i++ {
			<-ticks
			doc := makeDoc(2, i)
			singleIDs = append(singleIDs, c.Add(doc))
			single = append(single, doc)
		}
	}()
	seen := make([][]uint64, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-done:
					return
				case ticks <- struct{}{}:
				default:
				}
				var (
					n   spanjoin.MatchCount
					err error
				)
				if k%2 == 0 {
					n, err = c.Count(ctx, spanjoin.Anchored(pattern))
				} else {
					var pg *spanjoin.Page
					if pg, err = c.Page(ctx, spanjoin.Anchored(pattern), uint64(k), 3); err == nil {
						n = pg.Total
					}
				}
				if err != nil {
					t.Error(err)
					continue
				}
				u, _ := n.Uint64()
				seen[r] = append(seen[r], u)
			}
		}()
	}
	writing.Wait()
	close(done)
	wg.Wait()

	ids := make(map[spanjoin.DocID]bool)
	for _, w := range []struct {
		ids  []spanjoin.DocID
		docs []string
	}{{batchIDs, batched}, {singleIDs, single}} {
		for i, id := range w.ids {
			if ids[id] {
				t.Fatalf("DocID %d handed out twice", id)
			}
			ids[id] = true
			if doc, ok := c.Doc(id); !ok || doc != w.docs[i] {
				t.Fatalf("Doc(%d) = %q, %v; want %q", id, doc, ok, w.docs[i])
			}
		}
	}
	after := count()
	for r, counts := range seen {
		for k, u := range counts {
			if u < before || u > after {
				t.Fatalf("reader %d count %d = %d, outside [%d, %d]", r, k, u, before, after)
			}
			if k > 0 && u < counts[k-1] {
				t.Fatalf("reader %d count fell from %d to %d", r, counts[k-1], u)
			}
		}
	}
	fresh := spanjoin.NewCorpus(spanjoin.WithShards(3))
	fresh.AddAll(docs...)
	fresh.AddAll(batched...)
	fresh.AddAll(single...)
	if want, err := fresh.Count(ctx, spanjoin.Anchored(pattern)); err != nil {
		t.Fatal(err)
	} else if u, _ := want.Uint64(); u != after {
		t.Fatalf("count %d after the hammer, fresh corpus %d", after, u)
	}
	sp := spanjoin.MustCompile(pattern)
	per := pageCounts(t, c, spanjoin.Anchored(pattern))
	for id := spanjoin.DocID(0); int(id) < c.Len(); id++ {
		doc, ok := c.Doc(id)
		if !ok {
			t.Fatalf("doc %d missing from a corpus of %d", id, c.Len())
		}
		n, err := sp.Count(doc)
		if err != nil {
			t.Fatal(err)
		}
		if u, _ := n.Uint64(); per[id] != u {
			t.Fatalf("doc %d: page rows %d, Spanner.Count %v", id, per[id], n)
		}
	}
}
