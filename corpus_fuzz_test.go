package spanjoin_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"spanjoin"
	"spanjoin/internal/enum"
	"spanjoin/internal/oracle"
	"spanjoin/internal/rgx"
	"spanjoin/internal/span"
)

// oracleEval evaluates the pattern with the brute-force ref-word oracle.
func oracleEval(t *testing.T, pattern, doc string) []span.Tuple {
	t.Helper()
	f, err := rgx.Parse(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.EvalFormula(f, doc)
}

// fuzzPatterns are small functional regex formulas over {a, b}; the fuzzer
// picks one by index so pattern choice stays in the corpus-minimizable
// input.
var fuzzPatterns = []string{
	`x{a+}`,
	`(a|b)*x{a+}(a|b)*`,
	`x{(a|b)*}`,
	`x{a*}y{b*}`,
	`(a|b)*x{a}y{b?}(a|b)*`,
	`x{a*}(a|b)*y{a*}`,
	`a*x{a*}a*`,
	`(a|b)*x{(a|b)+}(a|b)*`,
}

// fuzzDocs derives a small document set over {a, b} from raw fuzz bytes:
// '|' separates documents, every other byte maps onto a or b by parity.
// At most 8 documents of at most 12 bytes keep the reference evaluation
// cheap.
func fuzzDocs(blob string) []string {
	parts := strings.Split(blob, "|")
	if len(parts) > 8 {
		parts = parts[:8]
	}
	docs := make([]string, 0, len(parts))
	for _, p := range parts {
		if len(p) > 12 {
			p = p[:12]
		}
		b := []byte(p)
		for i := range b {
			if b[i]%2 == 0 {
				b[i] = 'a'
			} else {
				b[i] = 'b'
			}
		}
		docs = append(docs, string(b))
	}
	return docs
}

// fuzzCorpus builds a 3-shard corpus over docs in two batches. Between
// them it fills the pattern's count memo through the cached Count,
// CountAll and EvalPage, so every later cached count merges memoized
// documents with a sweep of the second batch.
func fuzzCorpus(t *testing.T, pattern string, docs []string, opts ...spanjoin.CorpusOption) (*spanjoin.Corpus, []spanjoin.DocID) {
	t.Helper()
	c := spanjoin.NewCorpus(append([]spanjoin.CorpusOption{spanjoin.WithShards(3), spanjoin.WithWorkers(2)}, opts...)...)
	half := len(docs) / 2
	ids := c.AddAll(docs[:half]...)
	ctx := context.Background()
	if _, err := c.Count(ctx, pattern); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CountAll(ctx, pattern); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvalPage(ctx, pattern, 0, 1); err != nil {
		t.Fatal(err)
	}
	return c, append(ids, c.AddAll(docs[half:]...)...)
}

// checkMemoCounts pins the cached counting paths against the
// per-document reference. Each check runs on its own fuzzCorpus, so each
// merges a partly filled count memo with a sweep: Count must equal the
// sum of Spanner.Count, CountAll must match it document by document, and
// a full-corpus EvalPage must reproduce Spanner.Eval's matches in
// ascending-DocID order.
func checkMemoCounts(t *testing.T, sp *spanjoin.Spanner, pattern string, docs []string, opts ...spanjoin.CorpusOption) {
	t.Helper()
	ctx := context.Background()
	var total uint64
	perDoc := make([]uint64, len(docs))
	for i, doc := range docs {
		n, err := sp.Count(doc)
		if err != nil {
			t.Fatal(err)
		}
		perDoc[i], _ = n.Uint64()
		total += perDoc[i]
	}

	c, _ := fuzzCorpus(t, pattern, docs, opts...)
	n, err := c.Count(ctx, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := n.Uint64(); !ok || u != total {
		t.Fatalf("pattern %q: Count = %v, per-document counts sum to %d", pattern, n, total)
	}

	c, ids := fuzzCorpus(t, pattern, docs, opts...)
	per, err := c.CountAll(ctx, pattern)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for i, u := range perDoc {
		if u == 0 {
			continue
		}
		matched++
		if got, ok := per[ids[i]].Uint64(); !ok || got != u {
			t.Fatalf("pattern %q doc %q: CountAll %v, Spanner.Count %d", pattern, docs[i], per[ids[i]], u)
		}
	}
	if len(per) != matched {
		t.Fatalf("pattern %q: CountAll has %d documents, want %d", pattern, len(per), matched)
	}

	c, ids = fuzzCorpus(t, pattern, docs, opts...)
	pg, err := c.EvalPage(ctx, pattern, 0, int(total)+1)
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := pg.Total.Uint64(); !ok || u != total {
		t.Fatalf("pattern %q: page Total = %v, want %d", pattern, pg.Total, total)
	}
	if st := pg.Stats; st.Scanned+st.Skipped+st.Reused != uint64(len(docs)) || st.Reused != uint64(len(docs)/2) {
		t.Fatalf("pattern %q: page stats %+v, want %d reused of %d docs", pattern, st, len(docs)/2, len(docs))
	}
	order := make([]int, len(docs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	k := 0
	for _, i := range order {
		ms, err := sp.Eval(docs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if k >= len(pg.Matches) {
				t.Fatalf("pattern %q: page ends after %d matches", pattern, k)
			}
			got := pg.Matches[k]
			if got.Doc != ids[i] || tupleOf(got.Match).Compare(tupleOf(m)) != 0 {
				t.Fatalf("pattern %q: page match %d is %v@%d, want %v@%d", pattern, k, tupleOf(got.Match), got.Doc, tupleOf(m), ids[i])
			}
			k++
		}
	}
	if k != len(pg.Matches) {
		t.Fatalf("pattern %q: page has %d matches, reference %d", pattern, len(pg.Matches), k)
	}
}

// FuzzCorpusVsEval is the differential harness for the corpus engine:
// random small patterns and document sets go through Corpus.Eval (sharded,
// pooled, streamed) and through per-document Spanner.Eval (the
// polynomial-delay reference, Theorem 3.3), and the match multisets must
// be identical per document — any lost, duplicated or misattributed
// result across the shard/worker/channel machinery fails. The documents
// arrive in two batches with the pattern's count memo filled in between,
// and the cached counts, per-document counts and full-corpus page must
// then match the per-document reference — with and without the index.
func FuzzCorpusVsEval(f *testing.F) {
	f.Add(uint8(0), "aab|ba|abab")
	f.Add(uint8(1), "aaaa|b|")
	f.Add(uint8(3), "ab|aabb|bbaa|a")
	f.Add(uint8(5), "aaa")
	f.Add(uint8(7), "abab|baba|aa|bb|a|b||ab")
	f.Fuzz(func(t *testing.T, pi uint8, blob string) {
		pattern := fuzzPatterns[int(pi)%len(fuzzPatterns)]
		docs := fuzzDocs(blob)
		sp, err := spanjoin.Compile(pattern)
		if err != nil {
			t.Fatalf("fuzz pattern %q must compile: %v", pattern, err)
		}

		c, ids := fuzzCorpus(t, pattern, docs)
		ms, err := c.Eval(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer ms.Close()
		got := make(map[spanjoin.DocID][]span.Tuple)
		for {
			m, ok := ms.Next()
			if !ok {
				break
			}
			got[m.Doc] = append(got[m.Doc], tupleOf(m.Match))
		}
		if err := ms.Err(); err != nil {
			t.Fatal(err)
		}

		// The skip index must be invisible in the results: same tuples per
		// document, same per-document order.
		ci, idsIdx := fuzzCorpus(t, pattern, docs, spanjoin.WithIndex())
		msIdx, err := ci.Eval(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		// spanlint/closecheck: release the stream's pool slot.
		defer msIdx.Close()
		gotIdx := make(map[spanjoin.DocID][]span.Tuple)
		for {
			m, ok := msIdx.Next()
			if !ok {
				break
			}
			gotIdx[m.Doc] = append(gotIdx[m.Doc], tupleOf(m.Match))
		}
		if err := msIdx.Err(); err != nil {
			t.Fatal(err)
		}
		for i := range docs {
			a, b := got[ids[i]], gotIdx[idsIdx[i]]
			if len(a) != len(b) {
				t.Fatalf("pattern %q doc %q: unindexed %v, indexed %v", pattern, docs[i], a, b)
			}
			for k := range a {
				if a[k].Compare(b[k]) != 0 {
					t.Fatalf("pattern %q doc %q: index changed tuple %d: %v vs %v", pattern, docs[i], k, a[k], b[k])
				}
			}
		}
		st := msIdx.Stats()
		if st.Scanned+st.Skipped != uint64(len(docs)) {
			t.Fatalf("pattern %q: indexed stats %+v don't cover %d docs", pattern, st, len(docs))
		}
		checkMemoCounts(t, sp, pattern, docs)
		checkMemoCounts(t, sp, pattern, docs, spanjoin.WithIndex())

		// The corpus fan-out (and Spanner.Eval) run on the byte-class
		// compiled transition table; the preserved per-transition reference
		// build is the independent witness that the matrix sweep built the
		// same graphs. One reference enumerator, Reset per document — the
		// plan compiles once per fuzz input, not once per document.
		re, err := enum.PrepareRef(rgx.MustCompilePattern(pattern), "")
		if err != nil {
			t.Fatal(err)
		}

		for i, doc := range docs {
			ref, err := sp.Eval(doc)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]span.Tuple, len(ref))
			for k, m := range ref {
				want[k] = tupleOf(m)
			}
			re.Reset(doc)
			if !oracle.EqualTupleSets(want, re.All()) {
				t.Fatalf("pattern %q doc %q: compiled-table path disagrees with per-transition reference",
					pattern, doc)
			}
			if !sameTupleMultiset(got[ids[i]], want) {
				t.Fatalf("pattern %q doc %q: corpus %v, per-doc eval %v",
					pattern, doc, got[ids[i]], want)
			}
			// The per-document stream must also preserve the engine's
			// deterministic radix order, not just the multiset.
			for k := range want {
				if got[ids[i]][k].Compare(want[k]) != 0 {
					t.Fatalf("pattern %q doc %q: order differs at %d", pattern, doc, k)
				}
			}
			// On tiny inputs, additionally pin both against the brute-force
			// ref-word oracle (§2.2 semantics, shares no code with either).
			if len(doc) <= 4 {
				if !oracle.EqualTupleSets(want, oracleEval(t, pattern, doc)) {
					t.Fatalf("pattern %q doc %q: engine disagrees with oracle", pattern, doc)
				}
			}
		}
	})
}
